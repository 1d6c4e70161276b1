(* Span recorder for the traced benchmark run.

   A span is one timed call into a library layer: a name, a start and end on
   the monotonic clock, the span that encloses it, and the request it serves
   (-1 when the call is not tied to one request). Every span is folded into
   per-name totals (calls, total time, self time, self minor-heap words), so
   the totals cover every call; only the first spans to close, plus the
   outermost ones, are kept whole, in preallocated arrays, and written out
   at the end.

   Self time is a span's duration minus the part covered by its direct
   children; since children nest inside their parent, the self times of all
   spans sum exactly to the root span's duration. Recording allocates
   nothing, so the word counts are the layer's own allocation. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : string array;
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  self_words : float array;
  children : int array;  (** direct child spans, summed over calls *)
  (* open spans, innermost last *)
  st_name : int array;
  st_id : int array;
  st_req : int array;
  st_start : int array;
  st_words : float array;
  st_child_ns : int array;
  st_child_words : float array;
  st_children : int array;
  mutable depth : int;
  mutable next_id : int;
  (* duration of the last closed span, for callers that bucket it further *)
  mutable last_ns : int;
  (* the bounded span log *)
  log_cap : int;
  log_name : int array;
  log_id : int array;
  log_parent : int array;
  log_req : int array;
  log_start : int array;
  log_end : int array;
  mutable logged : int;
}

let max_depth = 16

let create ~names ~log_cap =
  let n = Array.length names in
  {
    names;
    calls = Array.make n 0;
    total_ns = Array.make n 0;
    self_ns = Array.make n 0;
    self_words = Array.make n 0.0;
    children = Array.make n 0;
    st_name = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_req = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_words = Array.make max_depth 0.0;
    st_child_ns = Array.make max_depth 0;
    st_child_words = Array.make max_depth 0.0;
    st_children = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    last_ns = 0;
    log_cap;
    log_name = Array.make log_cap 0;
    log_id = Array.make log_cap 0;
    log_parent = Array.make log_cap 0;
    log_req = Array.make log_cap 0;
    log_start = Array.make log_cap 0;
    log_end = Array.make log_cap 0;
    logged = 0;
  }

let enter t name ~req =
  let d = t.depth in
  t.st_name.(d) <- name;
  t.st_id.(d) <- t.next_id;
  t.st_req.(d) <- req;
  t.st_child_ns.(d) <- 0;
  t.st_child_words.(d) <- 0.0;
  t.st_children.(d) <- 0;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1;
  t.st_words.(d) <- Gc.minor_words ();
  t.st_start.(d) <- now_ns ()

let leave t =
  let stop = now_ns () in
  let words1 = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let name = t.st_name.(d) in
  let dur = stop - t.st_start.(d) in
  let words = words1 -. t.st_words.(d) in
  t.calls.(name) <- t.calls.(name) + 1;
  t.total_ns.(name) <- t.total_ns.(name) + dur;
  t.self_ns.(name) <- t.self_ns.(name) + dur - t.st_child_ns.(d);
  t.self_words.(name) <- t.self_words.(name) +. words -. t.st_child_words.(d);
  t.children.(name) <- t.children.(name) + t.st_children.(d);
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. words;
    t.st_children.(d - 1) <- t.st_children.(d - 1) + 1
  end;
  t.last_ns <- dur;
  let i = t.logged in
  (* the last [max_depth] slots are kept for the outermost spans, which
     close last, so the root and the engine span are always in the log *)
  if i < t.log_cap - max_depth || (d <= 1 && i < t.log_cap) then begin
    t.log_name.(i) <- name;
    t.log_id.(i) <- t.st_id.(d);
    t.log_parent.(i) <- (if d > 0 then t.st_id.(d - 1) else -1);
    t.log_req.(i) <- t.st_req.(d);
    t.log_start.(i) <- t.st_start.(d);
    t.log_end.(i) <- stop;
    t.logged <- i + 1
  end

let total_spans t = Array.fold_left ( + ) 0 t.calls
let sum_self_ns t = Array.fold_left ( + ) 0 t.self_ns

(* What recording costs. [inside_ns] is the part of an enter/leave pair
   that falls between the span's own clock reads, so it inflates the span's
   duration; [outside_ns] is the rest, which lands in the parent's self
   time. Both are measured on a scratch recorder, around nothing. *)
type overhead = { inside_ns : float; outside_ns : float }

let overhead () =
  let t = create ~names:[| "calibrate" |] ~log_cap:0 in
  let n = 200_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    enter t 0 ~req:(-1);
    leave t
  done;
  let pair_ns = float_of_int (now_ns () - t0) /. float_of_int n in
  let inside_ns = float_of_int t.total_ns.(0) /. float_of_int n in
  { inside_ns; outside_ns = pair_ns -. inside_ns }

(* Self time of name [i] with the recording cost taken out: its own inside
   part on every call, and the outside part of every direct child. *)
let corrected_self_ns t o i =
  float_of_int t.self_ns.(i)
  -. (float_of_int t.calls.(i) *. o.inside_ns)
  -. (float_of_int t.children.(i) *. o.outside_ns)

(* Chrome trace-event JSON of the logged spans: one complete ("X") event
   per span, on one track, carrying its id, parent id and request id. *)
let to_chrome_json t ~process_name =
  let b = Buffer.create (t.logged * 120) in
  Buffer.add_string b "{\"traceEvents\":[";
  Printf.bprintf b
    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,\"ts\":0,\"args\":{\"name\":%S}}"
    process_name;
  let origin = ref max_int in
  for i = 0 to t.logged - 1 do
    origin := min !origin t.log_start.(i)
  done;
  let origin = !origin in
  for i = 0 to t.logged - 1 do
    Printf.bprintf b
      ",{\"ph\":\"X\",\"name\":%S,\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
      t.names.(t.log_name.(i))
      (float_of_int (t.log_start.(i) - origin) /. 1e3)
      (float_of_int (t.log_end.(i) - t.log_start.(i)) /. 1e3)
      t.log_id.(i) t.log_parent.(i) t.log_req.(i)
  done;
  Buffer.add_string b "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents b
