(* Host-side measurement of one untraced run: wall time on the monotonic
   clock, and allocation and collection counts from [Gc.quick_stat], which
   sums every domain's counters (a parallel run's shard domains included,
   once they have been joined). *)

let seconds_since t0 = float_of_int (Span.now_ns () - t0) /. 1e9

let time f =
  let t0 = Span.now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Emptying the minor heap first makes the allocation counters exact. *)
let gc_stat () =
  Gc.minor ();
  Gc.quick_stat ()

let allocated_bytes (s : Gc.stat) =
  (s.minor_words +. s.major_words -. s.promoted_words) *. float_of_int (Sys.word_size / 8)

type leg = {
  out : Workloads.outcome;
  wall_s : float;
  alloc_bytes : float;
  heap_peak_bytes : float;
  minor_collections : int;
  major_collections : int;
}

let heap_words () = (Gc.quick_stat ()).heap_words

(* One run of already-built inputs, started from a compacted heap.

   The peak major heap is the run's own: the largest heap size sampled at
   the start of the run, at the end of every major cycle it completes, and
   after it. [top_heap_words] cannot serve, as it is the process's peak
   and so includes set-up's. [Gc.quick_stat] refreshes the heap size once
   per major cycle, so a second collection after the compaction makes the
   first sample exclude what set-up left behind. *)
let run_inputs inputs ~engine ~n ~seed =
  Gc.compact ();
  Gc.full_major ();
  let peak = ref (heap_words ()) in
  let alarm = Gc.create_alarm (fun () -> peak := max !peak (heap_words ())) in
  let s0 = gc_stat () in
  let out, wall_s = time (fun () -> Workloads.run inputs ~engine ~n ~seed) in
  Gc.delete_alarm alarm;
  let s1 = gc_stat () in
  peak := max !peak (heap_words ());
  {
    out;
    wall_s;
    alloc_bytes = allocated_bytes s1 -. allocated_bytes s0;
    heap_peak_bytes = float_of_int (!peak * (Sys.word_size / 8));
    minor_collections = s1.minor_collections - s0.minor_collections;
    major_collections = s1.major_collections - s0.major_collections;
  }

let leg w ~seed ~n ~engine = run_inputs (Workloads.setup w ~seed) ~engine ~n ~seed

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0
