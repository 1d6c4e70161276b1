module Heap = Repro_engine.Heap
module Gittins = Repro_workload.Gittins

type kind =
  | Fcfs
  | Srpt
  | Srpt_noisy of { sigma : float }
  | Srpt_kv of { means_ns : int array }
  | Gittins of Gittins.t
  | Locality_fcfs

let kind_name = function
  | Fcfs -> "fcfs"
  | Srpt -> "srpt"
  | Srpt_noisy { sigma } -> Printf.sprintf "srpt-noisy:%g" sigma
  | Srpt_kv _ -> "srpt-kv"
  | Gittins _ -> "gittins"
  | Locality_fcfs -> "locality-fcfs"

(* Doubly-linked queue with O(1) push/pop and in-place removal, used by the
   list-ordered policies. Nodes are threaded onto a second intrusive list
   of never-started requests, so the work-conserving dispatcher's
   "anything stealable?" check is O(1) instead of a full-queue scan under
   backlog. Membership is decided by [req.started] at push time, which is
   sound because the server only flips [started] after removing a request
   from the central queue.

   A node is an index into parallel arrays, so relinking one writes plain
   ints and never pays the GC write barrier; only the request slot holds
   a pointer. Node 0 is the sentinel: both lists are rings through it, so
   no link is ever optional, and its [prev]/[fprev] are the two tails. A
   removed node goes to a free list (chained through [next]) with its
   request slot cleared, and the next push reuses it; the arrays double
   only when every node is in use, so in the steady state a push/pop pair
   allocates nothing. [fprev] is -1 on nodes outside the fresh list. *)
module Dlq = struct
  type t = {
    mutable reqs : Request.t array;
    mutable prev : int array;
    mutable next : int array;
    mutable fprev : int array;
    mutable fnext : int array;
    mutable free : int; (* first recycled node; [nil] when none is left *)
    mutable size : int;
    mutable n_fresh : int;
  }

  let nil = 0

  (* Chain nodes [from .. capacity - 1] into the free list. *)
  let chain_free t from =
    let cap = Array.length t.reqs in
    for i = from to cap - 2 do
      t.next.(i) <- i + 1
    done;
    t.next.(cap - 1) <- nil;
    t.free <- from

  let create () =
    let cap = 16 in
    let t =
      {
        reqs = Array.make cap Request.none;
        prev = Array.make cap nil;
        next = Array.make cap nil;
        fprev = Array.make cap nil;
        fnext = Array.make cap nil;
        free = nil;
        size = 0;
        n_fresh = 0;
      }
    in
    chain_free t 1;
    t

  let grow t =
    let old = Array.length t.reqs in
    let extend a fill =
      let b = Array.make (2 * old) fill in
      Array.blit a 0 b 0 old;
      b
    in
    t.reqs <- extend t.reqs Request.none;
    t.prev <- extend t.prev nil;
    t.next <- extend t.next nil;
    t.fprev <- extend t.fprev nil;
    t.fnext <- extend t.fnext nil;
    chain_free t old

  let push_tail t req =
    if t.free = nil then grow t;
    let node = t.free in
    t.free <- t.next.(node);
    t.reqs.(node) <- req;
    let tail = t.prev.(nil) in
    t.prev.(node) <- tail;
    t.next.(node) <- nil;
    t.next.(tail) <- node;
    t.prev.(nil) <- node;
    t.size <- t.size + 1;
    if req.Request.started then t.fprev.(node) <- -1
    else begin
      let ftail = t.fprev.(nil) in
      t.fprev.(node) <- ftail;
      t.fnext.(node) <- nil;
      t.fnext.(ftail) <- node;
      t.fprev.(nil) <- node;
      t.n_fresh <- t.n_fresh + 1
    end

  (* Unlink [node], recycle it and return its request. *)
  let take t node =
    let p = t.prev.(node) and n = t.next.(node) in
    t.next.(p) <- n;
    t.prev.(n) <- p;
    t.size <- t.size - 1;
    let fp = t.fprev.(node) in
    if fp >= 0 then begin
      let fn = t.fnext.(node) in
      t.fnext.(fp) <- fn;
      t.fprev.(fn) <- fp;
      t.n_fresh <- t.n_fresh - 1
    end;
    let req = t.reqs.(node) in
    t.reqs.(node) <- Request.none;
    t.next.(node) <- t.free;
    t.free <- node;
    req

  let pop_head t =
    if t.size = 0 then invalid_arg "Policy.pop_unsafe: empty";
    take t t.next.(nil)

  (* Both lists append at the tail, so the fresh sublist preserves main-list
     (arrival) order: popping its head is exactly the first not-started
     request a full scan would find. *)
  let pop_fresh_head t =
    if t.n_fresh = 0 then invalid_arg "Policy.pop_not_started_unsafe: none";
    take t t.fnext.(nil)

  (* First of the leading [limit] nodes whose request last ran on
     [worker], or [nil]. *)
  let find_last_worker t ~limit ~worker =
    let node = ref t.next.(nil) and i = ref 0 in
    while !node <> nil && !i < limit && t.reqs.(!node).Request.last_worker <> worker do
      node := t.next.(!node);
      incr i
    done;
    if !i < limit then !node else nil

  let iter t ~f =
    let node = ref t.next.(nil) in
    while !node <> nil do
      f t.reqs.(!node);
      node := t.next.(!node)
    done
end

(* How many queue entries the locality policy may inspect; bounded so the
   dispatcher's pick stays O(1) like the real system's. *)
let locality_scan_limit = 8

(* Rank-ordered policies share one two-heap structure: [fresh] holds
   never-executed requests, [started] the preempted ones, each keyed by the
   policy's rank (lower = served sooner, in ns of equivalent remaining
   work). Keeping the heaps separate is what gives pop_not_started /
   has_not_started their O(1) answers for the stealing dispatcher. *)
type t =
  | List_queue of { kind : kind; q : Dlq.t }
  | Rank_queue of {
      kind : kind;
      fresh : Request.t Heap.t;
      started : Request.t Heap.t;
      fresh_key : Request.t -> int;
      started_key : Request.t -> int;
    }

(* Remaining work according to the (possibly noisy) estimate; clamped at 1
   so an underestimated request that outlives its estimate becomes
   highest-priority and runs to completion — the standard noisy-SRPT
   behaviour. With exact estimates this equals [Request.remaining_ns]
   (which is >= 1 for any queued request), so [Srpt_noisy {sigma = 0.}]
   is bit-identical to [Srpt]. *)
let estimated_remaining (r : Request.t) = max 1 (r.Request.estimate_ns - r.Request.done_ns)

let create = function
  | Fcfs -> List_queue { kind = Fcfs; q = Dlq.create () }
  | Locality_fcfs -> List_queue { kind = Locality_fcfs; q = Dlq.create () }
  | Srpt ->
    Rank_queue
      {
        kind = Srpt;
        fresh = Heap.create ();
        started = Heap.create ();
        fresh_key = (fun r -> r.Request.service_ns);
        started_key = Request.remaining_ns;
      }
  | (Srpt_noisy _ | Srpt_kv _) as kind ->
    Rank_queue
      {
        kind;
        fresh = Heap.create ();
        started = Heap.create ();
        fresh_key = (fun r -> r.Request.estimate_ns);
        started_key = estimated_remaining;
      }
  | Gittins table as kind ->
    let rank0 = Gittins.rank0_ns table in
    Rank_queue
      {
        kind;
        fresh = Heap.create ();
        started = Heap.create ();
        fresh_key = (fun _ -> rank0);
        started_key = (fun r -> Gittins.rank_ns table ~age_ns:r.Request.done_ns);
      }

let kind = function List_queue { kind; _ } | Rank_queue { kind; _ } -> kind

let length = function
  | List_queue { q; _ } -> q.Dlq.size
  | Rank_queue { fresh; started; _ } -> Heap.length fresh + Heap.length started

let is_empty t = length t = 0

let push_new t req =
  match t with
  | List_queue { q; _ } -> Dlq.push_tail q req
  | Rank_queue { fresh; fresh_key; _ } -> Heap.add fresh ~key:(fresh_key req) req

let push_preempted t req =
  match t with
  | List_queue { q; _ } -> Dlq.push_tail q req
  | Rank_queue { started; started_key; _ } -> Heap.add started ~key:(started_key req) req

let pop_unsafe t ~worker =
  match t with
  | List_queue { kind = Locality_fcfs; q } ->
    let node = Dlq.find_last_worker q ~limit:locality_scan_limit ~worker in
    if node = Dlq.nil then Dlq.pop_head q else Dlq.take q node
  | List_queue { q; _ } -> Dlq.pop_head q
  | Rank_queue { fresh; started; _ } ->
    (* Ties between the two heaps go to [fresh]. *)
    if
      Heap.is_empty started
      || ((not (Heap.is_empty fresh))
         && Heap.unsafe_min_key fresh <= Heap.unsafe_min_key started)
    then Heap.pop_unsafe fresh
    else Heap.pop_unsafe started

let pop t ~worker = if is_empty t then None else Some (pop_unsafe t ~worker)

let pop_not_started_unsafe t =
  match t with
  | List_queue { q; _ } -> Dlq.pop_fresh_head q
  | Rank_queue { fresh; _ } -> Heap.pop_unsafe fresh

let has_not_started t =
  match t with
  | List_queue { q; _ } -> q.Dlq.n_fresh > 0
  | Rank_queue { fresh; _ } -> not (Heap.is_empty fresh)

let pop_not_started t = if has_not_started t then Some (pop_not_started_unsafe t) else None

let iter t ~f =
  match t with
  | List_queue { q; _ } -> Dlq.iter q ~f
  | Rank_queue { fresh; started; _ } ->
    Heap.iter fresh ~f:(fun ~key:_ r -> f r);
    Heap.iter started ~f:(fun ~key:_ r -> f r)

(* ---- spec parsing ----------------------------------------------------- *)

let spec_syntax = "fcfs | srpt | srpt-noisy[:SIGMA] | srpt-kv | gittins | locality-fcfs"

(* Per-class empirical mean service times, sampled with a dedicated
   fixed-seed stream like {!Gittins.of_mix} (same caveat about stateful
   kvstore-backed generators: the table is built before the simulation
   streams split, so determinism is unaffected). Classes the sampler never
   hits fall back to the declared class mean. *)
let srpt_kv_samples = 4_096
let srpt_kv_seed = 0x51eb

let srpt_kv_of_mix (mix : Repro_workload.Mix.t) =
  let n = Array.length mix.Repro_workload.Mix.classes in
  let sums = Array.make n 0.0
  and counts = Array.make n 0 in
  let rng = Repro_engine.Rng.create ~seed:srpt_kv_seed in
  for _ = 1 to srpt_kv_samples do
    let p = Repro_workload.Mix.sample mix rng in
    sums.(p.Repro_workload.Mix.class_id) <-
      sums.(p.Repro_workload.Mix.class_id) +. float_of_int p.Repro_workload.Mix.service_ns;
    counts.(p.Repro_workload.Mix.class_id) <- counts.(p.Repro_workload.Mix.class_id) + 1
  done;
  let means_ns =
    Array.init n (fun i ->
        if counts.(i) > 0 then max 1 (int_of_float (sums.(i) /. float_of_int counts.(i)))
        else max 1 (int_of_float mix.Repro_workload.Mix.classes.(i).Repro_workload.Mix.mean_ns))
  in
  Srpt_kv { means_ns }

let of_spec spec ~mix =
  let fail () =
    Error (Printf.sprintf "unknown policy %S (expected %s)" spec spec_syntax)
  in
  match spec with
  | "fcfs" -> Ok Fcfs
  | "srpt" -> Ok Srpt
  | "srpt-noisy" -> Ok (Srpt_noisy { sigma = 1.0 })
  | "srpt-kv" -> Ok (srpt_kv_of_mix mix)
  | "gittins" -> Ok (Gittins (Gittins.of_mix mix))
  | "locality-fcfs" -> Ok Locality_fcfs
  | _ -> (
    match String.index_opt spec ':' with
    | Some i when String.sub spec 0 i = "srpt-noisy" -> (
      let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
      match float_of_string_opt arg with
      | Some sigma when Float.is_finite sigma && sigma >= 0.0 ->
        Ok (Srpt_noisy { sigma })
      | _ -> Error (Printf.sprintf "bad srpt-noisy sigma %S (need a float >= 0)" arg))
    | _ -> fail ())
