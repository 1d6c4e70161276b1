module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Costs = Repro_hw.Costs
module Mechanism = Repro_hw.Mechanism
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival

(* ------------------------------------------------------------------ *)
(* Events and dispatcher micro-operations                              *)
(* ------------------------------------------------------------------ *)

(* Dispatcher micro-operation kinds. An op is a kind plus the slots of the
   op ring ([ops] below) that kind reads:
   - [Op_ingress]: the request.
   - [Op_ingress_batch]: coalesced ingress. The dispatcher admits several
     queued arrivals in one pass, amortizing the per-request cost
     (Config.ingress_batch). The members live in
     [dispatcher.batch_buf.(0 .. batch_n - 1)]; at most one batch op is
     ever in flight.
   - [Op_completion]: the worker.
   - [Op_requeue]: the request and the worker it came from (-1 for the
     dispatcher's saved context).
   - [Op_preempt_signal]: the worker and, as its epoch, the worker's
     liveness mark when the quantum expired.
   - [Op_send] (SQ hand-off) and [Op_push] (JBSQ push): worker and request.
   - [Op_cancel]: the request, a balancer-issued revocation of a hedge
     duplicate. The leg is discarded wherever it currently sits (queued,
     saved, or running via the preemption mechanism), charging
     [cancel_ns] of dispatcher time. *)
type op =
  | Op_ingress
  | Op_ingress_batch
  | Op_completion
  | Op_requeue
  | Op_preempt_signal
  | Op_send
  | Op_push
  | Op_cancel

(* Per-instance events. The host simulation (the standalone driver below,
   or a {!Cluster}-style rack model) wraps these in its own event type via
   the [lift] injection, so several instances can interleave on one shared
   clock. An event names only its kind and worker: each instance lifts
   every (kind, worker) pair once at creation and schedules those values,
   so arming an event allocates nothing.

   Liveness lives in the event heap instead of the payload. Each worker,
   and the dispatcher's stolen slice, keeps a mark; invalidating its armed
   events sets the mark to [Sim.next_seq], and an event is live iff
   [Sim.current_seq] is at or past the mark. Events are always armed under
   the current mark and at most one of each kind is armed per mark, so
   this is exactly an epoch counter carried in the payload and compared on
   arrival. *)
type event =
  | Ev_disp_op_done
  | Ev_disp_slice_end
  | Ev_worker_begin of int
  | Ev_worker_complete of int
  | Ev_quantum of int
  | Ev_preempt_stop of int
  | Ev_yield_done of int

(* ------------------------------------------------------------------ *)
(* Mutable state                                                       *)
(* ------------------------------------------------------------------ *)

(* Absent requests are [Request.none], compared with [==]: an option field
   would box every request stored in it. *)
type worker = {
  wid : int;
  mutable live_from : int; (* liveness mark: older events are stale *)
  mutable cur : Request.t;
  mutable seg_start_ns : int; (* wall time the current segment began *)
  mutable seg_start_progress : int; (* progress when the segment began *)
  mutable completion_at : int; (* scheduled completion of the segment *)
  mutable stop_progress : int; (* progress at the resolved preemption point *)
  local : Local_queue.t; (* JBSQ waiting slots (depth - 1) *)
  mutable sq_waiting : bool; (* SQ: dispatcher knows this worker is free *)
  mutable outstanding_view : int; (* JBSQ: dispatcher's slot accounting *)
  mutable gap_open_ns : int; (* completion time with backlog present, or -1 *)
  mutable busy_from : int; (* segment busy-accounting anchor *)
}

(* Pending dispatcher ops as a struct-of-arrays ring: queuing an op writes
   one cell per slot instead of allocating a variant, which matters because
   every completion, requeue and preemption signal flows through here. Only
   the request slot holds pointers, so it is the only cell whose write pays
   the GC write barrier; popping leaves it in place (at most the ring's
   capacity of finished requests stays reachable until overwritten). The
   capacity is a power of two; [head] and [tail] are logical positions and
   the physical slot is [pos land (capacity - 1)]. *)
type ops = {
  mutable kinds : op array;
  mutable reqs : Request.t array;
  mutable wids : int array;
  mutable epochs : int array;
  mutable head : int;
  mutable tail : int;
}

let ops_create capacity =
  {
    kinds = Array.make capacity Op_completion;
    reqs = Array.make capacity Request.none;
    wids = Array.make capacity 0;
    epochs = Array.make capacity 0;
    head = 0;
    tail = 0;
  }

let ops_is_empty r = r.head = r.tail
let ops_slot r = r.head land (Array.length r.kinds - 1)

let ops_push r kind req wid epoch =
  if r.tail - r.head = Array.length r.kinds then begin
    let n = r.tail - r.head in
    let bigger = ops_create (2 * n) in
    for i = 0 to n - 1 do
      let j = (r.head + i) land (n - 1) in
      bigger.kinds.(i) <- r.kinds.(j);
      bigger.reqs.(i) <- r.reqs.(j);
      bigger.wids.(i) <- r.wids.(j);
      bigger.epochs.(i) <- r.epochs.(j)
    done;
    r.kinds <- bigger.kinds;
    r.reqs <- bigger.reqs;
    r.wids <- bigger.wids;
    r.epochs <- bigger.epochs;
    r.head <- 0;
    r.tail <- n
  end;
  let i = r.tail land (Array.length r.kinds - 1) in
  r.kinds.(i) <- kind;
  r.reqs.(i) <- req;
  r.wids.(i) <- wid;
  r.epochs.(i) <- epoch;
  r.tail <- r.tail + 1

(* The dispatcher runs ops strictly serially, so the running op is a set of
   plain [cur_*] fields, meaningful only while [busy]. The stolen slice is
   likewise inlined: [sreq] is [Request.none] when there is none. *)
type dispatcher = {
  ops : ops;
  mutable busy : bool;
  mutable op_started_ns : int;
  mutable cur_kind : op;
  mutable cur_req : Request.t;
  mutable cur_wid : int;
  mutable cur_epoch : int;
  mutable live_from : int; (* liveness mark of Ev_disp_slice_end *)
  mutable sreq : Request.t;
  mutable sstart : int;
  mutable sstop_progress : int;
  mutable saved : Request.t; (* §3.3 dedicated context buffer *)
  batch_buf : Request.t array; (* Op_ingress_batch members *)
  mutable batch_n : int;
}

type 'e t = {
  sim : 'e Sim.t;
  (* [lift] applied once to every event this instance can schedule *)
  lifted_op_done : 'e;
  lifted_slice_end : 'e;
  lifted_begin : 'e array; (* indexed by worker id, like the rest *)
  lifted_complete : 'e array;
  lifted_quantum : 'e array;
  lifted_stop : 'e array;
  lifted_yield : 'e array;
  config : Config.t;
  mech_rng : Rng.t;
  central : Policy.t;
  workers : worker array;
  disp : dispatcher;
  mutable resolved_progress : int; (* stop progress of the last [resolve_stop] hit *)
  metrics : Metrics.t;
  live : (int, Request.t) Hashtbl.t; (* in-flight requests, for censoring *)
  tracer : Tracing.t option;
  tracing : bool;
      (* [tracer <> None]; call sites test this before building a
         [Tracing.kind], so untraced runs never allocate the payload *)
  on_complete : (Request.t -> unit) option;
  on_cancelled : (Request.t -> unit) option;
      (* fired exactly once per revoked leg, when the instance actually
         discards it; the partial progress left in [done_ns] is the
         balancer's wasted-work meter *)
  (* dispatcher cost of each fixed-price op (ns), pre-scaled by [speed] *)
  ingress_ns : int;
  completion_op_ns : int;
  requeue_ns : int;
  signal_ns : int;
  send_ns : int;
  push_ns : int;
  cancel_ns : int;
  mutable finished : int; (* completions, all owners *)
  (* size-estimate noise: sigma of the log-normal multiplier applied once
     at arrival when the policy is Srpt_noisy; 0.0 = exact demand and no
     draws, so non-noisy configs consume identical RNG streams *)
  estimate_sigma : float;
  est_rng : Rng.t; (* split from mech_rng only when estimate_sigma > 0 *)
  estimate_means : int array;
      (* per-class mean estimates when the policy is Srpt_kv; [||]
         otherwise (no draws, no stream perturbation either way) *)
  adaptive : Config.adaptive option;
  class_ewma : float array; (* per-class EWMA of completed service (ns); [||] unless adaptive *)
  (* cached cost-model conversions (ns), pre-scaled by [speed] *)
  quantum_ns : int;
  cswitch_ns : int;
  receive_ns : int;
  local_pop_ns : int;
  notif_ns : int;
  worker_mult : float; (* (1 + cproc of the worker mechanism) x speed *)
  disp_mult : float; (* (1 + cproc of rdtsc instrumentation) x speed *)
  default_spacing_ns : float;
  speed : float; (* straggler multiplier: >1 = uniformly slower box *)
}

(* Straggler scaling: a slow instance pays proportionally more wall time
   for the same cycle budget, both in its dispatcher micro-ops and in
   application execution. [speed = 1.0] is the exact identity. *)
let scale_ns t n =
  if t.speed = 1.0 then n else int_of_float (ceil (float_of_int n *. t.speed))

let ns t cycles = scale_ns t (Costs.ns_of t.config.costs cycles)

let trace t ~request kind =
  match t.tracer with
  | None -> ()
  | Some tracer -> Tracing.record tracer ~time_ns:(Sim.now t.sim) ~request kind

(* Drop a revoked leg for good. Guarded on [live] membership so the
   cancellation callback fires exactly once no matter how many paths
   (queue pop, requeue, completion, explicit Op_cancel) race to discard
   the same request. *)
let discard_cancelled t (req : Request.t) =
  if Hashtbl.mem t.live req.Request.id then begin
    Hashtbl.remove t.live req.Request.id;
    match t.on_cancelled with None -> () | Some f -> f req
  end

(* ------------------------------------------------------------------ *)
(* Progress arithmetic                                                 *)
(* ------------------------------------------------------------------ *)

(* Progress (un-instrumented ns) a segment has accumulated by wall time
   [at], given its start anchors and instrumentation multiplier. *)
let progress_at ~seg_start_ns ~seg_start_progress ~mult ~service at =
  let wall = max 0 (at - seg_start_ns) in
  min service (seg_start_progress + int_of_float (float_of_int wall /. mult))

(* Wall time at which a segment reaches progress [p]. *)
let time_of_progress ~seg_start_ns ~seg_start_progress ~mult p =
  seg_start_ns + int_of_float (ceil (float_of_int (p - seg_start_progress) *. mult))

(* Resolve where a preemption wished for at wall time [candidate] actually
   stops the request: never inside a lock window (safety-first, §3.1), and
   under the Whole_request lock model never before the request completes
   (the Shinjuku prototype's whole-API-call approach). Returns -1 when the
   request will complete first; otherwise the stop time, with the progress
   reached there left in [t.resolved_progress] for the caller to keep. *)
let resolve_stop t (req : Request.t) ~seg_start_ns ~seg_start_progress ~mult ~completion_at
    ~candidate =
  match t.config.lock_model with
  | Config.Whole_request -> -1
  | Config.Fine_grained ->
    let p =
      progress_at ~seg_start_ns ~seg_start_progress ~mult ~service:req.Request.service_ns
        candidate
    in
    let p' = Request.defer_past_locks req p in
    if p' >= req.Request.service_ns then -1
    else begin
      let stop_time =
        if p' = p then max candidate (time_of_progress ~seg_start_ns ~seg_start_progress ~mult p)
        else time_of_progress ~seg_start_ns ~seg_start_progress ~mult p'
      in
      if stop_time >= completion_at then -1
      else begin
        t.resolved_progress <- p';
        stop_time
      end
    end

let probe_spacing t (req : Request.t) =
  if req.Request.probe_spacing_ns > 0.0 then req.Request.probe_spacing_ns
  else t.default_spacing_ns

(* Adaptive preemption quantum (LibPreemptible-style): the base quantum is
   shrunk by central-queue backlog — q * w / (w + backlog), so the quantum
   has halved once [backlog_window] requests queue — and capped per class
   at twice the class's observed mean service time, then clamped to the
   configured floor. With [adaptive_quantum = None] this is exactly the
   fixed [quantum_ns], preserving bit-identical behaviour. *)
let effective_quantum_ns t (req : Request.t) =
  match t.adaptive with
  | None -> t.quantum_ns
  | Some { Config.min_quantum_ns; backlog_window } ->
    let backlog = Policy.length t.central in
    let q =
      if backlog = 0 then t.quantum_ns
      else
        int_of_float
          (float_of_int t.quantum_ns
          *. float_of_int backlog_window
          /. float_of_int (backlog_window + backlog))
    in
    let c = req.Request.class_id in
    let q =
      if c >= 0 && c < Array.length t.class_ewma && t.class_ewma.(c) > 0.0 then
        min q (int_of_float (2.0 *. t.class_ewma.(c)))
      else q
    in
    max min_quantum_ns q

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let op_cost_ns t = function
  | Op_ingress -> t.ingress_ns
  | Op_ingress_batch ->
    ns t (Costs.ingress_batch_cost_cycles t.config.costs ~batch:t.disp.batch_n)
  | Op_completion -> t.completion_op_ns
  | Op_requeue -> t.requeue_ns
  | Op_preempt_signal -> t.signal_ns
  | Op_send -> t.send_ns
  | Op_push -> t.push_ns
  | Op_cancel -> t.cancel_ns

let is_jbsq t = match t.config.queue_model with Config.Jbsq _ -> true | Config.Single_queue -> false
let depth t = Config.jbsq_depth t.config

(* Invalidate every event armed so far for worker [w]. *)
let bump (w : worker) sim = w.live_from <- Sim.next_seq sim

(* Cancellation leaves ghost entries behind: a revoked leg may still sit in
   the central policy, a local queue, or the saved-context buffer. Rather
   than teaching every queue to delete by id, the pop paths below skip and
   discard cancelled entries lazily — with hedging off no request is ever
   cancelled and these reduce to the bare pops. Each returns
   [Request.none] when nothing live is left. *)
let rec pop_live t ~worker =
  if Policy.is_empty t.central then Request.none
  else begin
    let req = Policy.pop_unsafe t.central ~worker in
    if req.Request.cancelled then begin
      discard_cancelled t req;
      pop_live t ~worker
    end
    else req
  end

let rec pop_not_started_live t =
  if not (Policy.has_not_started t.central) then Request.none
  else begin
    let req = Policy.pop_not_started_unsafe t.central in
    if req.Request.cancelled then begin
      discard_cancelled t req;
      pop_not_started_live t
    end
    else req
  end

let rec local_pop_live t (w : worker) =
  if Local_queue.is_empty w.local then Request.none
  else begin
    let req = Local_queue.pop_unsafe w.local in
    if req.Request.cancelled then begin
      discard_cancelled t req;
      (* The slot this duplicate held in the dispatcher's JBSQ view must be
         credited back, exactly as a completion would. *)
      ops_push t.disp.ops Op_completion Request.none w.wid 0;
      local_pop_live t w
    end
    else req
  end

(* An index loop: [Array.for_all] allocates its inner closure per call, and
   this runs whenever the dispatcher goes idle. *)
let all_workers_busy_view t =
  let workers = t.workers and jbsq = is_jbsq t in
  let i = ref 0 in
  while
    !i < Array.length workers
    &&
    let w = workers.(!i) in
    if jbsq then w.outstanding_view >= 1 else not w.sq_waiting
  do
    incr i
  done;
  !i = Array.length workers

(* Move consecutive pending ingress ops from the op ring into [buf],
   starting at slot [n]; stops at the batch limit or the first non-ingress
   op. Returns the filled length. *)
let rec collect_batch t buf n limit =
  let r = t.disp.ops in
  if n >= limit || ops_is_empty r || r.kinds.(ops_slot r) <> Op_ingress then n
  else begin
    buf.(n) <- r.reqs.(ops_slot r);
    r.head <- r.head + 1;
    collect_batch t buf (n + 1) limit
  end

let start_op t kind req wid epoch =
  let d = t.disp in
  d.busy <- true;
  d.cur_kind <- kind;
  d.cur_req <- req;
  d.cur_wid <- wid;
  d.cur_epoch <- epoch;
  d.op_started_ns <- Sim.now t.sim;
  Sim.schedule_after t.sim ~delay:(op_cost_ns t kind) t.lifted_op_done

(* Start the drain action the dispatcher would perform next, if any: hand
   a queued request to a free worker (SQ) or push to the shortest
   per-worker queue with a free slot (JBSQ). Returns whether an op was
   started. Plain index loops: this runs after every dispatcher op. *)
let start_drain_op t =
  if Policy.is_empty t.central then false
  else if is_jbsq t then begin
    let workers = t.workers in
    let n = Array.length workers in
    let cap = depth t in
    let best = ref (-1) in
    let best_view = ref max_int in
    for i = 0 to n - 1 do
      let view = workers.(i).outstanding_view in
      if view < cap && view < !best_view then begin
        best := i;
        best_view := view
      end
    done;
    if !best < 0 then false
    else begin
      let best = !best in
      let req = pop_live t ~worker:best in
      if req == Request.none then false
      else begin
        workers.(best).outstanding_view <- workers.(best).outstanding_view + 1;
        start_op t Op_push req best 0;
        true
      end
    end
  end
  else begin
    let workers = t.workers in
    let n = Array.length workers in
    let waiting = ref (-1) in
    let i = ref 0 in
    while !waiting < 0 && !i < n do
      if workers.(!i).sq_waiting then waiting := !i;
      incr i
    done;
    if !waiting < 0 then false
    else begin
      let waiting = !waiting in
      let req = pop_live t ~worker:waiting in
      if req == Request.none then false
      else begin
        workers.(waiting).sq_waiting <- false;
        start_op t Op_send req waiting 0;
        true
      end
    end
  end

let rec disp_kick t =
  let d = t.disp in
  if not d.busy then begin
    let r = d.ops in
    if ops_is_empty r then begin
      if (not (start_drain_op t)) && t.config.dispatcher_steals then try_steal t
    end
    else begin
      let i = ops_slot r in
      let kind = r.kinds.(i) and req = r.reqs.(i) and wid = r.wids.(i)
      and epoch = r.epochs.(i) in
      r.head <- r.head + 1;
      if kind = Op_ingress && t.config.ingress_batch > 1 then begin
        (* Coalesce consecutive pending arrivals into one admission op. *)
        d.batch_buf.(0) <- req;
        d.batch_n <- collect_batch t d.batch_buf 1 t.config.ingress_batch;
        start_op t Op_ingress_batch Request.none (-1) 0
      end
      else start_op t kind req wid epoch
    end
  end

(* §3.3: when idle, the dispatcher resumes its saved context, or steals the
   first non-started request once every worker is busy. It runs the request
   under rdtsc instrumentation and self-preempts at the first probe past
   the quantum. *)
and try_steal t =
  let d = t.disp in
  let saved = d.saved in
  if saved != Request.none && not (all_workers_busy_view t) then begin
    (* Stealing (and holding a stolen context) is an all-workers-busy
       fallback; with a worker free, hand the saved request back so the
       worker finishes it instead of it waiting for dispatcher idle time. *)
    d.saved <- Request.none;
    ops_push d.ops Op_requeue saved (-1) 0;
    disp_kick t
  end
  else begin
    let req =
      if saved != Request.none then begin
        d.saved <- Request.none;
        saved
      end
      else if all_workers_busy_view t then pop_not_started_live t
      else Request.none
    in
    if req == Request.none then ()
    else if req.Request.cancelled then begin
      (* Only the saved-context path can surface a cancelled leg here (the
         queue pop filters them); drop it and look again. *)
      discard_cancelled t req;
      try_steal t
    end
    else begin
      let now = Sim.now t.sim in
      if t.tracing then begin
        if not req.Request.dispatcher_owned then trace t ~request:req.Request.id Tracing.Stolen;
        if req.Request.started then
          trace t ~request:req.Request.id
            (Tracing.Resumed { worker = -1; progress_ns = req.Request.done_ns })
        else trace t ~request:req.Request.id (Tracing.Started { worker = -1 })
      end;
      req.Request.started <- true;
      req.Request.dispatcher_owned <- true;
      let remaining_wall =
        int_of_float (ceil (float_of_int (Request.remaining_ns req) *. t.disp_mult))
      in
      let lateness =
        Mechanism.yield_lateness_ns Mechanism.Rdtsc_probe ~costs:t.config.costs ~rng:t.mech_rng
          ~probe_spacing_ns:(probe_spacing t req)
      in
      let stop =
        resolve_stop t req ~seg_start_ns:now ~seg_start_progress:req.Request.done_ns
          ~mult:t.disp_mult
          ~completion_at:(now + remaining_wall)
          ~candidate:(now + effective_quantum_ns t req + lateness)
      in
      let send =
        if stop < 0 then begin
          d.sstop_progress <- req.Request.service_ns;
          now + remaining_wall
        end
        else begin
          d.sstop_progress <- t.resolved_progress;
          stop
        end
      in
      d.busy <- true;
      d.live_from <- Sim.next_seq t.sim;
      d.sreq <- req;
      d.sstart <- now;
      Metrics.add_steal_slice t.metrics;
      Sim.schedule_at t.sim ~time:send t.lifted_slice_end
    end
  end

let complete_request t (req : Request.t) ~worker =
  if req.Request.cancelled then begin
    (* The revocation landed too late to stop the leg: its full service ran.
       All of it is waste, none of it is a completion. *)
    req.Request.done_ns <- req.Request.service_ns;
    discard_cancelled t req
  end
  else begin
  if t.tracing then trace t ~request:req.Request.id (Tracing.Completed { worker });
  req.Request.completion_ns <- Sim.now t.sim;
  req.Request.done_ns <- req.Request.service_ns;
  (let c = req.Request.class_id in
   if c >= 0 && c < Array.length t.class_ewma then begin
     (* per-class service EWMA feeding the adaptive quantum cap *)
     let s = float_of_int req.Request.service_ns in
     let prev = t.class_ewma.(c) in
     t.class_ewma.(c) <- (if prev = 0.0 then s else prev +. (0.05 *. (s -. prev)))
   end);
  Hashtbl.remove t.live req.Request.id;
  Metrics.record_completion t.metrics req;
  t.finished <- t.finished + 1;
  (match t.on_complete with None -> () | Some f -> f req)
  end

let on_slice_end t =
  let d = t.disp in
  let sreq = d.sreq in
  if sreq != Request.none then begin
    let now = Sim.now t.sim in
    let sstop_progress = d.sstop_progress in
    Metrics.add_dispatcher_app t.metrics (now - d.sstart);
    if sstop_progress >= sreq.Request.service_ns then complete_request t sreq ~worker:(-1)
    else if sreq.Request.cancelled then begin
      sreq.Request.done_ns <- sstop_progress;
      discard_cancelled t sreq
    end
    else begin
      if t.tracing then
        trace t ~request:sreq.Request.id
          (Tracing.Preempted { worker = -1; progress_ns = sstop_progress });
      sreq.Request.done_ns <- sstop_progress;
      sreq.Request.preemptions <- sreq.Request.preemptions + 1;
      d.saved <- sreq
    end;
    d.sreq <- Request.none;
    d.busy <- false;
    disp_kick t
  end

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* Hand [req] to worker [w], which is idle; [delay] models the receive path
   (coherence miss on the request line, context switch, local pop...). *)
let deliver t (w : worker) (req : Request.t) ~delay =
  if t.tracing then trace t ~request:req.Request.id (Tracing.Delivered { worker = w.wid });
  w.cur <- req;
  bump w t.sim;
  Sim.schedule_after t.sim ~delay t.lifted_begin.(w.wid)

let begin_exec t (w : worker) =
  let req = w.cur in
  if req != Request.none then begin
    let now = Sim.now t.sim in
    if t.tracing then begin
      if req.Request.started then
        trace t ~request:req.Request.id
          (Tracing.Resumed { worker = w.wid; progress_ns = req.Request.done_ns })
      else trace t ~request:req.Request.id (Tracing.Started { worker = w.wid })
    end;
    req.Request.started <- true;
    req.Request.last_worker <- w.wid;
    w.seg_start_ns <- now;
    w.seg_start_progress <- req.Request.done_ns;
    w.busy_from <- now;
    let remaining = Request.remaining_ns req in
    w.completion_at <- now + int_of_float (ceil (float_of_int remaining *. t.worker_mult));
    Sim.schedule_at t.sim ~time:w.completion_at t.lifted_complete.(w.wid);
    if Mechanism.preemptive t.config.mechanism then
      Sim.schedule_after t.sim ~delay:(effective_quantum_ns t req) t.lifted_quantum.(w.wid);
    if w.gap_open_ns >= 0 then begin
      (* cnext measurement: idle time excluding the context switch itself *)
      Metrics.record_idle_gap t.metrics (now - w.gap_open_ns - t.cswitch_ns);
      w.gap_open_ns <- -1
    end
  end

(* After finishing or yielding, fetch the next request: pop the core-local
   queue (JBSQ) or wait for the dispatcher (SQ). [switch_paid] tells whether
   the yield path already charged the context switch. *)
let fetch_next t (w : worker) ~switch_paid ~open_gap =
  let req = local_pop_live t w in
  if req != Request.none then begin
    (* Work was waiting core-locally: the cnext gap is just the local pop. *)
    if open_gap then w.gap_open_ns <- Sim.now t.sim - if switch_paid then t.cswitch_ns else 0;
    let delay = t.local_pop_ns + if switch_paid then 0 else t.cswitch_ns in
    deliver t w req ~delay
  end
  else begin
    w.cur <- Request.none;
    bump w t.sim;
    (* The cnext gap only opens when work was genuinely waiting for this
       worker: in SQ mode any queued request is (the head of) its work; in
       JBSQ mode requests in flight to other workers' queues are not. *)
    if open_gap && (not (is_jbsq t)) && not (Policy.is_empty t.central) then
      w.gap_open_ns <- Sim.now t.sim
    else w.gap_open_ns <- -1
  end

let on_worker_complete t (w : worker) =
  let req = w.cur in
  if req != Request.none then begin
    let now = Sim.now t.sim in
    Metrics.add_worker_busy t.metrics (now - w.busy_from);
    complete_request t req ~worker:w.wid;
    ops_push t.disp.ops Op_completion Request.none w.wid 0;
    fetch_next t w ~switch_paid:false ~open_gap:true;
    disp_kick t
  end

(* The worker stops at [stop_time] (a [resolve_stop] result, -1 = never)
   with the progress [resolve_stop] resolved. Re-arming invalidates the
   pending completion and any earlier stop. *)
let arm_stop t (w : worker) stop_time =
  if stop_time >= 0 then begin
    bump w t.sim;
    w.stop_progress <- t.resolved_progress;
    Sim.schedule_at t.sim ~time:stop_time t.lifted_stop.(w.wid)
  end

let on_quantum t (w : worker) =
  let req = w.cur in
  if req != Request.none then begin
    let now = Sim.now t.sim in
    if w.completion_at > now then begin
      match t.config.mechanism with
      | Mechanism.No_preempt -> ()
      | Mechanism.Rdtsc_probe ->
        (* Self-preemption: the worker notices the elapsed quantum at its
           next rdtsc probe; no dispatcher involvement. *)
        let lateness =
          Mechanism.yield_lateness_ns Mechanism.Rdtsc_probe ~costs:t.config.costs
            ~rng:t.mech_rng ~probe_spacing_ns:(probe_spacing t req)
        in
        arm_stop t w
          (resolve_stop t req ~seg_start_ns:w.seg_start_ns
             ~seg_start_progress:w.seg_start_progress ~mult:t.worker_mult
             ~completion_at:w.completion_at ~candidate:(now + lateness))
      | Mechanism.Ipi | Mechanism.Linux_ipi | Mechanism.Uipi | Mechanism.Cache_line
      | Mechanism.Model_lateness _ ->
        (* The dispatcher must notice the elapsed quantum and signal; its
           busyness delays the signal (§3.3). *)
        ops_push t.disp.ops Op_preempt_signal Request.none w.wid w.live_from;
        disp_kick t
    end
  end

(* Dispatcher has written the preemption flag / sent the interrupt at the
   current instant; decide when the worker actually stops. [mark] is the
   worker's liveness mark when the signal was raised: a signal raised
   under an older mark targets a segment that has already ended. *)
let handle_preempt_signal t ~worker ~mark =
  let w = t.workers.(worker) in
  let req = w.cur in
  if mark = w.live_from && req != Request.none then begin
    let now = Sim.now t.sim in
    let lateness =
      Mechanism.yield_lateness_ns t.config.mechanism ~costs:t.config.costs ~rng:t.mech_rng
        ~probe_spacing_ns:(probe_spacing t req)
    in
    arm_stop t w
      (resolve_stop t req ~seg_start_ns:w.seg_start_ns ~seg_start_progress:w.seg_start_progress
         ~mult:t.worker_mult ~completion_at:w.completion_at ~candidate:(now + lateness))
  end

let on_preempt_stop t (w : worker) =
  let req = w.cur in
  if req != Request.none then begin
    let now = Sim.now t.sim in
    if t.tracing then
      trace t ~request:req.Request.id
        (Tracing.Preempted { worker = w.wid; progress_ns = w.stop_progress });
    req.Request.done_ns <- w.stop_progress;
    req.Request.preemptions <- req.Request.preemptions + 1;
    Metrics.add_preemption t.metrics;
    Metrics.add_worker_busy t.metrics (now - w.busy_from);
    w.busy_from <- now;
    (* The segment is over; mark it so (Op_cancel uses [completion_at > now]
       as "actually executing" — re-signalling during the yield hand-off
       would invalidate the pending Ev_yield_done and wedge the worker). *)
    w.completion_at <- -1;
    (* Receive the notification, save the context, switch out. *)
    Sim.schedule_after t.sim ~delay:(t.notif_ns + t.cswitch_ns) t.lifted_yield.(w.wid)
  end

let on_yield_done t (w : worker) =
  let req = w.cur in
  if req != Request.none then begin
    Metrics.add_worker_busy t.metrics (Sim.now t.sim - w.busy_from);
    ops_push t.disp.ops Op_requeue req w.wid 0;
    fetch_next t w ~switch_paid:true ~open_gap:false;
    disp_kick t
  end

(* ------------------------------------------------------------------ *)
(* Dispatcher op completion                                            *)
(* ------------------------------------------------------------------ *)

(* A JBSQ slot or the SQ hand-off of worker [wid] is free again. *)
let credit_worker t wid =
  let w = t.workers.(wid) in
  if is_jbsq t then w.outstanding_view <- max 0 (w.outstanding_view - 1)
  else w.sq_waiting <- true

let on_disp_op_done t =
  let d = t.disp in
  let now = Sim.now t.sim in
  let op_ns = now - d.op_started_ns in
  Metrics.add_dispatcher_busy t.metrics op_ns;
  (* The [cur_*] fields keep the finished op; they are only read while
     [busy], which is cleared here. *)
  let req = d.cur_req and worker = d.cur_wid in
  d.busy <- false;
  (match d.cur_kind with
  | Op_ingress ->
    if req.Request.cancelled then discard_cancelled t req
    else begin
      Policy.push_new t.central req;
      if t.tracing then
        trace t ~request:req.Request.id
          (Tracing.Admitted { central_depth = Policy.length t.central; op_ns })
    end
  | Op_ingress_batch ->
    (* Each batch member is charged its amortized share of the op latency. *)
    let n = d.batch_n in
    let share = op_ns / max 1 n in
    for i = 0 to n - 1 do
      let r = d.batch_buf.(i) in
      d.batch_buf.(i) <- Request.none;
      if r.Request.cancelled then discard_cancelled t r
      else begin
        Policy.push_new t.central r;
        if t.tracing then
          trace t ~request:r.Request.id
            (Tracing.Admitted { central_depth = Policy.length t.central; op_ns = share })
      end
    done;
    d.batch_n <- 0
  | Op_completion -> credit_worker t worker
  | Op_requeue ->
    if req.Request.cancelled then discard_cancelled t req
    else begin
      Policy.push_preempted t.central req;
      if t.tracing then
        trace t ~request:req.Request.id
          (Tracing.Requeued { queue_depth = Policy.length t.central })
    end;
    if worker >= 0 then credit_worker t worker
  | Op_preempt_signal -> handle_preempt_signal t ~worker ~mark:d.cur_epoch
  | Op_send ->
    let w = t.workers.(worker) in
    if req.Request.cancelled then begin
      (* Revoked while the hand-off op ran: the worker stays free. *)
      w.sq_waiting <- true;
      discard_cancelled t req
    end
    else begin
      if t.tracing then
        trace t ~request:req.Request.id
          (Tracing.Dispatched
             { worker; central_depth = Policy.length t.central; local_depth = 0; op_ns });
      deliver t w req ~delay:(t.receive_ns + t.cswitch_ns)
    end
  | Op_push ->
    let w = t.workers.(worker) in
    if req.Request.cancelled then begin
      w.outstanding_view <- max 0 (w.outstanding_view - 1);
      discard_cancelled t req
    end
    else begin
      let direct = w.cur == Request.none in
      if t.tracing then begin
        let local_depth = if direct then 0 else Local_queue.length w.local + 1 in
        trace t ~request:req.Request.id
          (Tracing.Dispatched
             { worker; central_depth = Policy.length t.central; local_depth; op_ns })
      end;
      if direct then deliver t w req ~delay:(t.receive_ns + t.cswitch_ns)
      else Local_queue.push w.local req
    end
  | Op_cancel ->
    if Hashtbl.mem t.live req.Request.id then begin
      let workers = t.workers in
      let running = ref (-1) and i = ref 0 in
      while !running < 0 && !i < Array.length workers do
        if workers.(!i).cur == req then running := !i;
        incr i
      done;
      if !running >= 0 then begin
        let w = workers.(!running) in
        (* Revoke an executing leg through the normal preemption path —
           this is exactly why cancellation is cheap under Concord-style
           probes. Only when a segment is genuinely executing
           ([completion_at] in the future); during a delivery or yield
           hand-off the leg is discarded when it next surfaces (requeue,
           queue pop, or completion). Non-preemptive mechanisms cannot
           revoke a running request at all: it runs out and is discarded
           at completion. *)
        if Mechanism.preemptive t.config.mechanism && w.completion_at > Sim.now t.sim then
          handle_preempt_signal t ~worker:!running ~mark:w.live_from
      end
      else if d.sreq != req then begin
        (* (A leg running as the stolen slice is discarded at the slice end.) *)
        if d.saved == req then d.saved <- Request.none;
        (* Still queued somewhere (or in flight between ops): discard
           now; any ghost entry left in a queue is skipped by the
           cancellation-aware pops. *)
        discard_cancelled t req
      end
    end);
  disp_kick t

(* ------------------------------------------------------------------ *)
(* Instance life cycle                                                 *)
(* ------------------------------------------------------------------ *)

let create_instance ~sim ~lift ~config ~warmup_before ~n_classes ~rng
    ?(speed_factor = 1.0) ?cancel_cost_cycles ?tracer ?on_complete ?on_cancelled () =
  Config.validate config;
  if speed_factor <= 0.0 then
    invalid_arg "Server.Instance.create: speed_factor must be positive";
  (match cancel_cost_cycles with
  | Some c when c < 0 -> invalid_arg "Server.Instance.create: cancel_cost_cycles must be >= 0"
  | _ -> ());
  let costs = config.Config.costs in
  let scale n =
    if speed_factor = 1.0 then n else int_of_float (ceil (float_of_int n *. speed_factor))
  in
  let ns cycles = scale (Costs.ns_of costs cycles) in
  let estimate_sigma =
    match config.Config.policy with
    | Policy.Srpt_noisy { sigma } -> sigma
    | Policy.Fcfs | Policy.Srpt | Policy.Srpt_kv _ | Policy.Gittins _ | Policy.Locality_fcfs ->
      0.0
  in
  let estimate_means =
    match config.Config.policy with
    | Policy.Srpt_kv { means_ns } -> means_ns
    | Policy.Fcfs | Policy.Srpt | Policy.Srpt_noisy _ | Policy.Gittins _ | Policy.Locality_fcfs
      ->
      [||]
  in
  (* Estimates get their own stream, split off only when the policy
     actually draws them, so every other configuration's mech_rng stream is
     untouched (bit-identity with the pre-estimate code, and sigma = 0 is
     exactly Srpt). *)
  let est_rng = if estimate_sigma > 0.0 then Rng.split rng else rng in
  let n_workers = config.Config.n_workers in
  let lifted ev = Array.init n_workers (fun w -> lift (ev w)) in
  {
    sim;
    lifted_op_done = lift Ev_disp_op_done;
    lifted_slice_end = lift Ev_disp_slice_end;
    lifted_begin = lifted (fun w -> Ev_worker_begin w);
    lifted_complete = lifted (fun w -> Ev_worker_complete w);
    lifted_quantum = lifted (fun w -> Ev_quantum w);
    lifted_stop = lifted (fun w -> Ev_preempt_stop w);
    lifted_yield = lifted (fun w -> Ev_yield_done w);
    config;
    mech_rng = rng;
    estimate_sigma;
    est_rng;
    estimate_means;
    adaptive = config.Config.adaptive_quantum;
    class_ewma =
      (match config.Config.adaptive_quantum with
      | Some _ -> Array.make (max 1 n_classes) 0.0
      | None -> [||]);
    central = Policy.create config.Config.policy;
    workers =
      Array.init n_workers (fun wid ->
          {
            wid;
            live_from = 0;
            cur = Request.none;
            seg_start_ns = 0;
            seg_start_progress = 0;
            completion_at = 0;
            stop_progress = 0;
            local = Local_queue.create ~capacity:(Config.jbsq_depth config - 1);
            sq_waiting = true;
            outstanding_view = 0;
            gap_open_ns = -1;
            busy_from = 0;
          });
    disp =
      {
        ops = ops_create 64;
        busy = false;
        op_started_ns = 0;
        cur_kind = Op_completion;
        cur_req = Request.none;
        cur_wid = -1;
        cur_epoch = 0;
        live_from = 0;
        sreq = Request.none;
        sstart = 0;
        sstop_progress = 0;
        saved = Request.none;
        batch_buf =
          Array.make (if config.Config.ingress_batch > 1 then config.Config.ingress_batch else 0)
            Request.none;
        batch_n = 0;
      };
    resolved_progress = 0;
    metrics = Metrics.create ~warmup_before ~n_classes;
    live = Hashtbl.create 1024;
    tracer;
    tracing = tracer <> None;
    on_complete;
    on_cancelled;
    ingress_ns = ns costs.Costs.disp_ingress_cycles;
    completion_op_ns = ns (costs.Costs.disp_completion_cycles + costs.Costs.flag_propagation_cycles);
    requeue_ns = ns costs.Costs.disp_requeue_cycles;
    signal_ns =
      ns
        (if Mechanism.is_precise config.Config.mechanism then costs.Costs.disp_ipi_send_cycles
         else costs.Costs.disp_flag_write_cycles);
    send_ns = ns costs.Costs.disp_send_cycles;
    push_ns = ns (costs.Costs.disp_send_cycles + costs.Costs.disp_jbsq_pick_cycles);
    (* Default: killing a queued duplicate costs what a requeue costs — one
       dispatcher queue operation. *)
    cancel_ns =
      ns
        (match cancel_cost_cycles with
        | Some c -> c
        | None -> costs.Costs.disp_requeue_cycles);
    finished = 0;
    quantum_ns = config.Config.quantum_ns;
    cswitch_ns = ns costs.Costs.context_switch_cycles;
    receive_ns = ns costs.Costs.worker_receive_cycles;
    local_pop_ns = ns costs.Costs.local_pop_cycles;
    notif_ns = ns (Mechanism.notif_cost_cycles costs config.Config.mechanism);
    worker_mult = (1.0 +. Mechanism.proc_overhead costs config.Config.mechanism) *. speed_factor;
    disp_mult = (1.0 +. costs.Costs.rdtsc_proc_overhead) *. speed_factor;
    default_spacing_ns = costs.Costs.probe_spacing_ns;
    speed = speed_factor;
  }

(* Hand an externally created request to this instance's ingress path, as
   if it had just landed in the NIC queue. *)
let inject t (req : Request.t) =
  (* The size estimate a noisy-SRPT scheduler would get from a predictor:
     drawn once at arrival, multiplicatively log-normal around the true
     size (median-unbiased), and never refined afterwards. *)
  if t.estimate_sigma > 0.0 then
    req.Request.estimate_ns <-
      max 1
        (int_of_float
           (Float.round
              (float_of_int req.Request.service_ns
              *. Rng.lognormal t.est_rng ~mu:0.0 ~sigma:t.estimate_sigma)));
  (* The opcode-level prediction (srpt-kv): every request of a class gets
     that class's empirical mean as its size estimate. Out-of-range class
     ids (e.g. the Raft tier's consensus mini-requests) keep their exact
     demand. *)
  if
    Array.length t.estimate_means > 0
    && req.Request.class_id >= 0
    && req.Request.class_id < Array.length t.estimate_means
  then req.Request.estimate_ns <- t.estimate_means.(req.Request.class_id);
  Hashtbl.replace t.live req.Request.id req;
  if t.tracing then
    trace t ~request:req.Request.id (Tracing.Arrived { service_ns = req.Request.service_ns });
  ops_push t.disp.ops Op_ingress req (-1) 0;
  disp_kick t

let handle t ev =
  let seq = Sim.current_seq t.sim in
  match ev with
  | Ev_disp_op_done -> on_disp_op_done t
  | Ev_disp_slice_end -> if seq >= t.disp.live_from then on_slice_end t
  | Ev_worker_begin w ->
    let wk = t.workers.(w) in
    if seq >= wk.live_from then begin_exec t wk
  | Ev_worker_complete w ->
    let wk = t.workers.(w) in
    if seq >= wk.live_from then on_worker_complete t wk
  | Ev_quantum w ->
    let wk = t.workers.(w) in
    if seq >= wk.live_from then on_quantum t wk
  | Ev_preempt_stop w ->
    let wk = t.workers.(w) in
    if seq >= wk.live_from then on_preempt_stop t wk
  | Ev_yield_done w ->
    let wk = t.workers.(w) in
    if seq >= wk.live_from then on_yield_done t wk

let censor_all ?also t ~now_ns =
  (Hashtbl.iter
     (fun _ req ->
       (* Revoked hedge legs are not part of the served population: their
          arrival is accounted by the winning leg (or by the primary's own
          censoring), so counting them here would double-book it. *)
       if not req.Request.cancelled then begin
         Metrics.record_censored t.metrics req ~now_ns;
         match also with None -> () | Some f -> f req
       end)
     t.live)
  [@lint.deterministic
    "hash order is stable for a fixed insertion history (non-randomized Hashtbl); \
     censored-request accounting is pinned by the golden tests"]

(* Balancer-issued revocation: queue the cancel through the dispatcher so
   it pays [cancel_ns] like any other op. Dropped silently when the leg is
   no longer live here (already completed, discarded, or surrendered). *)
let cancel t (req : Request.t) =
  if Hashtbl.mem t.live req.Request.id then begin
    ops_push t.disp.ops Op_cancel req (-1) 0;
    disp_kick t
  end

(* Rack-level work stealing: give up one not-yet-started request so an idle
   peer can run it. Only fresh (never-run, non-cancelled) requests are
   surrendered — migrating partial state across servers is not free in any
   real rack, and the thief re-injects the request as a new arrival. *)
let surrender t =
  let req = pop_not_started_live t in
  if req == Request.none then None
  else begin
    Hashtbl.remove t.live req.Request.id;
    Some req
  end

module Instance = struct
  type nonrec 'e t = 'e t

  let create = create_instance
  let inject = inject
  let handle = handle
  let cancel = cancel
  let surrender = surrender
  let censor_all = censor_all
  let metrics t = t.metrics
  let inflight t = Hashtbl.length t.live
  let completed t = t.finished
  let n_workers t = t.config.Config.n_workers
end

(* ------------------------------------------------------------------ *)
(* Standalone run loop: one instance, its own clock and open-loop client *)
(* ------------------------------------------------------------------ *)

type run_event = Rv_arrival | Rv_end | Rv_inst of event

let run_detailed ~config ~mix ~arrival ~n_requests ?(warmup_frac = 0.1)
    ?(drain_cap_ns = 400_000_000) ?(seed = 42) ?tracer ?events_out () =
  Config.validate config;
  if n_requests < 1 then invalid_arg "Server.run: need at least one request";
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let mech_rng = Rng.split master in
  (* In-flight bound: a few timer/completion events per worker, one
     dispatcher op, one pending arrival. Pre-sizing skips heap doubling. *)
  let sim = Sim.create ~capacity:((4 * config.Config.n_workers) + 16) () in
  let finished = ref 0 in
  let inst =
    create_instance ~sim
      ~lift:(fun e -> Rv_inst e)
      ~config
      ~warmup_before:(int_of_float (warmup_frac *. float_of_int n_requests))
      ~n_classes:(Array.length mix.Mix.classes)
      ~rng:mech_rng ?tracer
      ~on_complete:(fun _ ->
        incr finished;
        if !finished >= n_requests then Sim.stop sim)
      ()
  in
  let arrived = ref 0 in
  let handler _ = function
    | Rv_arrival ->
      let now = Sim.now sim in
      let profile = Mix.sample mix service_rng in
      let req = Request.create ~id:!arrived ~arrival_ns:now ~profile in
      incr arrived;
      if !arrived < n_requests then begin
        let gap = Arrival.next_gap_ns arrival arrival_rng ~index:(!arrived - 1) in
        Sim.schedule_after sim ~delay:gap Rv_arrival
      end
      else Sim.schedule_after sim ~delay:drain_cap_ns Rv_end;
      inject inst req
    | Rv_end ->
      censor_all inst ~now_ns:(Sim.now sim);
      Sim.stop sim
    | Rv_inst e -> handle inst e
  in
  Sim.schedule_at sim ~time:0 Rv_arrival;
  Sim.run sim ~handler ();
  (match events_out with Some r -> r := Sim.events_processed sim | None -> ());
  let span_ns = max 1 (Sim.now sim) in
  let summary =
    Metrics.summarize inst.metrics
      ~offered_rps:(Arrival.rate_rps arrival)
      ~span_ns ~n_workers:config.Config.n_workers
      ~class_names:(Array.map (fun (c : Mix.class_def) -> c.name) mix.Mix.classes)
  in
  (summary, Metrics.slowdown_samples inst.metrics)

let run ~config ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer () =
  fst
    (run_detailed ~config ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
       ())
