(* The standalone server run loop, re-hosted from public calls so that each
   call into a library layer can be timed. It follows
   [Repro_runtime.Server.run_detailed] step for step: the same [Rng.split]
   order, the same arrival / end-of-run / instance events, the same
   warm-up cutoff and drain cap, and the same [Metrics.summarize] call, so
   its summary must be identical to the library's. The benchmark's own tests
   hold it to that. *)

module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Request = Repro_runtime.Request
module Instance = Repro_runtime.Server.Instance
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival

(* Span names, indexed by the constants below. *)
let names =
  [|
    "loop.run";
    "engine.run";
    "loop.arrival";
    "loop.end";
    "workload.sample";
    "request.create";
    "workload.gap";
    "runtime.inject";
    "runtime.handle";
    "runtime.censor_all";
    "runtime.summarize";
  |]

let s_run = 0
let s_engine = 1
let s_arrival = 2
let s_end = 3
let s_sample = 4
let s_create = 5
let s_gap = 6
let s_inject = 7
let s_handle = 8
let s_censor = 9
let s_summarize = 10

(* What one re-hosted run records besides its spans: [Mix.sample] time
   bucketed by the class it returned, and the event-heap depth
   ([Sim.pending]) seen at each handler entry. *)
type probe = {
  spans : Span.t;
  class_calls : int array;
  class_ns : int array;
  depth_hist : int array;  (** the last bucket also counts every deeper sample *)
}

let create_probe ~n_classes ~log_cap =
  {
    spans = Span.create ~names ~log_cap;
    class_calls = Array.make n_classes 0;
    class_ns = Array.make n_classes 0;
    depth_hist = Array.make 4096 0;
  }

type ev = Arrival | End | Inst of Repro_runtime.Server.event

let warmup_frac = 0.1
let drain_cap_ns = 400_000_000

(* [observe] runs after every handler call; the model pass uses it to drain
   the tracer ring before it wraps. *)
let run ~probe ?tracer ?(observe = ignore) ~config ~mix ~arrival ~n_requests ~seed () =
  let sp = probe.spans in
  Span.enter sp s_run ~req:(-1);
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let mech_rng = Rng.split master in
  let n_workers = config.Config.n_workers in
  let sim = Sim.create ~capacity:((4 * n_workers) + 16) () in
  let finished = ref 0 in
  let inst =
    Instance.create ~sim
      ~lift:(fun e -> Inst e)
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
  let last_bucket = Array.length probe.depth_hist - 1 in
  let handler _ ev =
    let depth = min (Sim.pending sim) last_bucket in
    probe.depth_hist.(depth) <- probe.depth_hist.(depth) + 1;
    (match ev with
    | Inst e ->
      Span.enter sp s_handle ~req:(-1);
      Instance.handle inst e;
      Span.leave sp
    | Arrival ->
      let id = !arrived in
      Span.enter sp s_arrival ~req:id;
      let now = Sim.now sim in
      Span.enter sp s_sample ~req:id;
      let profile = Mix.sample mix service_rng in
      Span.leave sp;
      let c = profile.Mix.class_id in
      probe.class_calls.(c) <- probe.class_calls.(c) + 1;
      probe.class_ns.(c) <- probe.class_ns.(c) + sp.Span.last_ns;
      Span.enter sp s_create ~req:id;
      let req = Request.create ~id ~arrival_ns:now ~profile in
      Span.leave sp;
      incr arrived;
      if !arrived < n_requests then begin
        Span.enter sp s_gap ~req:id;
        let gap = Arrival.next_gap_ns arrival arrival_rng ~index:id in
        Span.leave sp;
        Sim.schedule_after sim ~delay:gap Arrival
      end
      else Sim.schedule_after sim ~delay:drain_cap_ns End;
      Span.enter sp s_inject ~req:id;
      Instance.inject inst req;
      Span.leave sp;
      Span.leave sp
    | End ->
      Span.enter sp s_end ~req:(-1);
      Span.enter sp s_censor ~req:(-1);
      Instance.censor_all inst ~now_ns:(Sim.now sim);
      Span.leave sp;
      Sim.stop sim;
      Span.leave sp);
    observe ()
  in
  Sim.schedule_at sim ~time:0 Arrival;
  Span.enter sp s_engine ~req:(-1);
  Sim.run sim ~handler ();
  Span.leave sp;
  let span_ns = max 1 (Sim.now sim) in
  Span.enter sp s_summarize ~req:(-1);
  let summary =
    Metrics.summarize (Instance.metrics inst)
      ~offered_rps:(Arrival.rate_rps arrival)
      ~span_ns ~n_workers
      ~class_names:(Array.map (fun (c : Mix.class_def) -> c.name) mix.Mix.classes)
  in
  Span.leave sp;
  Span.leave sp;
  (summary, Sim.events_processed sim)
