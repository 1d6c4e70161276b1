(* The traced run: per-layer numbers for one workload, taken by timing calls
   into each layer's public functions from the benchmark's own code. It is a
   separate process from the untraced end-to-end runs; within it, every pass
   over the workload starts from freshly built inputs and must reproduce the
   untraced pass's fingerprint.

   - Server workloads: an untraced [Server.run_detailed] pass, a span pass
     through the re-hosted run loop ({!Rehost}), and a model pass through
     the same loop with a [Tracing.t] attached, which reads the central-queue
     depth off the tracer's [Admitted] events. Policy push/pop is replayed
     afterwards at the observed depth.
   - Rack: [Cluster.run_detailed] at par:2, par:1 and seq (the end-to-end
     engine), plus a seq pass that records the balancer's views through
     [on_decision]; the recorded views are replayed through
     [Lb_policy.choose].
   - Raft: [Raft.run_detailed] untraced and with a [Tracing.t] attached, at
     seq (a parallel request degrades to seq for Raft, so par legs would only
     repeat the seq one).

   Passes repeat in rounds until the time budget is spent and at least three
   rounds have run, and every metric is the median over rounds. A metric that does not apply to a workload
   reads 0. *)

module W = Workloads
module Par_sim = Repro_engine.Par_sim
module Rng = Repro_engine.Rng
module Metrics = Repro_runtime.Metrics
module Policy = Repro_runtime.Policy
module Request = Repro_runtime.Request
module Tracing = Repro_runtime.Tracing
module Trace_export = Repro_runtime.Trace_export
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival
module Store = Repro_kvstore.Store
module Cluster = Repro_cluster.Cluster
module Lb_policy = Repro_cluster.Lb_policy
module Raft = Repro_raft.Raft

(* Every per-layer metric, in the order BENCHMARK.json lists them. *)
let metric_names =
  [
    "workload.sample_ns";
    "workload.sample_bytes";
    "workload.gap_ns";
    "kvstore.get_ns";
    "kvstore.put_ns";
    "kvstore.delete_ns";
    "kvstore.scan_ns";
    "kvstore.bytes_per_op";
    "kvstore.entries_start";
    "kvstore.entries_end";
    "engine.events";
    "engine.events_per_req";
    "engine.events_per_s";
    "engine.self_ns_per_event";
    "engine.heap_depth_p50";
    "engine.heap_depth_max";
    "runtime.handle_ns";
    "runtime.handle_bytes";
    "runtime.inject_ns";
    "runtime.summarize_ms";
    "policy.push_pop_ns";
    "model.preemptions_per_req";
    "model.dispatcher_busy_frac";
    "model.worker_busy_frac";
    "model.central_depth_p99";
    "cluster.host_ns_per_event";
    "lb.choose_ns";
    "par.speedup_vs_par1";
    "par.speedup_vs_seq";
    "par.event_overhead";
    "raft.host_us_per_commit";
    "raft.events_per_req";
    "raft.committed";
    "raft.wal_records";
    "hedge.duplicates_per_read";
    "hedge.win_ratio";
    "hedge.wasted_us";
    "gc.minor_collections";
    "gc.major_collections";
    "trace.overhead_frac";
  ]

type round = {
  metrics : (string * float) list;
  legs : W.outcome list;  (** every pass run, for failure counting *)
  failures : string list;  (** checks that span passes *)
  fingerprint : string;  (** of the pass that matches the end-to-end run *)
  spans : Span.t;  (** the round's span log, written out for the first round *)
  accounting : string;  (** how self times cover the traced wall *)
  span_miss : float option;
      (** how far the self times, span cost taken out, miss the untraced
          wall, as a share of the span cost; server rounds only *)
}

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let word_bytes = fi (Sys.word_size / 8)

let same_fingerprint ~what (a : W.outcome) (b : W.outcome) =
  if a.fingerprint <> b.fingerprint then [ what ^ ": fingerprint differs from the untraced pass" ]
  else []

let percentile hist p =
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then 0
  else begin
    let target = max 1 (int_of_float (ceil (p *. fi total))) in
    let acc = ref 0 and i = ref 0 in
    while !acc + hist.(!i) < target do
      acc := !acc + hist.(!i);
      incr i
    done;
    !i
  end

let max_bucket hist =
  let m = ref 0 in
  Array.iteri (fun i c -> if c > 0 then m := i) hist;
  !m

let model_metrics ~arrivals (s : Metrics.summary) =
  [
    ("model.preemptions_per_req", ratio (fi s.preemptions) (fi arrivals));
    ("model.dispatcher_busy_frac", s.dispatcher_busy_frac);
    ("model.worker_busy_frac", s.worker_busy_frac);
  ]

let engine_metrics (l : Measure.leg) =
  [
    ("engine.events", fi l.out.events);
    ("engine.events_per_req", ratio (fi l.out.events) (fi l.out.arrivals));
    ("engine.events_per_s", ratio (fi l.out.events) l.wall_s);
  ]

let gc_metrics (l : Measure.leg) =
  [
    ("gc.minor_collections", fi l.minor_collections);
    ("gc.major_collections", fi l.major_collections);
  ]

(* [Mix.sample] and [Arrival.next_gap_ns] replayed on the workload's own
   mix and arrival process, for the workloads whose loops are not
   re-hosted. *)
let replay_workload inputs ~seed =
  let mix = W.mix_of inputs and arrival = W.arrival_of inputs in
  let n = 200_000 in
  let rng = Rng.create ~seed in
  let w0 = Gc.minor_words () in
  let (), sample_s =
    Measure.time (fun () ->
        for _ = 1 to n do
          ignore (Mix.sample mix rng : Mix.profile)
        done)
  in
  let sample_words = Gc.minor_words () -. w0 in
  let (), gap_s =
    Measure.time (fun () ->
        for index = 0 to n - 1 do
          ignore (Arrival.next_gap_ns arrival rng ~index : int)
        done)
  in
  [
    ("workload.sample_ns", sample_s *. 1e9 /. fi n);
    ("workload.sample_bytes", sample_words *. word_bytes /. fi n);
    ("workload.gap_ns", gap_s *. 1e9 /. fi n);
  ]

(* One push_new + pop pair on a central queue of [kind] held at [depth]
   requests: the popped request is the next one pushed, so the queue stays
   at [depth] throughout. *)
let replay_policy kind ~mix ~depth ~seed =
  let rng = Rng.create ~seed in
  let reqs =
    Array.init (depth + 1) (fun id ->
        let profile = Mix.sample mix rng in
        let r = Request.create ~id ~arrival_ns:0 ~profile in
        (match kind with
        | Policy.Srpt_kv { means_ns } -> r.Request.estimate_ns <- means_ns.(profile.Mix.class_id)
        | _ -> ());
        r)
  in
  let q = Policy.create kind in
  for i = 0 to depth - 1 do
    Policy.push_new q reqs.(i)
  done;
  let spare = ref reqs.(depth) in
  let n = 200_000 in
  let (), s =
    Measure.time (fun () ->
        for _ = 1 to n do
          Policy.push_new q !spare;
          match Policy.pop q ~worker:0 with
          | Some r -> spare := r
          | None -> failwith "policy replay: pop on a non-empty queue returned nothing"
        done)
  in
  s *. 1e9 /. fi n

(* ---- server workloads ---------------------------------------------------- *)

let server_round w ~seed ~n ~log_cap =
  let base = Measure.leg w ~seed ~n ~engine:Par_sim.Seq in
  let server_inputs () =
    match W.setup w ~seed with
    | W.Server_in r -> (r.config, r.mix, r.arrival, r.store)
    | _ -> invalid_arg "server_round: not a server workload"
  in
  (* span pass *)
  let config, mix, arrival, store = server_inputs () in
  let entries () = Option.fold ~none:0 ~some:Store.total_entries store in
  let entries_start = entries () in
  let n_classes = Array.length mix.Mix.classes in
  let probe = Rehost.create_probe ~n_classes ~log_cap in
  Gc.compact ();
  let (summary, events), traced_s =
    Measure.time (fun () -> Rehost.run ~probe ~config ~mix ~arrival ~n_requests:n ~seed ())
  in
  let entries_end = entries () in
  let traced = W.server_outcome ~n summary events in
  (* model pass: drain the tracer ring whenever half of it is new, so no
     [Admitted] event is lost to wrap-around *)
  let config, mix, arrival, _ = server_inputs () in
  let capacity = 65_536 in
  let tracer = Tracing.create ~capacity () in
  let central = Array.make 65_536 0 in
  let consumed = ref 0 and lost = ref false in
  let drain ~force () =
    let total = Tracing.length tracer + Tracing.dropped tracer in
    if total - !consumed >= capacity / 2 || (force && total > !consumed) then begin
      if Tracing.dropped tracer > !consumed then lost := true;
      let i = ref (Tracing.dropped tracer) in
      Tracing.iter_entries tracer ~f:(fun e ->
          (if !i >= !consumed then
             match e.Tracing.kind with
             | Tracing.Admitted { central_depth; _ } ->
               let d = min central_depth (Array.length central - 1) in
               central.(d) <- central.(d) + 1
             | _ -> ());
          incr i);
      consumed := total
    end
  in
  let mprobe = Rehost.create_probe ~n_classes ~log_cap:0 in
  let msummary, mevents =
    Rehost.run ~probe:mprobe ~tracer ~observe:(drain ~force:false) ~config ~mix ~arrival
      ~n_requests:n ~seed ()
  in
  drain ~force:true ();
  let model = W.server_outcome ~n msummary mevents in
  let depth_p50 = max 1 (percentile central 0.5) in
  let push_pop_ns = replay_policy config.Repro_runtime.Config.policy ~mix ~depth:depth_p50 ~seed in
  (* Raw self times add up to the traced wall by construction. The per-call
     figures below have the measured recording cost taken out; [span_miss]
     is how far their sum lands from the untraced wall, as a share of the
     whole recording cost, and [run] fails the traced run when its median
     over rounds exceeds 1. *)
  let sp = probe.Rehost.spans in
  let cost = Span.overhead () in
  let n_spans = Span.total_spans sp in
  let raw_self_s = fi (Span.sum_self_ns sp) /. 1e9 in
  let corrected_s =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i _ -> Span.corrected_self_ns sp cost i) sp.Span.names)
    /. 1e9
  in
  let span_cost_s = (cost.inside_ns +. cost.outside_ns) *. fi n_spans /. 1e9 in
  let span_miss = ratio (abs_float (corrected_s -. base.wall_s)) span_cost_s in
  let accounting =
    Printf.sprintf
      "%d spans at %.1f + %.1f ns each; self times sum to %.6f s of %.6f s traced wall, %.6f s \
       without the span cost; untraced wall %.6f s, missed by %.3f of the span cost"
      n_spans cost.inside_ns cost.outside_ns raw_self_s traced_s corrected_s base.wall_s span_miss
  in
  let failures =
    same_fingerprint ~what:"span pass" base.out traced
    @ same_fingerprint ~what:"model pass" base.out model
    @ (if traced.events <> base.out.events then
         [ Printf.sprintf "span pass: %d events, untraced %d" traced.events base.out.events ]
       else [])
    @ if !lost then [ "model pass: tracer ring wrapped before it was drained" ] else []
  in
  let per_call i = ratio (Span.corrected_self_ns sp cost i) (fi sp.Span.calls.(i)) in
  let bytes_per_call i = ratio (sp.Span.self_words.(i) *. word_bytes) (fi sp.Span.calls.(i)) in
  let kvstore =
    match store with
    | None -> []
    | Some _ ->
      let by_class name =
        let c = ref (-1) in
        Array.iteri (fun i (d : Mix.class_def) -> if d.name = name then c := i) mix.Mix.classes;
        if !c < 0 then 0.0
        else ratio (fi probe.class_ns.(!c)) (fi probe.class_calls.(!c)) -. cost.inside_ns
      in
      [
        ("kvstore.get_ns", by_class "GET");
        ("kvstore.put_ns", by_class "PUT");
        ("kvstore.delete_ns", by_class "DELETE");
        ("kvstore.scan_ns", by_class "SCAN");
        ("kvstore.bytes_per_op", bytes_per_call Rehost.s_sample);
        ("kvstore.entries_start", fi entries_start);
        ("kvstore.entries_end", fi entries_end);
      ]
  in
  let metrics =
    [
      ("workload.sample_ns", per_call Rehost.s_sample);
      ("workload.sample_bytes", bytes_per_call Rehost.s_sample);
      ("workload.gap_ns", per_call Rehost.s_gap);
    ]
    @ kvstore @ engine_metrics base
    @ [
        ( "engine.self_ns_per_event",
          ratio (Span.corrected_self_ns sp cost Rehost.s_engine) (fi events) );
        ("engine.heap_depth_p50", fi (percentile probe.depth_hist 0.5));
        ("engine.heap_depth_max", fi (max_bucket probe.depth_hist));
        ("runtime.handle_ns", per_call Rehost.s_handle);
        ("runtime.handle_bytes", bytes_per_call Rehost.s_handle);
        ("runtime.inject_ns", per_call Rehost.s_inject);
        ("runtime.summarize_ms", fi sp.Span.total_ns.(Rehost.s_summarize) /. 1e6);
        ("policy.push_pop_ns", push_pop_ns);
        ("model.central_depth_p99", fi (percentile central 0.99));
        ("trace.overhead_frac", (traced_s /. base.wall_s) -. 1.0);
      ]
    @ model_metrics ~arrivals:n summary @ gc_metrics base
  in
  {
    metrics;
    legs = [ base.out; traced; model ];
    failures;
    fingerprint = base.out.fingerprint;
    spans = sp;
    accounting;
    span_miss = Some span_miss;
  }

(* ---- rack and raft -------------------------------------------------------- *)

let leg_names = [| "round"; "leg.par2"; "leg.par1"; "leg.seq"; "leg.traced"; "replay" |]

let in_span sp name f =
  Span.enter sp name ~req:(-1);
  let r = f () in
  Span.leave sp;
  r

let without_engine (s : Cluster.summary) =
  W.fingerprint { s with engine = Par_sim.Seq; domains_used = 1 }

let rack_round w ~seed ~n =
  let sp = Span.create ~names:leg_names ~log_cap:64 in
  Span.enter sp 0 ~req:(-1);
  let leg name engine = in_span sp name (fun () -> Measure.leg w ~seed ~n ~engine) in
  let par2 = leg 1 (Par_sim.Par { domains = 2 }) in
  let par1 = leg 2 (Par_sim.Par { domains = 1 }) in
  let seq = leg 3 Par_sim.Seq in
  (* the seq pass again, recording each placement's views *)
  let views = ref [] and recorded = ref 0 in
  let on_decision ~views:v ~lengths:_ ~chosen:_ =
    if !recorded < 200_000 then begin
      views := Array.copy v :: !views;
      incr recorded
    end
  in
  let traced, traced_s =
    in_span sp 4 (fun () ->
        match W.setup w ~seed with
        | W.Rack_in { cluster; mix; arrival } ->
          Gc.compact ();
          Measure.time (fun () ->
              let events = ref 0 in
              let s, _ =
                Cluster.run_detailed ~cluster ~mix ~arrival ~n_requests:n ~seed ~on_decision
                  ~events_out:events ~engine:Par_sim.Seq ()
              in
              W.rack_outcome ~asked:Par_sim.Seq s !events)
        | _ -> invalid_arg "rack_round: not a rack workload")
  in
  let views = Array.of_list (List.rev !views) in
  let inputs = W.setup w ~seed in
  let choose_ns, replayed =
    in_span sp 5 (fun () ->
        let policy =
          match inputs with W.Rack_in { cluster; _ } -> cluster.Cluster.policy | _ -> assert false
        in
        let state = Lb_policy.make_state ~rng:(Rng.create ~seed) in
        let (), s =
          Measure.time (fun () ->
              Array.iter
                (fun v -> ignore (Lb_policy.choose policy state ~views:v : int option))
                views)
        in
        (ratio (s *. 1e9) (fi (Array.length views)), replay_workload inputs ~seed))
  in
  Span.leave sp;
  let sum l = match l.Measure.out.summary with W.Rack_sum s -> s | _ -> assert false in
  let failures =
    (if without_engine (sum par1) <> without_engine (sum par2) then
       [ "par:1 and par:2 disagree on the simulated summary" ]
     else [])
    @ same_fingerprint ~what:"seq pass with on_decision" seq.out traced
    @
    if par2.alloc_bytes < 0.8 *. par1.alloc_bytes then
      [ "allocation counters miss a domain: par:2 allocated far less than par:1" ]
    else []
  in
  let s = sum seq in
  let metrics =
    replayed @ engine_metrics seq
    @ [
        ("cluster.host_ns_per_event", ratio (seq.wall_s *. 1e9) (fi seq.out.events));
        ("lb.choose_ns", choose_ns);
        ("par.speedup_vs_par1", ratio par1.wall_s par2.wall_s);
        ("par.speedup_vs_seq", ratio seq.wall_s par2.wall_s);
        ("par.event_overhead", ratio (fi par2.out.events) (fi seq.out.events));
        ("trace.overhead_frac", (traced_s /. seq.wall_s) -. 1.0);
      ]
    @ model_metrics ~arrivals:s.requests s.cluster
    @ gc_metrics seq
  in
  {
    metrics;
    legs = [ par2.out; par1.out; seq.out; traced ];
    failures;
    fingerprint = seq.out.fingerprint;
    spans = sp;
    accounting = "";
    span_miss = None;
  }

let raft_round w ~seed ~n =
  let sp = Span.create ~names:leg_names ~log_cap:64 in
  Span.enter sp 0 ~req:(-1);
  let base = in_span sp 3 (fun () -> Measure.leg w ~seed ~n ~engine:Par_sim.Seq) in
  let traced, traced_s =
    in_span sp 4 (fun () ->
        match W.setup w ~seed with
        | W.Raft_in { raft; mix; arrival } ->
          let tracer = Tracing.create () in
          Gc.compact ();
          Measure.time (fun () ->
              let events = ref 0 in
              let s, _ =
                Raft.run_detailed ~raft ~mix ~arrival ~n_requests:n ~seed ~tracer
                  ~events_out:events ~engine:Par_sim.Seq ()
              in
              W.raft_outcome ~asked:Par_sim.Seq s !events)
        | _ -> invalid_arg "raft_round: not a raft workload")
  in
  let replayed = in_span sp 5 (fun () -> replay_workload (W.setup w ~seed) ~seed) in
  Span.leave sp;
  let s = match base.out.summary with W.Raft_sum s -> s | _ -> assert false in
  let nodes = Array.length s.per_node in
  let over_nodes f = Array.fold_left (fun acc m -> acc +. f m) 0.0 s.per_node in
  let metrics =
    replayed @ engine_metrics base
    @ [
        ("raft.host_us_per_commit", ratio (base.wall_s *. 1e6) (fi s.committed));
        ("raft.events_per_req", ratio (fi base.out.events) (fi s.requests));
        ("raft.committed", fi s.committed);
        ("raft.wal_records", fi (Array.fold_left ( + ) 0 s.wal_records));
        ("hedge.duplicates_per_read", ratio (fi s.hedges) (fi s.reads));
        ("hedge.win_ratio", ratio (fi s.hedge_wins) (fi s.hedges));
        ("hedge.wasted_us", fi s.hedge_wasted_ns /. 1e3);
        ( "model.preemptions_per_req",
          ratio (over_nodes (fun m -> fi m.Metrics.preemptions)) (fi s.requests) );
        ( "model.dispatcher_busy_frac",
          over_nodes (fun m -> m.Metrics.dispatcher_busy_frac) /. fi nodes );
        ("model.worker_busy_frac", over_nodes (fun m -> m.Metrics.worker_busy_frac) /. fi nodes);
        ("trace.overhead_frac", (traced_s /. base.wall_s) -. 1.0);
      ]
    @ gc_metrics base
  in
  {
    metrics;
    legs = [ base.out; traced ];
    failures = same_fingerprint ~what:"traced pass" base.out traced;
    fingerprint = base.out.fingerprint;
    spans = sp;
    accounting = "";
    span_miss = None;
  }

let round w ~seed ~n ~log_cap =
  match w with
  | W.Server_bimodal | W.Server_zippydb -> server_round w ~seed ~n ~log_cap
  | W.Rack_seq -> rack_round w ~seed ~n
  | W.Raft_3node -> raft_round w ~seed ~n

(* Every named metric, 0 where the workload does not reach the layer. A
   name outside [metric_names] is a harness bug and fails loudly. *)
let complete metrics =
  List.iter
    (fun (k, _) ->
      if not (List.mem k metric_names) then failwith ("trace: unlisted metric " ^ k))
    metrics;
  List.map (fun k -> (k, Option.value (List.assoc_opt k metrics) ~default:0.0)) metric_names

type result = {
  rounds : round list;
  metrics : (string * float) list;  (** medians over rounds *)
  attempted : int;
  failed : int;
  all_failures : string list;
  trace_json : string;
}

let run w ~seed ~n ~seconds ~log_cap =
  let t0 = Span.now_ns () in
  let rec loop acc =
    let r = round w ~seed ~n ~log_cap in
    let acc = r :: acc in
    if List.length acc >= 3 && Measure.seconds_since t0 >= seconds then List.rev acc
    else loop acc
  in
  let rounds = loop [] in
  let first = List.hd rounds in
  let per_round = List.map (fun (r : round) -> complete r.metrics) rounds in
  let metrics =
    List.map
      (fun k -> (k, Measure.median (List.map (fun m -> List.assoc k m) per_round)))
      metric_names
  in
  let legs = List.concat_map (fun r -> r.legs) rounds in
  let drift =
    List.filter_map
      (fun r ->
        if r.fingerprint <> first.fingerprint then Some "fingerprint changed between rounds"
        else None)
      rounds
  in
  let unaccounted =
    match List.filter_map (fun (r : round) -> r.span_miss) rounds with
    | [] -> []
    | misses ->
      let m = Measure.median misses in
      if m > 1.0 then
        [
          Printf.sprintf
            "span accounting: self times without the span cost miss the untraced wall by %.2f \
             times the span cost (median over rounds)"
            m;
        ]
      else []
  in
  let trace_json = Span.to_chrome_json first.spans ~process_name:("perfbench " ^ W.name w) in
  let invalid =
    match Trace_export.validate_chrome_json trace_json with
    | Ok _ -> []
    | Error e -> [ "trace output is not valid Chrome trace JSON: " ^ e ]
  in
  let other_failures =
    List.concat_map (fun r -> r.failures) rounds @ drift @ unaccounted @ invalid
  in
  let failed_legs = List.filter (fun (o : W.outcome) -> o.failures <> []) legs in
  let attempted = List.length legs in
  {
    rounds;
    metrics;
    attempted;
    failed = min attempted (List.length failed_legs + List.length other_failures);
    all_failures = List.concat_map (fun (o : W.outcome) -> o.failures) legs @ other_failures;
    trace_json;
  }
