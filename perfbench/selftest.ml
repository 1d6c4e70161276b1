(* The benchmark's own tests, on short runs:

   - the re-hosted server run loop reproduces [Server.run_detailed]'s
     fingerprint on each server workload;
   - the fingerprint changes when any field of a summary changes;
   - the traced run's spans pass [Trace_export.validate_json], its metric
     names are well formed, and its fingerprint equals a separate untraced
     run's.

   perfbench/selftest.py runs this and then checks run.py's output against
   BENCHMARK.json. Exits 1 if any test fails. *)

module W = Workloads
module Metrics = Repro_runtime.Metrics
module Trace_export = Repro_runtime.Trace_export
module Par_sim = Repro_engine.Par_sim

let failures = ref 0

let check name ok =
  if not ok then incr failures;
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name

let server_inputs w ~seed =
  match W.setup w ~seed with
  | W.Server_in r -> (r.config, r.mix, r.arrival)
  | _ -> invalid_arg "not a server workload"

let rehost_matches_library () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          let n = 3_000 in
          let lib = W.run (W.setup w ~seed) ~engine:Par_sim.Seq ~n ~seed in
          let config, mix, arrival = server_inputs w ~seed in
          let probe =
            Rehost.create_probe ~n_classes:(Array.length mix.Repro_workload.Mix.classes)
              ~log_cap:1_000
          in
          let s, events = Rehost.run ~probe ~config ~mix ~arrival ~n_requests:n ~seed () in
          check
            (Printf.sprintf "re-hosted run loop reproduces Server.run_detailed (%s, seed %d)"
               (W.name w) seed)
            (W.fingerprint s = lib.fingerprint && events = lib.events && lib.failures = []))
        [ 1; 7 ])
    [ W.Server_bimodal; W.Server_zippydb ]

let fingerprint_sees_every_field () =
  let out = W.run (W.setup W.Server_bimodal ~seed:1) ~engine:Par_sim.Seq ~n:2_000 ~seed:1 in
  let s = match out.summary with W.Server_sum s -> s | _ -> assert false in
  (* Listing every field here makes a field added to [Metrics.summary]
     without a variant below a compile error (warning 9). *)
  let {
    Metrics.offered_rps;
    completed;
    measured;
    censored;
    measured_censored;
    goodput_rps;
    mean_slowdown;
    p50_slowdown;
    p99_slowdown;
    p999_slowdown;
    mean_sojourn_ns;
    p999_sojourn_ns;
    preemptions;
    steal_slices;
    dispatcher_busy_frac;
    dispatcher_app_frac;
    worker_busy_frac;
    median_idle_gap_ns;
    negative_idle_gaps;
    per_class;
  } =
    s
  in
  let nudge x = x +. 1e-9 in
  let variants =
    [
      ("offered_rps", { s with offered_rps = nudge offered_rps });
      ("completed", { s with completed = completed + 1 });
      ("measured", { s with measured = measured + 1 });
      ("censored", { s with censored = censored + 1 });
      ("measured_censored", { s with measured_censored = measured_censored + 1 });
      ("goodput_rps", { s with goodput_rps = nudge goodput_rps });
      ("mean_slowdown", { s with mean_slowdown = nudge mean_slowdown });
      ("p50_slowdown", { s with p50_slowdown = nudge p50_slowdown });
      ("p99_slowdown", { s with p99_slowdown = nudge p99_slowdown });
      ("p999_slowdown", { s with p999_slowdown = nudge p999_slowdown });
      ("mean_sojourn_ns", { s with mean_sojourn_ns = nudge mean_sojourn_ns });
      ("p999_sojourn_ns", { s with p999_sojourn_ns = nudge p999_sojourn_ns });
      ("preemptions", { s with preemptions = preemptions + 1 });
      ("steal_slices", { s with steal_slices = steal_slices + 1 });
      ("dispatcher_busy_frac", { s with dispatcher_busy_frac = nudge dispatcher_busy_frac });
      ("dispatcher_app_frac", { s with dispatcher_app_frac = nudge dispatcher_app_frac });
      ("worker_busy_frac", { s with worker_busy_frac = nudge worker_busy_frac });
      ("median_idle_gap_ns", { s with median_idle_gap_ns = nudge median_idle_gap_ns });
      ("negative_idle_gaps", { s with negative_idle_gaps = negative_idle_gaps + 1 });
      ( "per_class",
        { s with per_class = Array.map (fun (name, k, p) -> (name, k + 1, p)) per_class } );
    ]
  in
  let base = W.fingerprint s in
  check "fingerprint is stable for an equal summary" (W.fingerprint { s with completed } = base);
  List.iter
    (fun (field, v) -> check ("fingerprint changes with " ^ field) (W.fingerprint v <> base))
    variants

let name_ok name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let traced_runs () =
  List.iter
    (fun (w, n) ->
      let seed = 3 in
      let r = Trace.run w ~seed ~n ~seconds:0.0 ~log_cap:5_000 in
      let untraced = W.run (W.setup w ~seed) ~engine:Par_sim.Seq ~n ~seed in
      let name = W.name w in
      check (name ^ ": traced run passes its checks") (r.failed = 0 && r.all_failures = []);
      check (name ^ ": trace output passes Trace_export.validate_json")
        (Trace_export.validate_json r.trace_json = Ok ());
      check
        (name ^ ": traced fingerprint equals a separate untraced run's")
        ((List.hd r.rounds).fingerprint = untraced.fingerprint);
      check (name ^ ": every per-layer metric is reported under a well-formed name")
        (List.map fst r.metrics = Trace.metric_names && List.for_all name_ok Trace.metric_names))
    [
      (W.Server_bimodal, 2_000);
      (W.Server_zippydb, 2_000);
      (W.Rack_seq, 3_000);
      (W.Raft_3node, 1_000);
    ]

let () =
  rehost_matches_library ();
  fingerprint_sees_every_field ();
  traced_runs ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all self-tests passed"
