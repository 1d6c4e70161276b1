(* Guard rails for the hot-path work: (1) a golden matrix pinning headline
   metrics of eight canonical runs to 17-significant-digit strings, so any
   engine/runtime "optimisation" that perturbs simulation behaviour —
   event order, RNG draws, float arithmetic — fails loudly rather than
   silently shifting results; (2) allocation regression tests holding the
   Sim.run/Heap event loop and the whole standalone server event path at
   zero words per event. *)

module Sim = Repro_engine.Sim
module Heap = Repro_engine.Heap

let systems = [ "shinjuku"; "coop-sq"; "concord"; "concord-uipi" ]

let config_of name =
  match Repro_runtime.Systems.by_name name with
  | Some make -> make ()
  | None -> Alcotest.failf "unknown system %s" name

(* %.17g round-trips IEEE doubles exactly: string equality = bit identity. *)
let fingerprint (s : Repro_runtime.Metrics.summary) =
  Printf.sprintf "p50=%.17g p99=%.17g goodput=%.17g" s.Repro_runtime.Metrics.p50_slowdown
    s.Repro_runtime.Metrics.p99_slowdown s.Repro_runtime.Metrics.goodput_rps

(* Every [Metrics.summary] field, floats at 17 significant digits. *)
let metrics_detail (m : Repro_runtime.Metrics.summary) =
  let module M = Repro_runtime.Metrics in
  Printf.sprintf
    "%.17g %d/%d/%d/%d %.17g %.17g %.17g %.17g %.17g %.17g %.17g %d %d %.17g %.17g %.17g %.17g %d"
    m.M.offered_rps m.M.completed m.M.measured m.M.censored m.M.measured_censored m.M.goodput_rps
    m.M.mean_slowdown m.M.p50_slowdown m.M.p99_slowdown m.M.p999_slowdown m.M.mean_sojourn_ns
    m.M.p999_sojourn_ns m.M.preemptions m.M.steal_slices m.M.dispatcher_busy_frac
    m.M.dispatcher_app_frac m.M.worker_busy_frac m.M.median_idle_gap_ns m.M.negative_idle_gaps
  ^ String.concat ""
      (Array.to_list (Array.map (fun (n, c, p) -> Printf.sprintf " %s:%d:%.17g" n c p) m.M.per_class))

(* Captured after the arrival-gap rounding fix (Arrival.next_gap_ns now
   rounds to nearest instead of truncating, an intended behaviour change
   that shifts every Poisson gap by up to half a nanosecond); everything
   after that fix must reproduce these exactly. Regenerate (only for a
   change that *intends* to alter behaviour) by printing [fingerprint]
   from the runs below. *)
let golden_standalone =
  [
    ("shinjuku", "p50=3.8999999999999999 p99=12.882 goodput=1234854.1705827552");
    ("coop-sq", "p50=2.5339999999999998 p99=8.4960000000000004 goodput=1277862.7319853301");
    ("concord", "p50=2.504 p99=11.438000000000001 goodput=1276836.6230792475");
    ("concord-uipi", "p50=3.8319999999999999 p99=13.1 goodput=1270668.6611458466");
  ]

(* Regenerated for the Po2c tie-break fix: ties now keep the first
   (uniform) sample instead of [min a b], so every Po2c routing sequence —
   and only Po2c — re-rolls. Hedging/stealing default Off and leave these
   runs bit-identical. *)
let golden_cluster =
  [
    ("shinjuku", "p50=2.0800000000000001 p99=4.1159999999999997 goodput=2693906.3837599349");
    ("coop-sq", "p50=1.988 p99=3.4100000000000001 goodput=2826828.4868929386");
    ("concord", "p50=2.0699999999999998 p99=4.0179999999999998 goodput=2824622.3375319079");
    ("concord-uipi", "p50=2.1379999999999999 p99=4.1079999999999997 goodput=2788590.7391934362");
  ]

let test_golden_standalone () =
  List.iter
    (fun name ->
      let s =
        Repro_runtime.Server.run ~config:(config_of name) ~mix:Repro_workload.Presets.usr
          ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 2.0e6 })
          ~n_requests:2_000 ()
      in
      Alcotest.(check string) ("standalone/" ^ name) (List.assoc name golden_standalone)
        (fingerprint s))
    systems

let test_golden_cluster () =
  List.iter
    (fun name ->
      let cluster =
        Repro_cluster.Cluster.homogeneous ~policy:Repro_cluster.Lb_policy.Po2c ~instances:3
          (config_of name)
      in
      let s =
        Repro_cluster.Cluster.run ~cluster ~mix:Repro_workload.Presets.usr
          ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 6.0e6 })
          ~n_requests:3_000 ()
      in
      Alcotest.(check string) ("cluster/" ^ name) (List.assoc name golden_cluster)
        (fingerprint s.Repro_cluster.Cluster.cluster))
    systems

(* Standalone server paths: every [Systems.table] entry on ycsb-a, the
   rank-heap policies on a live ZippyDB store (lock windows, Gittins and
   per-opcode estimates), and ingress batching under a burst of short
   requests. The digest covers every summary field, the slowdown samples
   in insertion order and the simulated event count, so a dispatcher or
   worker step that fires one event more or less fails here even when no
   percentile moves. *)
let samples_detail samples =
  String.concat " "
    (Array.to_list (Array.map (Printf.sprintf "%.17g") (Repro_engine.Stats.values samples)))

let standalone_run ?tracer ~config ~mix ~rate ~n () =
  let events = ref 0 in
  let s, samples =
    Repro_runtime.Server.run_detailed ~config ~mix
      ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = rate })
      ~n_requests:n ~seed:7 ?tracer ~events_out:events ()
  in
  String.concat "\n"
    [ Printf.sprintf "events=%d" !events; metrics_detail s; samples_detail samples ]

let standalone_path_runs =
  let ycsb name () =
    standalone_run ~config:(config_of name) ~mix:Repro_workload.Presets.ycsb_a ~rate:2.0e5
      ~n:3_000 ()
  in
  let zippydb spec () =
    let module Kv = Repro_kvstore.Kv_workload in
    let store = Kv.populate ~n_keys:2_000 ~seed:11 () in
    let mix = Kv.zippydb_mix store ~seed:11 in
    let policy =
      match Repro_runtime.Policy.of_spec spec ~mix with
      | Ok p -> p
      | Error e -> Alcotest.fail e
    in
    standalone_run
      ~config:{ (Repro_runtime.Systems.concord ()) with Repro_runtime.Config.policy }
      ~mix ~rate:3.0e5 ~n:3_000 ()
  in
  List.map (fun name -> ("ycsb-a/" ^ name, ycsb name)) Repro_runtime.Systems.all_names
  @ [
      ("zippydb/gittins", zippydb "gittins");
      ("zippydb/srpt-kv", zippydb "srpt-kv");
      ( "usr/concord-batched",
        fun () ->
          standalone_run ~config:(config_of "concord-batched") ~mix:Repro_workload.Presets.usr
            ~rate:2.0e6 ~n:3_000 () );
    ]

(* Captured at the commit before the server event path stopped allocating
   per event; that rewrite must reproduce every one. *)
let golden_standalone_paths =
  [
    ("ycsb-a/shinjuku", "fc73804d29e8beb4e6261c210e9f8d27");
    ("ycsb-a/shinjuku-whole-call", "3074b97a503320cb0b96f20d3b1c3cfd");
    ("ycsb-a/persephone", "fcb7247bc13f68ffe15f5a750d1b7a7f");
    ("ycsb-a/concord", "4bdad36845ba7cbc4b0ae48801081f1b");
    ("ycsb-a/concord-no-steal", "ecc79914aa869d3cefd88ca0ea91dcf7");
    ("ycsb-a/coop-sq", "f2ddcbec62d332fcb7f0e146a7079182");
    ("ycsb-a/coop-jbsq", "ecc79914aa869d3cefd88ca0ea91dcf7");
    ("ycsb-a/concord-uipi", "b03a50330cc0af1f1937f782ed0fcd74");
    ("ycsb-a/concord-batched", "a1c830f750bd23ed482f876d4414ff16");
    ("ycsb-a/srpt", "7871ac282f928db3e4b4a24b1c9d275b");
    ("ycsb-a/srpt-noisy", "d28ed9231c1eeec0f24f7c1d4baa354a");
    ("ycsb-a/concord-adaptive", "88d5391faa541b280873918bf493cdc6");
    ("ycsb-a/locality", "1e7e968db8bbf6c8b1156bbb376f9f3d");
    (* Added with the logical-queue presets, which the parent-captured
       [golden_sls] below pins against their former simulator. *)
    ("ycsb-a/concord-sls", "5d31ac08211b538a0534306324eb99c9");
    ("ycsb-a/shenango", "307060952a4c80999a478af6b70b1384");
    ("ycsb-a/d-fcfs", "b619bb57422e9fce7033e69008e44f3b");
    ("zippydb/gittins", "e870b60898380b1fc294df6f243e72af");
    ("zippydb/srpt-kv", "788238aac2be7ec6ff1e00ebc5d8a25e");
    ("usr/concord-batched", "a7cfda430584792e4ccb88c4bcf44735");
  ]

let test_golden_standalone_paths () =
  let failures =
    List.filter_map
      (fun (name, run) ->
        let got = Digest.to_hex (Digest.string (run ())) in
        match List.assoc_opt name golden_standalone_paths with
        | Some want when String.equal want got -> None
        | _ -> Some (Printf.sprintf "(%S, %S);" name got))
      standalone_path_runs
  in
  if failures <> [] then
    Alcotest.failf "standalone path goldens differ:\n%s" (String.concat "\n" failures)

(* Every lifecycle event a traced concord run records, in ring order. *)
let golden_standalone_trace = "entries=51030 dropped=0 md5=e00d1d3e4a8679615e1f3c7537717311"

let test_golden_standalone_trace () =
  let tracer = Repro_runtime.Tracing.create ~capacity:1_000_000 () in
  let detail =
    standalone_run ~tracer ~config:(config_of "concord") ~mix:Repro_workload.Presets.ycsb_a
      ~rate:2.0e5 ~n:1_000 ()
  in
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf detail;
  Repro_runtime.Tracing.iter_entries tracer ~f:(fun e ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Repro_runtime.Tracing.entry_to_string e));
  let got =
    Printf.sprintf "entries=%d dropped=%d md5=%s" (Repro_runtime.Tracing.length tracer)
      (Repro_runtime.Tracing.dropped tracer)
      (Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  Alcotest.(check string) "traced concord run" golden_standalone_trace got

(* Rack paths the rtt-0 Po2c goldens above never reach: a nonzero wire
   leg, stealing, each hedging policy, JBSQ parking with balancer-side
   censoring, and the windowed engine. The short fingerprint stays
   readable; [md5] covers every other summary field (means, counters,
   per-instance rows), so a balancer bookkeeping slip fails here even
   when the percentiles do not move. *)
let rack_detail (s : Repro_cluster.Cluster.summary) =
  let module C = Repro_cluster.Cluster in
  let module M = Repro_runtime.Metrics in
  let row (m : M.summary) =
    Printf.sprintf "%d/%d/%d/%d %.17g %.17g %.17g %.17g %.17g %.17g %d %d %.17g %.17g %.17g %.17g"
      m.M.completed m.M.measured m.M.censored m.M.measured_censored m.M.goodput_rps
      m.M.mean_slowdown m.M.p50_slowdown m.M.p99_slowdown m.M.p999_slowdown m.M.mean_sojourn_ns
      m.M.preemptions m.M.steal_slices m.M.dispatcher_busy_frac m.M.dispatcher_app_frac
      m.M.worker_busy_frac m.M.median_idle_gap_ns
    ^ String.concat ""
        (Array.to_list
           (Array.map (fun (n, c, p) -> Printf.sprintf " %s:%d:%.17g" n c p) m.M.per_class))
  in
  String.concat "\n"
    (Printf.sprintf "routed=%s held=%d unrouted=%d lb_censored=%d hedges=%d/%d/%d/%d steals=%d"
       (String.concat "," (Array.to_list (Array.map string_of_int s.C.routed)))
       s.C.lb_held s.C.lb_unrouted s.C.lb_censored s.C.hedges s.C.hedge_wins s.C.hedge_cancels
       s.C.hedge_wasted_ns s.C.steals
    :: row s.C.cluster
    :: Array.to_list (Array.map row s.C.per_instance))

let rack_fingerprint s =
  fingerprint s.Repro_cluster.Cluster.cluster
  ^ " md5="
  ^ Digest.to_hex (Digest.string (rack_detail s))

let rack_runs =
  let module C = Repro_cluster.Cluster in
  let module Lb = Repro_cluster.Lb_policy in
  let module Hedge = Repro_cluster.Hedge in
  let config = Repro_runtime.Systems.concord ~n_workers:4 () in
  let bimodal =
    Repro_workload.Mix.of_dist ~name:"bimodal"
      (Repro_workload.Service_dist.Bimodal { p_short = 0.5; short_ns = 1_000.; long_ns = 100_000. })
  in
  let run ?(policy = Lb.Po2c) ?(rtt_cycles = 4_000) ?(stragglers = []) ?(hedge = Hedge.Off)
      ?(steal = false) ?(mix = bimodal) ?(rate = 1.5e6) ?(n = 4_000) ?drain_cap_ns ?(seed = 42)
      ?(engine = Repro_engine.Par_sim.Seq) () =
    let cluster =
      C.homogeneous ~policy ~rtt_cycles ~hedge ~steal ~stragglers ~instances:3 config
    in
    C.run ~cluster ~mix ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = rate })
      ~n_requests:n ?drain_cap_ns ~seed ~engine ()
  in
  let hedged hedge () =
    run ~rtt_cycles:5_000 ~stragglers:[ (0, 4.0) ] ~hedge ~mix:Repro_workload.Presets.ycsb_a
      ~rate:1.0e5 ()
  in
  let par ~seed () = run ~seed ~engine:(Repro_engine.Par_sim.Par { domains = 2 }) () in
  let steal ~engine () =
    run ~policy:Lb.Random ~steal:true ~stragglers:[ (0, 4.0) ] ~rate:1.6e5 ~seed:5 ~engine ()
  in
  (* Fixed 5 us work at 3.2 MRps on a 2.4 MRps rack, cut at the last
     arrival: legs parked at the balancer, on the wire and resident at an
     instance are all censored. *)
  let saturated ~engine () =
    run ~policy:(Lb.Jbsq 1)
      ~mix:(Repro_workload.Mix.of_dist ~name:"fixed" (Repro_workload.Service_dist.Fixed 5_000.))
      ~rate:3.2e6 ~n:6_000 ~drain_cap_ns:0 ~engine ()
  in
  let seq = Repro_engine.Par_sim.Seq and par2 = Repro_engine.Par_sim.Par { domains = 2 } in
  [
    ("seq-steal-straggler", steal ~engine:seq);
    ("par:2-steal-straggler", steal ~engine:par2);
    ("hedge-fixed:30000", hedged (Hedge.Fixed { delay_ns = 30_000 }));
    ("hedge-pct:99", hedged (Hedge.Percentile { pct = 99.0 }));
    ("hedge-adaptive:0.1", hedged (Hedge.Adaptive { budget = 0.1 }));
    ("jbsq:1-saturated", saturated ~engine:seq);
    ("jbsq:1-saturated-par:2", saturated ~engine:par2);
    ("par:2-seed2", par ~seed:2);
    ("par:2-seed3", par ~seed:3);
    ("par:2-seed4", par ~seed:4);
    ("seq-seed4", fun () -> run ~seed:4 ());
  ]

(* Captured at the commit before the rack loop was merged into one
   description with two drivers; the merge must reproduce every one. *)
let golden_rack =
  [
    ("seq-steal-straggler",
     "p50=2.391 p99=932.90499999999997 goodput=59080.960215275263 md5=7b23a5b37a44d64c190a019c90dd24f4");
    ("par:2-steal-straggler",
     "p50=2.391 p99=932.90499999999997 goodput=59086.188760940306 md5=09d1f25e471a6a1569761f1da35e6213");
    ("hedge-fixed:30000",
     "p50=2.6099999999999999 p99=18.613 goodput=103968.61187607462 md5=4c1b1795d5f2492c5785b4892a619626");
    ("hedge-pct:99",
     "p50=2.6099999999999999 p99=7.8381600000000002 goodput=102759.47144752444 md5=785492f6538d8098e3990ebdd737a9f8");
    ("hedge-adaptive:0.1",
     "p50=2.6099999999999999 p99=7.9438899999999997 goodput=102740.77865124245 md5=0e365750cffcbbb5850103f83fcd5587");
    ("jbsq:1-saturated",
     "p50=163.96279999999999 p99=315.81560000000002 goodput=400964.96692867461 md5=994ebc7006ce6e873e9caf801c75a6bc");
    ("jbsq:1-saturated-par:2",
     "p50=163.96279999999999 p99=315.81560000000002 goodput=400964.96692867461 md5=994ebc7006ce6e873e9caf801c75a6bc");
    ("par:2-seed2",
     "p50=153.63122000000001 p99=1080.1110000000001 goodput=211778.84523466715 md5=8086badd2539af6d9a1c886d3b3ec2c9");
    ("par:2-seed3",
     "p50=155.65430000000001 p99=1111.566 goodput=209898.44938103572 md5=61be174fcd6c48094716a1ecd00f84cd");
    ("par:2-seed4",
     "p50=154.87241 p99=1111.154 goodput=210904.52557173432 md5=c2e1ff81926dad83b5d1fb37d9019289");
    ("seq-seed4",
     "p50=154.58260999999999 p99=1102.7239999999999 goodput=210922.22049773778 md5=a6ba24d533a0a86d954669c1bd2af43d");
  ]

let test_golden_rack () =
  let failures =
    List.filter_map
      (fun (name, run) ->
        let s = run () in
        let got = rack_fingerprint s in
        match List.assoc_opt name golden_rack with
        | Some want when String.equal want got -> None
        | _ -> Some (Printf.sprintf "(%S, %S);\n%s" name got (rack_detail s)))
      rack_runs
  in
  if failures <> [] then Alcotest.failf "rack goldens differ:\n%s" (String.concat "\n" failures)

(* Raft paths: steady replication, leader failover at three and five
   members, lease-read hedging with a straggler (alone and through a
   kill), consensus reads, a single member and an overloaded group cut at
   its drain cap. [raft_detail] prints every summary field; [md5] also
   covers the client slowdown samples in insertion order, so a protocol
   step that reorders one hand-off fails here even when no headline
   figure moves. *)
let raft_detail ((s : Repro_raft.Raft.summary), samples) =
  let module R = Repro_raft.Raft in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  String.concat "\n"
    (Printf.sprintf
       "nodes=%d leases=%b requests=%d writes=%d reads=%d roles=%s alive=%s leader=%s term=%d \
        elections=%d changes=%d committed=%d commit=%s log=%s wal=%s resub=%d parked=%d \
        routed=%s hedges=%d/%d/%d/%d writes_hedged=%d engine=%s domains=%d"
       s.R.nodes s.R.read_leases s.R.requests s.R.writes s.R.reads
       (String.concat "," (Array.to_list (Array.map R.role_name s.R.roles)))
       (String.concat "," (Array.to_list (Array.map string_of_bool s.R.alive)))
       (match s.R.final_leader with Some l -> string_of_int l | None -> "none")
       s.R.final_term s.R.elections s.R.leader_changes s.R.committed (ints s.R.commit_indexes)
       (ints s.R.log_lengths) (ints s.R.wal_records) s.R.resubmissions s.R.parked
       (ints s.R.routed) s.R.hedges s.R.hedge_wins s.R.hedge_cancels s.R.hedge_wasted_ns
       s.R.writes_hedged
       (Repro_engine.Par_sim.to_string s.R.engine)
       s.R.domains_used
    :: Printf.sprintf "write %.17g %.17g %.17g read %.17g %.17g %.17g p99 leader %.17g followers %.17g"
         s.R.write_mean_ns s.R.write_p50_ns s.R.write_p99_ns s.R.read_mean_ns s.R.read_p50_ns
         s.R.read_p99_ns s.R.leader_p99_slowdown s.R.follower_p99_slowdown
    :: ("violations: " ^ String.concat "; " s.R.invariant_failures)
    :: metrics_detail s.R.client
    :: Array.to_list (Array.map metrics_detail s.R.per_node)
    @ [ samples_detail samples ])

let raft_fingerprint ((s : Repro_raft.Raft.summary), _ as run) =
  fingerprint s.Repro_raft.Raft.client ^ " md5=" ^ Digest.to_hex (Digest.string (raft_detail run))

let raft_run ?(nodes = 3) ?read_leases ?rtt_cycles ?hedge ?(stragglers = []) ?kill_leader_at_ns
    ?(config = Repro_runtime.Systems.concord ~n_workers:4 ())
    ?(mix = Repro_workload.Mix.of_dist ~name:"fixed" (Repro_workload.Service_dist.Fixed 50_000.))
    ?(rate = 4.0e3) ?(n = 2_000) ?drain_cap_ns ?tracer () =
  let raft =
    Repro_raft.Raft.homogeneous ?read_leases ?rtt_cycles ?hedge ~stragglers ?kill_leader_at_ns
      ~nodes config
  in
  Repro_raft.Raft.run_detailed ~raft ~mix
    ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = rate })
    ~n_requests:n ?drain_cap_ns ?tracer ()

let raft_runs =
  let module Hedge = Repro_cluster.Hedge in
  let kill = 100_000_000 in
  [
    ("steady-3", fun () -> raft_run ());
    ("kill-3", fun () -> raft_run ~rate:8.0e3 ~kill_leader_at_ns:kill ());
    ( "kill-5-rtt200k",
      fun () -> raft_run ~nodes:5 ~rtt_cycles:200_000 ~rate:8.0e3 ~kill_leader_at_ns:kill () );
    (* the raft-3node bench shape: default members, ycsb-a, 40% of the
       group's consensus-aware capacity *)
    ( "hedge-fixed:150000-straggler-1:3",
      fun () ->
        raft_run ~hedge:(Hedge.Fixed { delay_ns = 150_000 }) ~stragglers:[ (1, 3.0) ]
          ~config:(Repro_runtime.Systems.concord ()) ~mix:Repro_workload.Presets.ycsb_a
          ~rate:55.9e3 () );
    ( "hedge-pct:99-kill",
      fun () ->
        raft_run ~hedge:(Hedge.Percentile { pct = 99.0 }) ~stragglers:[ (1, 3.0) ] ~rate:8.0e3
          ~kill_leader_at_ns:kill () );
    ("leases-off", fun () -> raft_run ~read_leases:false ());
    ("single", fun () -> raft_run ~nodes:1 ());
    ("overload-3", fun () -> raft_run ~rate:60.0e3 ~drain_cap_ns:0 ());
  ]

(* Captured at the commit before the protocol steps inside
   [Raft.run_detailed] were each written once; that rewrite must
   reproduce every one. "kill-3" and "hedge-pct:99-kill" were regenerated
   once when [committed] became the committed prefix: the new leader
   re-committed one index its predecessor had committed, which the old
   counter counted twice (969 and 696 where the largest live commit index
   is 968 and 695). Nothing else in either run changed. *)
let golden_raft =
  [
    ("steady-3",
     "p50=1.10392 p99=17.078700000000001 goodput=4148.0769828517759 md5=6afb0602a0f5bada7ea5f1b2add19261");
    ("kill-3",
     "p50=1.10616 p99=17.971160000000001 goodput=8280.9192168129266 md5=9d32896b5bafe69f95ba14a8fcf95b3d");
    ("kill-5-rtt200k",
     "p50=1.1086400000000001 p99=10.702439999999999 goodput=8293.8929923308442 md5=04cb9327f357bd12c30e0e8cbde0a7c7");
    ("hedge-fixed:150000-straggler-1:3",
     "p50=9.0894999999999992 p99=800.81899999999996 goodput=56618.134650128552 md5=92462f090054034e5b24587d5c564b1d");
    ("hedge-pct:99-kill",
     "p50=17.071100000000001 p99=9185.7630800000006 goodput=2528.2413792544512 md5=009cf30d85505dc53c3327966e7e0be6");
    ("leases-off",
     "p50=17.069220000000001 p99=17.86806 goodput=4155.7218804741251 md5=f711ea0ee44fb410564bcced56c75432");
    ("single",
     "p50=1.1050599999999999 p99=4.2557 goodput=4154.2148979382446 md5=f7fee08f3a692eacca104d3b3905d9fb");
    ("overload-3",
     "p50=54.02422 p99=328.21980000000002 goodput=40485.542201752905 md5=efbc6e4898c50d1ad6767b87a95bbec7");
  ]

let test_golden_raft () =
  let failures =
    List.filter_map
      (fun (name, run) ->
        let r = run () in
        let got = raft_fingerprint r in
        match List.assoc_opt name golden_raft with
        | Some want when String.equal want got -> None
        | _ -> Some (Printf.sprintf "(%S, %S);\n%s" name got (raft_detail r)))
      raft_runs
  in
  if failures <> [] then Alcotest.failf "raft goldens differ:\n%s" (String.concat "\n" failures)

(* Every event a traced, hedged failover records — front-end arrivals,
   consensus hand-offs, replays, hedge duplicates, member scheduling — in
   ring order. *)
let golden_raft_trace = "entries=360950 dropped=0 md5=8349e5425ba7903cc6d6dfab5b720dad"

let test_golden_raft_trace () =
  let tracer = Repro_runtime.Tracing.create ~capacity:1_000_000 () in
  let s, _ =
    raft_run ~n:600 ~rate:8.0e3
      ~hedge:(Repro_cluster.Hedge.Percentile { pct = 99.0 })
      ~stragglers:[ (1, 3.0) ] ~kill_leader_at_ns:40_000_000 ~tracer ()
  in
  if s.Repro_raft.Raft.hedges = 0 || s.Repro_raft.Raft.resubmissions = 0 then
    Alcotest.fail "the traced run must hedge and replay";
  let buf = Buffer.create (1 lsl 20) in
  Repro_runtime.Tracing.iter_entries tracer ~f:(fun e ->
      Buffer.add_string buf (Repro_runtime.Tracing.entry_to_string e);
      Buffer.add_char buf '\n');
  let got =
    Printf.sprintf "entries=%d dropped=%d md5=%s" (Repro_runtime.Tracing.length tracer)
      (Repro_runtime.Tracing.dropped tracer)
      (Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  Alcotest.(check string) "traced hedged failover" golden_raft_trace got

(* Single-logical-queue systems (§6): the three presets on ycsb-a and on
   usr at a 2 us quantum, and d-FCFS with every overhead zeroed. Each
   golden is the MD5 of every summary field plus the MD5 of the full
   lifecycle trace, which fixes when every request started, was
   preempted and completed. *)
let sls_runs =
  let run ~config ~mix ~rate tracer =
    Repro_runtime.Server.run ~config ~mix
      ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = rate })
      ~n_requests:2_000 ~seed:7 ~tracer ()
  in
  let ycsb config = run ~config ~mix:Repro_workload.Presets.ycsb_a ~rate:1.5e5 in
  let usr config = run ~config ~mix:Repro_workload.Presets.usr ~rate:2.0e6 in
  let quantum_ns = 2_000 in
  let module Systems = Repro_runtime.Systems in
  [
    ("ycsb-a/concord-sls", ycsb (Systems.concord_sls ~quantum_ns ()));
    ("ycsb-a/shenango", ycsb (Systems.shenango ~quantum_ns ()));
    ("ycsb-a/d-fcfs", ycsb (Systems.d_fcfs ~quantum_ns ()));
    ("usr/concord-sls", usr (Systems.concord_sls ~quantum_ns ()));
    ("usr/shenango", usr (Systems.shenango ~quantum_ns ()));
    ("usr/d-fcfs", usr (Systems.d_fcfs ~quantum_ns ()));
    ( "usr/d-fcfs-zero-overhead",
      usr (Systems.d_fcfs ~quantum_ns ~costs:Repro_hw.Costs.zero_overhead ()) );
  ]

let sls_fingerprint run =
  let tracer = Repro_runtime.Tracing.create ~capacity:1_000_000 () in
  let s = run tracer in
  let buf = Buffer.create (1 lsl 20) in
  Repro_runtime.Tracing.iter_entries tracer ~f:(fun e ->
      Buffer.add_string buf (Repro_runtime.Tracing.entry_to_string e);
      Buffer.add_char buf '\n');
  Printf.sprintf "metrics=%s trace=%s entries=%d dropped=%d"
    (Digest.to_hex (Digest.string (metrics_detail s)))
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (Repro_runtime.Tracing.length tracer)
    (Repro_runtime.Tracing.dropped tracer)

(* Captured before the single-logical-queue systems moved from their own
   simulator onto [Server.Instance], and regenerated once after the move
   for two expected differences. [worker_busy_frac] was 0 there, which
   never recorded worker busy time, and is measured now; every other
   summary field is unchanged. On usr, an arrival that lands in the same
   nanosecond as an earlier request's start now records first, because
   the standalone driver schedules the next arrival before it injects the
   current one; 3 to 12 trace lines per run swap places and no request's
   times change. *)
let golden_sls =
  [
    ("ycsb-a/concord-sls",
     "metrics=995fc13c66d4fb56da1ead8f8a73eed2 trace=76a7677c1799ee3599dde172d9cb0393 entries=160604 dropped=0");
    ("ycsb-a/shenango",
     "metrics=155aeae2ea7f43f8f6c1b94c3bd604df trace=2d26fec19f8dc8e42af1955fe1f59bb6 entries=8000 dropped=0");
    ("ycsb-a/d-fcfs",
     "metrics=ebf8d5fd457437745361ed9fe9627ce9 trace=b4e1a88473cd0e800342c5dccd13586b entries=8000 dropped=0");
    ("usr/concord-sls",
     "metrics=befab6bd046b9c543d934113150cc2c3 trace=0351e34cb55fe960540b5fb55a955345 entries=15096 dropped=0");
    ("usr/shenango",
     "metrics=ceb6f24935193519661e9c4d937f109e trace=e4ce3dfb7fd3662c43b1de2af1beb30b entries=8000 dropped=0");
    ("usr/d-fcfs",
     "metrics=fe541eef71564125ac1143efaacdf8fb trace=a8b52134645baa711699cc23a04c3203 entries=8000 dropped=0");
    ("usr/d-fcfs-zero-overhead",
     "metrics=24eb135764761e4b05bf43bd305eacc5 trace=8ab953dc85431b7383b3ba7918b0adb5 entries=8000 dropped=0");
  ]

let test_golden_sls () =
  let failures =
    List.filter_map
      (fun (name, run) ->
        let got = sls_fingerprint run in
        match List.assoc_opt name golden_sls with
        | Some want when String.equal want got -> None
        | _ -> Some (Printf.sprintf "(%S,\n %S);" name got))
      sls_runs
  in
  if failures <> [] then Alcotest.failf "sls goldens differ:\n%s" (String.concat "\n" failures)

(* [Gc.allocated_bytes] itself allocates a boxed float per call; measure
   that overhead first and subtract it. *)
let probe_overhead () =
  let a0 = Gc.allocated_bytes () in
  let a1 = Gc.allocated_bytes () in
  a1 -. a0

(* Budget for a measured region that must allocate nothing per iteration:
   generous enough for measurement slop, far below one word per event
   (100k events * 8 bytes = 800k). *)
let slack_bytes = 512.0

let test_sim_run_zero_alloc () =
  let events = 100_000 in
  let sim = Sim.create ~capacity:16 () in
  let left = ref events in
  let handler s (_ : int) =
    decr left;
    if !left > 0 then Sim.schedule_after s ~delay:1 0
  in
  (* Warm run: pay one-time costs (closure specialisation, lazy init). *)
  Sim.schedule_at sim ~time:(Sim.now sim) 0;
  Sim.run sim ~handler ();
  left := events;
  Sim.schedule_after sim ~delay:1 0;
  let overhead = probe_overhead () in
  let a0 = Gc.allocated_bytes () in
  Sim.run sim ~handler ();
  let a1 = Gc.allocated_bytes () in
  let net = a1 -. a0 -. overhead in
  if net > slack_bytes then
    Alcotest.failf "Sim.run allocated %.0f bytes over %d events (%.4f B/event); expected 0"
      net events
      (net /. float_of_int events)

let test_heap_churn_zero_alloc () =
  let iters = 100_000 in
  let h = Heap.create ~capacity:1024 () in
  for i = 0 to 511 do
    Heap.add h ~key:(i * 7919 mod 1000) i
  done;
  let churn () =
    for i = 1 to iters do
      let v = Heap.pop_unsafe h in
      Heap.add h ~key:(i * 7919 mod 1000) v
    done
  in
  churn ();
  (* pre-sized, warmed *)
  let overhead = probe_overhead () in
  let a0 = Gc.allocated_bytes () in
  churn ();
  let a1 = Gc.allocated_bytes () in
  let net = a1 -. a0 -. overhead in
  if net > slack_bytes then
    Alcotest.failf "Heap churn allocated %.0f bytes over %d add+pop pairs; expected 0" net
      iters

(* Discrete sampling must cost O(log n) time and O(1) allocation in the
   entry count: the per-sample bytes at 4096 entries may not exceed the
   4-entry figure plus slack. The pre-fix implementation rebuilt the
   cumulative-weight array per draw (O(n) bytes); a float-argument
   recursion re-boxes per level (O(log n) bytes); both fail this. A small
   constant per draw (Rng boxing) is expected and cancels out. *)
let test_discrete_sample_alloc_size_independent () =
  let module Service_dist = Repro_workload.Service_dist in
  let module Rng = Repro_engine.Rng in
  let draws = 100_000 in
  let per_sample_bytes n =
    let d =
      Service_dist.discrete (Array.init n (fun i -> (1.0 +. float_of_int (i mod 7), 1.0)))
    in
    let rng = Rng.create ~seed:21 in
    let burn = ref 0.0 in
    for _ = 1 to draws do
      burn := !burn +. Service_dist.sample d rng
    done;
    (* warmed *)
    let overhead = probe_overhead () in
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to draws do
      burn := !burn +. Service_dist.sample d rng
    done;
    let a1 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity !burn);
    (a1 -. a0 -. overhead) /. float_of_int draws
  in
  let small = per_sample_bytes 4 in
  let big = per_sample_bytes 4096 in
  if big > small +. 8.0 then
    Alcotest.failf
      "Discrete sample allocation grew with entry count: %.1f B/sample at n=4 vs %.1f at \
       n=4096"
      small big

(* The whole standalone server event path allocates nothing per event:
   dispatcher ops, worker events, the central and local queues and the
   preemption arithmetic. Per-request allocation (the request, its sample,
   its [live] entry and metrics samples) is allowed. A 1 us quantum
   preempts ycsb-a's long requests about five times as often as 5 us:
   some 280 more events per request, so even one word per event on the
   preemption path (over 2 KB per request) exceeds the slack between the
   two runs. The absolute bound catches per-event allocation on the paths
   both runs share. Concord covers the dispatcher path, concord-sls the
   logical queue's steering, stealing and scanner. *)
let server_bytes_per_req (make : Repro_runtime.Systems.args) ~quantum_ns =
  let n_requests = 20_000 in
  let run () =
    let events = ref 0 in
    ignore
      (Repro_runtime.Server.run_detailed
         ~config:(make ~quantum_ns ())
         ~mix:Repro_workload.Presets.ycsb_a
         ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 1.2e5 })
         ~n_requests ~seed:3 ~events_out:events ()
        : Repro_runtime.Metrics.summary * Repro_engine.Stats.t);
    !events
  in
  ignore (run () : int);
  let overhead = probe_overhead () in
  let a0 = Gc.allocated_bytes () in
  let events = run () in
  let a1 = Gc.allocated_bytes () in
  let per_req x = x /. float_of_int n_requests in
  (per_req (a1 -. a0 -. overhead), per_req (float_of_int events))

let test_server_zero_alloc_per_event () =
  List.iter
    (fun (name, make) ->
      let b5, e5 = server_bytes_per_req make ~quantum_ns:5_000 in
      let b1, e1 = server_bytes_per_req make ~quantum_ns:1_000 in
      if e1 < 2.0 *. e5 then
        Alcotest.failf "%s: the 1 us run must handle far more events per request (%.1f vs %.1f)"
          name e1 e5;
      if b1 > b5 +. slack_bytes then
        Alcotest.failf
          "%s: bytes per request grew with events per request: %.1f B/req at %.1f events/req \
           (1 us) vs %.1f at %.1f (5 us)"
          name b1 e1 b5 e5;
      if b5 > 1024.0 || b1 > 1024.0 then
        Alcotest.failf "%s: server allocated %.1f / %.1f B/req (5 us / 1 us); bound 1024" name b5
          b1)
    [ ("concord", Repro_runtime.Systems.concord); ("concord-sls", Repro_runtime.Systems.concord_sls) ]

(* Appending to a WAL whose buffer already holds the records allocates
   nothing: the CRC state is an immediate int and each record is encoded
   in place. [truncate] keeps the buffer, so the second pass appends the
   same records into capacity the first pass reached. *)
let test_wal_append_zero_alloc () =
  let module Wal = Repro_kvstore.Wal in
  let module Skiplist = Repro_kvstore.Skiplist in
  let records = 10_000 in
  let key = "e00000042" and value = Skiplist.Value "term:3;req:1234;vvvvvvvvvvvvvvvvvvvvvvvv" in
  let wal = Wal.create () in
  let fill () =
    Wal.truncate wal;
    for _ = 1 to records do
      Wal.append wal ~key ~entry:value;
      Wal.append wal ~key ~entry:Skiplist.Tombstone
    done
  in
  fill ();
  let overhead = probe_overhead () in
  let a0 = Gc.allocated_bytes () in
  fill ();
  let a1 = Gc.allocated_bytes () in
  let net = a1 -. a0 -. overhead in
  if net > slack_bytes then
    Alcotest.failf "Wal.append allocated %.0f bytes over %d records (%.2f B/record); expected 0"
      net (2 * records)
      (net /. float_of_int (2 * records))

(* Consensus path allocation, on the raft-3node bench shape: default
   members, ycsb-a at 40% of the group's consensus-aware capacity, hedged
   lease reads and a 3x straggler, 2000 requests.

   Budget, 2 KB per request. A request still allocates its own objects:
   the client request, its sampled profile and client record, and on
   half the arrivals (the writes) three mini requests, the leader's
   append and two AppendEntries, with their four protocol messages
   (AppendEntries and acks) and two re-armed election timers. Each leg
   and mini request also takes a [live] entry and metrics samples at its
   member. Those come to about 1.2 KB. Log storage adds about 0.3 KB:
   three WAL records per write and the mirror logs, each buffer doubling
   as it grows. Setup (three instances, the event heap, the tables)
   spread over 2000 requests adds about 0.1 KB. The rest is slack for
   the straggler's backlog, whose in-flight tables grow with the run.
   The measured figure is about 1.7 KB. Boxing the CRC state per byte
   (about 1.8 KB per request) or formatting each record with [Printf]
   (about 1.3 KB) would each break the budget alone.

   A 1 us quantum preempts ycsb-a's long requests far more often: some
   1250 more events per request. One word per event on the
   member instances or the protocol path would add 10 KB per request, so
   the 1 us run may exceed the 5 us run by no more than [slack_bytes]. *)
let raft_bytes_per_req ~quantum_ns =
  let n_requests = 2_000 in
  let run () =
    let raft =
      Repro_raft.Raft.homogeneous
        ~hedge:(Repro_cluster.Hedge.Fixed { delay_ns = 150_000 })
        ~stragglers:[ (1, 3.0) ] ~nodes:3
        (Repro_runtime.Systems.concord ~quantum_ns ())
    in
    let events = ref 0 in
    ignore
      (Repro_raft.Raft.run_detailed ~raft ~mix:Repro_workload.Presets.ycsb_a
         ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 55.9e3 })
         ~n_requests ~seed:3 ~events_out:events ()
        : Repro_raft.Raft.summary * Repro_engine.Stats.t);
    !events
  in
  ignore (run () : int);
  let overhead = probe_overhead () in
  let a0 = Gc.allocated_bytes () in
  let events = run () in
  let a1 = Gc.allocated_bytes () in
  let per_req x = x /. float_of_int n_requests in
  (per_req (a1 -. a0 -. overhead), per_req (float_of_int events))

let raft_budget_bytes = 2048.0

let raft_5us = lazy (raft_bytes_per_req ~quantum_ns:5_000)

let test_raft_alloc_budget () =
  let b5, _ = Lazy.force raft_5us in
  if b5 > raft_budget_bytes then
    Alcotest.failf "Raft.run_detailed allocated %.1f B/req; budget %.0f" b5 raft_budget_bytes

let test_raft_zero_alloc_per_event () =
  let b5, e5 = Lazy.force raft_5us in
  let b1, e1 = raft_bytes_per_req ~quantum_ns:1_000 in
  if e1 < 2.0 *. e5 then
    Alcotest.failf "the 1 us run must handle far more events per request (%.1f vs %.1f)" e1 e5;
  if b1 > b5 +. slack_bytes then
    Alcotest.failf
      "raft bytes per request grew with events per request: %.1f B/req at %.1f events/req (1 \
       us) vs %.1f at %.1f (5 us)"
      b1 e1 b5 e5

(* Branching-IR overhead pin: volrend (Branch) and fmm (While) exercise
   the new control-flow constructors on the deterministic Table-1 path;
   their overhead and p99 lateness must stay bit-identical. *)
let test_golden_branching_overhead () =
  let module Ir = Repro_instrument.Ir in
  let module Pass = Repro_instrument.Pass in
  let module Analysis = Repro_instrument.Analysis in
  let module Timeliness = Repro_instrument.Timeliness in
  let clock = Repro_hw.Cycles.default in
  let pin name expected =
    let p = Option.get (Repro_instrument.Programs.by_name name) in
    let baseline = Ir.dynamic_size p.Ir.entry.Ir.body in
    let a = Analysis.analyze (Pass.run ~unroll:true p) in
    let t = Timeliness.of_gaps a ~clock in
    let got =
      Printf.sprintf "overhead=%.17g p99=%.17g"
        (Analysis.concord_overhead ~baseline_instrs:baseline a)
        t.Timeliness.p99_lateness_ns
    in
    Alcotest.(check string) ("branching/" ^ name) expected got
  in
  pin "volrend" "overhead=0.0062842609216038304 p99=990.5799999999997";
  pin "fmm" "overhead=-0.0014676945668135096 p99=204.24999999999994"

let suite =
  [
    Alcotest.test_case "standalone metrics bit-identical to seed" `Quick
      test_golden_standalone;
    Alcotest.test_case "branching-IR overhead bit-identical" `Quick
      test_golden_branching_overhead;
    Alcotest.test_case "cluster metrics bit-identical to seed" `Quick test_golden_cluster;
    Alcotest.test_case "standalone paths bit-identical (every system, zippydb, batching)" `Quick
      test_golden_standalone_paths;
    Alcotest.test_case "standalone trace bit-identical" `Quick test_golden_standalone_trace;
    Alcotest.test_case "Sim.run allocates zero words/event" `Quick test_sim_run_zero_alloc;
    Alcotest.test_case "Heap add+pop allocates zero words/op" `Quick
      test_heap_churn_zero_alloc;
    Alcotest.test_case "Discrete sampling allocation independent of entry count" `Quick
      test_discrete_sample_alloc_size_independent;
    Alcotest.test_case "Server.run_detailed allocates nothing per event" `Quick
      test_server_zero_alloc_per_event;
    Alcotest.test_case "Wal.append allocates nothing per record" `Quick
      test_wal_append_zero_alloc;
    Alcotest.test_case "Raft.run_detailed stays within its allocation budget" `Quick
      test_raft_alloc_budget;
    Alcotest.test_case "Raft.run_detailed allocates nothing per event" `Quick
      test_raft_zero_alloc_per_event;
    (* After the allocation tests: the heap these runs leave behind skews
       their [Gc.allocated_bytes] deltas. *)
    Alcotest.test_case "raft paths bit-identical (failover, hedge, leases, overload)" `Quick
      test_golden_raft;
    Alcotest.test_case "raft trace bit-identical" `Quick test_golden_raft_trace;
    Alcotest.test_case "sls paths bit-identical (presets, zero overhead)" `Quick
      test_golden_sls;
    (* Last: its windowed runs spawn domains, whose allocation counts the
       GC may fold into [Gc.allocated_bytes] only later, inside the
       measured window of an allocation test that ran after it. *)
    Alcotest.test_case "rack paths bit-identical (rtt, steal, hedge, jbsq, par)" `Quick
      test_golden_rack;
  ]
