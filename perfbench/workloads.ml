(* The benchmark's four workloads: how each one's inputs are built from the
   workload seed, how one untraced run goes through the library's public
   entry point, and which checks that run's simulated output must pass.
   README.md says why each workload was chosen. *)

module Par_sim = Repro_engine.Par_sim
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Server = Repro_runtime.Server
module Policy = Repro_runtime.Policy
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival
module Presets = Repro_workload.Presets
module Kv_workload = Repro_kvstore.Kv_workload
module Store = Repro_kvstore.Store
module Cluster = Repro_cluster.Cluster
module Lb_policy = Repro_cluster.Lb_policy
module Hedge = Repro_cluster.Hedge
module Raft = Repro_raft.Raft

type t = Server_bimodal | Server_zippydb | Rack_seq | Raft_3node

let all =
  [
    ("server-bimodal", Server_bimodal);
    ("server-zippydb", Server_zippydb);
    ("rack-seq", Rack_seq);
    ("raft-3node", Raft_3node);
  ]

let of_string s = List.assoc_opt s all
let name w = fst (List.find (fun (_, w') -> w' = w) all)

(* The fixed input size each run simulates: about one host second on a
   2-core Xeon, so a 25 s measurement takes the median of some fifteen
   runs. Other tenants' memory traffic makes single runs noisy; many short
   runs average that out better than a few long ones. *)
let default_requests = function
  | Server_bimodal | Server_zippydb | Rack_seq -> 40_000
  | Raft_3node -> 4_000

type inputs =
  | Server_in of { config : Config.t; mix : Mix.t; arrival : Arrival.t; store : Store.t option }
  | Rack_in of { cluster : Cluster.t; mix : Mix.t; arrival : Arrival.t }
  | Raft_in of { raft : Raft.t; mix : Mix.t; arrival : Arrival.t }

let concord () = Repro_runtime.Systems.concord ()
let poisson rate_rps = Arrival.Poisson { rate_rps }

(* Ideal aggregate capacity of a Raft group: every write adds the leader's
   durable append and one AppendEntries per follower to its own service
   time (the same formula the CLI uses for its default load point). *)
let raft_capacity_rps (raft : Raft.t) mix =
  let total_workers =
    Array.fold_left
      (fun acc (s : Cluster.instance_spec) -> acc + s.config.Config.n_workers)
      0 raft.Raft.specs
  in
  let costs = raft.Raft.specs.(0).config.Config.costs in
  let nodes = Array.length raft.Raft.specs in
  let consensus_ns =
    float_of_int
      (Repro_hw.Costs.ns_of costs raft.Raft.log_write_cycles
      + ((nodes - 1) * Repro_hw.Costs.ns_of costs raft.Raft.follower_ae_cycles))
  in
  let eff_service_ns = Mix.mean_service_ns mix +. (raft.Raft.write_ratio *. consensus_ns) in
  float_of_int total_workers /. eff_service_ns *. 1e9

(* Everything a run needs before its first simulated event. The kvstore
   workload builds a fresh store each time: its writes mutate the store,
   so reusing one would change the next run's results. *)
let setup w ~seed =
  match w with
  | Server_bimodal ->
    Server_in { config = concord (); mix = Presets.ycsb_a; arrival = poisson 220e3; store = None }
  | Server_zippydb ->
    let store = Kv_workload.populate ~seed () in
    let mix = Kv_workload.zippydb_mix store ~seed in
    let policy =
      match Policy.of_spec "srpt-kv" ~mix with Ok k -> k | Error e -> failwith e
    in
    Server_in
      {
        config = { (concord ()) with Config.policy };
        mix;
        arrival = poisson 300e3;
        store = Some store;
      }
  | Rack_seq ->
    let cluster =
      Cluster.homogeneous ~policy:Lb_policy.Po2c ~rtt_cycles:4_000 ~instances:4 (concord ())
    in
    Rack_in { cluster; mix = Presets.ycsb_a; arrival = poisson 880e3 }
  | Raft_3node ->
    let raft =
      Raft.homogeneous
        ~hedge:(Hedge.Fixed { delay_ns = 150_000 })
        ~stragglers:[ (1, 3.0) ] ~nodes:3 (concord ())
    in
    let mix = Presets.ycsb_a in
    Raft_in { raft; mix; arrival = poisson (0.4 *. raft_capacity_rps raft mix) }

let mix_of = function
  | Server_in { mix; _ } | Rack_in { mix; _ } | Raft_in { mix; _ } -> mix

let arrival_of = function
  | Server_in { arrival; _ } | Rack_in { arrival; _ } | Raft_in { arrival; _ } -> arrival

(* ---- output checks ------------------------------------------------------ *)

(* Digest of a simulated summary. Every field enters it (marshalled without
   sharing, so only the value matters), hence any change in simulated
   results changes it; host timings are not part of a summary. *)
let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let conservation ~what ~arrivals (s : Metrics.summary) =
  (if s.completed + s.censored <> arrivals then
     [
       Printf.sprintf "%s: completed %d + censored %d <> arrivals %d" what s.completed
         s.censored arrivals;
     ]
   else [])
  @
  if s.negative_idle_gaps <> 0 then
    [ Printf.sprintf "%s: %d negative idle gaps" what s.negative_idle_gaps ]
  else []

let idle_gaps ~what (per : Metrics.summary array) =
  Array.to_list per
  |> List.filter_map (fun (s : Metrics.summary) ->
         if s.negative_idle_gaps <> 0 then
           Some (Printf.sprintf "%s: %d negative idle gaps" what s.negative_idle_gaps)
         else None)

let engine_check ~asked ~ran =
  if Par_sim.to_string asked <> Par_sim.to_string ran then
    [
      Printf.sprintf "engine %s ran where %s was asked for" (Par_sim.to_string ran)
        (Par_sim.to_string asked);
    ]
  else []

let of_result = function Ok () -> [] | Error e -> [ e ]

type summary =
  | Server_sum of Metrics.summary
  | Rack_sum of Cluster.summary
  | Raft_sum of Raft.summary

type outcome = {
  summary : summary;
  arrivals : int;
  events : int;
  engine_ran : Par_sim.t;
  fingerprint : string;
  failures : string list;
}

let server_outcome ~n summary events =
  {
    summary = Server_sum summary;
    arrivals = n;
    events;
    engine_ran = Par_sim.Seq;
    fingerprint = fingerprint summary;
    failures = conservation ~what:"server" ~arrivals:n summary;
  }

let rack_outcome ~asked (s : Cluster.summary) events =
  {
    summary = Rack_sum s;
    arrivals = s.requests;
    events;
    engine_ran = s.engine;
    fingerprint = fingerprint s;
    failures =
      of_result (Cluster.check_invariants s)
      @ conservation ~what:"rack" ~arrivals:s.requests s.cluster
      @ idle_gaps ~what:"rack instance" s.per_instance
      @ engine_check ~asked ~ran:s.engine;
  }

let raft_outcome ~asked (s : Raft.summary) events =
  {
    summary = Raft_sum s;
    arrivals = s.requests;
    events;
    engine_ran = s.engine;
    fingerprint = fingerprint s;
    failures =
      of_result (Raft.check_invariants s)
      @ conservation ~what:"raft client" ~arrivals:s.requests s.client
      @ idle_gaps ~what:"raft member" s.per_node
      @ engine_check ~asked ~ran:s.engine;
  }

(* One untraced run through the library's public entry point, asking for
   [engine] (a standalone server always runs on the sequential engine). *)
let run inputs ~engine ~n ~seed =
  let events = ref 0 in
  match inputs with
  | Server_in { config; mix; arrival; _ } ->
    let s, _ =
      Server.run_detailed ~config ~mix ~arrival ~n_requests:n ~seed ~events_out:events ()
    in
    server_outcome ~n s !events
  | Rack_in { cluster; mix; arrival } ->
    let s, _ =
      Cluster.run_detailed ~cluster ~mix ~arrival ~n_requests:n ~seed ~events_out:events ~engine
        ()
    in
    rack_outcome ~asked:engine s !events
  | Raft_in { raft; mix; arrival } ->
    let s, _ =
      Raft.run_detailed ~raft ~mix ~arrival ~n_requests:n ~seed ~events_out:events ~engine ()
    in
    raft_outcome ~asked:engine s !events
