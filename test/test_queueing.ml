(* Tests for the closed-form queueing module, including cross-validation of
   the simulator against theory: a zero-overhead server is an M/M/c queue
   and must reproduce the Erlang-C mean wait. *)

module Queueing = Repro_engine.Queueing
module Systems = Repro_runtime.Systems
module Metrics = Repro_runtime.Metrics
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival

let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let test_erlang_c_known_values () =
  (* M/M/1: Erlang-C equals the utilization. *)
  Alcotest.(check bool) "M/M/1 rho=0.5" true
    (feq ~tol:1e-12 (Queueing.erlang_c ~servers:1 ~offered_load:0.5) 0.5);
  (* Textbook value: c=2, a=1 -> P(wait)=1/3. *)
  Alcotest.(check bool) "c=2 a=1" true
    (feq ~tol:1e-12 (Queueing.erlang_c ~servers:2 ~offered_load:1.0) (1.0 /. 3.0));
  Alcotest.(check bool) "zero load" true
    (feq (Queueing.erlang_c ~servers:4 ~offered_load:0.0) 0.0)

let test_erlang_c_monotone_in_load () =
  let prev = ref 0.0 in
  List.iter
    (fun a ->
      let p = Queueing.erlang_c ~servers:8 ~offered_load:a in
      Alcotest.(check bool) "monotone" true (p >= !prev);
      prev := p)
    [ 1.0; 2.0; 4.0; 6.0; 7.0; 7.9 ]

let test_stability_guard () =
  Alcotest.check_raises "unstable rejected"
    (Invalid_argument "Queueing: offered load must be in [0, servers)") (fun () ->
      ignore (Queueing.erlang_c ~servers:2 ~offered_load:2.0))

let test_mm1_sojourn () =
  (* lambda=0.5, mu=1: T = 1/(mu-lambda) = 2. *)
  Alcotest.(check bool) "M/M/1 sojourn" true
    (feq ~tol:1e-12 (Queueing.mm1_mean_sojourn ~arrival_rate:0.5 ~service_rate:1.0) 2.0)

let test_mg1_reduces_to_mm1 () =
  (* Exponential service: E[S^2] = 2/mu^2; PK gives rho/(mu-lambda). *)
  let w = Queueing.mg1_mean_wait ~arrival_rate:0.5 ~mean_service:1.0 ~second_moment:2.0 in
  Alcotest.(check bool) "PK matches M/M/1 wait" true (feq ~tol:1e-12 w 1.0)

let test_mgc_deterministic_halves_wait () =
  let mmc = Queueing.mmc_mean_wait ~servers:4 ~arrival_rate:3.0 ~service_rate:1.0 in
  let mgc =
    Queueing.mgc_mean_wait_approx ~servers:4 ~arrival_rate:3.0 ~mean_service:1.0 ~scv:0.0
  in
  Alcotest.(check bool) "scv=0 halves the M/M/c wait" true (feq ~tol:1e-9 mgc (mmc /. 2.0))

let test_wait_quantile () =
  let q50 = Queueing.mmc_wait_quantile ~servers:1 ~arrival_rate:0.8 ~service_rate:1.0 ~p:0.5 in
  (* P(wait)=0.8 > 0.5, so the median wait is positive. *)
  Alcotest.(check bool) "median positive at rho=0.8" true (q50 > 0.0);
  let q10 = Queueing.mmc_wait_quantile ~servers:8 ~arrival_rate:1.0 ~service_rate:1.0 ~p:0.1 in
  Alcotest.(check bool) "light load: low quantiles are zero" true (feq q10 0.0)

(* Cross-validation: the zero-overhead simulator vs Erlang-C. *)
let test_simulator_matches_mmc_theory () =
  let servers = 4 in
  let mean_service = 1_000.0 (* ns *) in
  let arrival_rate = 3.2e6 (* rps: rho = 0.8 *) in
  let mix = Mix.of_dist ~name:"expo" (Service_dist.Exponential { mean_ns = mean_service }) in
  let config = Systems.ideal_no_preemption ~n_workers:servers () in
  let s =
    Repro_runtime.Server.run ~config ~mix
      ~arrival:(Arrival.Poisson { rate_rps = arrival_rate })
      ~n_requests:150_000 ()
  in
  (* Theory in ns: rates per ns. *)
  let wait_theory =
    Queueing.mmc_mean_wait ~servers ~arrival_rate:(arrival_rate /. 1e9)
      ~service_rate:(1.0 /. mean_service)
  in
  let sojourn_theory = wait_theory +. mean_service in
  let rel = Float.abs (s.Metrics.mean_sojourn_ns -. sojourn_theory) /. sojourn_theory in
  if rel > 0.05 then
    Alcotest.failf "simulated sojourn %.0fns vs M/M/%d theory %.0fns (%.1f%% off)"
      s.Metrics.mean_sojourn_ns servers sojourn_theory (100. *. rel)

let test_simulator_matches_mg1_theory () =
  (* One worker, deterministic service: M/D/1. *)
  let mean_service = 2_000.0 in
  let arrival_rate = 0.3e6 (* rho = 0.6 *) in
  let mix = Mix.of_dist ~name:"fixed" (Service_dist.Fixed mean_service) in
  let config = Systems.ideal_no_preemption ~n_workers:1 () in
  let s =
    Repro_runtime.Server.run ~config ~mix
      ~arrival:(Arrival.Poisson { rate_rps = arrival_rate })
      ~n_requests:150_000 ()
  in
  let wait_theory =
    Queueing.mg1_mean_wait ~arrival_rate:(arrival_rate /. 1e9) ~mean_service
      ~second_moment:(mean_service *. mean_service)
  in
  let sojourn_theory = wait_theory +. mean_service in
  let rel = Float.abs (s.Metrics.mean_sojourn_ns -. sojourn_theory) /. sojourn_theory in
  if rel > 0.05 then
    Alcotest.failf "simulated M/D/1 sojourn %.0f vs theory %.0f (%.1f%% off)"
      s.Metrics.mean_sojourn_ns sojourn_theory (100. *. rel)

(* Batch means over seeds. [shenango] on zero overheads is work-conserving
   with identical servers (an idle worker steals any queued request at
   once, for free), so with exponential service its number in system is
   exactly the M/M/c birth-death process, and by Little's law its mean
   sojourn is the Erlang-C wait plus one mean service, whatever order it
   serves requests in. Each seed is one independent batch; the theory
   must fall inside the 99% Student-t interval of the batch means. *)
let test_logical_queue_matches_mmc_batch_means () =
  let servers = 4 and mean_service = 10_000.0 (* ns *) in
  let arrival_rate = 0.7 *. float_of_int servers /. mean_service (* per ns: rho = 0.7 *) in
  let mix = Mix.of_dist ~name:"expo" (Service_dist.Exponential { mean_ns = mean_service }) in
  let config = Systems.shenango ~n_workers:servers ~costs:Repro_hw.Costs.zero_overhead () in
  let seeds = List.init 10 (fun i -> i + 1) in
  let batches =
    List.map
      (fun seed ->
        (Repro_runtime.Server.run ~config ~mix
           ~arrival:(Arrival.Poisson { rate_rps = arrival_rate *. 1e9 })
           ~n_requests:20_000 ~seed ())
          .Metrics.mean_sojourn_ns)
      seeds
  in
  let k = float_of_int (List.length batches) in
  let mean = List.fold_left ( +. ) 0.0 batches /. k in
  let var = List.fold_left (fun acc b -> acc +. ((b -. mean) ** 2.0)) 0.0 batches /. (k -. 1.0) in
  let half_width = 3.250 (* t(0.995, 9 dof) *) *. sqrt (var /. k) in
  let theory =
    Queueing.mmc_mean_wait ~servers ~arrival_rate ~service_rate:(1.0 /. mean_service)
    +. mean_service
  in
  if Float.abs (mean -. theory) > half_width then
    Alcotest.failf "M/M/%d mean sojourn %.0f ns outside the batch-means interval %.0f +- %.0f ns"
      servers theory mean half_width

let suite =
  [
    Alcotest.test_case "Erlang-C known values" `Quick test_erlang_c_known_values;
    Alcotest.test_case "Erlang-C monotone in load" `Quick test_erlang_c_monotone_in_load;
    Alcotest.test_case "stability guard" `Quick test_stability_guard;
    Alcotest.test_case "M/M/1 sojourn" `Quick test_mm1_sojourn;
    Alcotest.test_case "PK reduces to M/M/1" `Quick test_mg1_reduces_to_mm1;
    Alcotest.test_case "M/G/c with scv=0" `Quick test_mgc_deterministic_halves_wait;
    Alcotest.test_case "wait quantiles" `Quick test_wait_quantile;
    Alcotest.test_case "simulator = M/M/c theory" `Slow test_simulator_matches_mmc_theory;
    Alcotest.test_case "simulator = M/D/1 theory" `Slow test_simulator_matches_mg1_theory;
    Alcotest.test_case "logical queue = M/M/c (batch means)" `Quick
      test_logical_queue_matches_mmc_batch_means;
  ]
