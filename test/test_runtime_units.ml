(* Unit tests for the runtime's building blocks: requests, policies,
   bounded local queues, configuration, metrics. *)

module Request = Repro_runtime.Request
module Policy = Repro_runtime.Policy
module Local_queue = Repro_runtime.Local_queue
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Systems = Repro_runtime.Systems
module Mix = Repro_workload.Mix

let profile ?(class_id = 0) ?(service_ns = 1_000) ?(locks = [||]) () =
  { Mix.class_id; service_ns; lock_windows = locks; probe_spacing_ns = 0.0 }

let request ?(id = 0) ?(arrival_ns = 0) ?class_id ?service_ns ?locks () =
  Request.create ~id ~arrival_ns ~profile:(profile ?class_id ?service_ns ?locks ())

(* --- request ----------------------------------------------------------- *)

let test_request_lifecycle () =
  let r = request ~service_ns:2_000 () in
  Alcotest.(check int) "remaining" 2_000 (Request.remaining_ns r);
  Alcotest.(check bool) "not complete" false (Request.is_complete r);
  r.Request.done_ns <- 500;
  Alcotest.(check int) "remaining after progress" 1_500 (Request.remaining_ns r);
  r.Request.completion_ns <- 10_000;
  Alcotest.(check int) "sojourn" 10_000 (Request.sojourn_ns r);
  Alcotest.(check (float 1e-9)) "slowdown" 5.0 (Request.slowdown r)

let test_defer_outside_window () =
  let r = request ~service_ns:1_000 ~locks:[| (200, 400) |] () in
  Alcotest.(check int) "before window" 100 (Request.defer_past_locks r 100);
  Alcotest.(check int) "after window" 500 (Request.defer_past_locks r 500)

let test_defer_inside_window () =
  let r = request ~service_ns:1_000 ~locks:[| (200, 400); (600, 700) |] () in
  Alcotest.(check int) "deferred to window end" 400 (Request.defer_past_locks r 250);
  Alcotest.(check int) "second window" 700 (Request.defer_past_locks r 600);
  Alcotest.(check int) "window start is inside" 400 (Request.defer_past_locks r 200)

let test_defer_clamps_to_service () =
  let r = request ~service_ns:1_000 ~locks:[| (900, 5_000) |] () in
  Alcotest.(check int) "clamped" 1_000 (Request.defer_past_locks r 950)

let test_sojourn_requires_completion () =
  let r = request () in
  Alcotest.check_raises "incomplete sojourn"
    (Invalid_argument "Request.sojourn_ns: not complete") (fun () ->
      ignore (Request.sojourn_ns r))

(* --- policy ------------------------------------------------------------- *)

let ids q ~worker =
  let rec go acc =
    match Policy.pop q ~worker with
    | None -> List.rev acc
    | Some r -> go (r.Request.id :: acc)
  in
  go []

let test_fcfs_order () =
  let q = Policy.create Policy.Fcfs in
  List.iter (fun id -> Policy.push_new q (request ~id ())) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "fcfs order" [ 1; 2; 3 ] (ids q ~worker:0)

let test_fcfs_preempted_to_tail () =
  let q = Policy.create Policy.Fcfs in
  Policy.push_new q (request ~id:1 ());
  let preempted = request ~id:9 () in
  preempted.Request.started <- true;
  Policy.push_preempted q preempted;
  Policy.push_new q (request ~id:2 ());
  Alcotest.(check (list int)) "preempted behind head" [ 1; 9; 2 ] (ids q ~worker:0)

let test_srpt_order () =
  let q = Policy.create Policy.Srpt in
  Policy.push_new q (request ~id:1 ~service_ns:5_000 ());
  Policy.push_new q (request ~id:2 ~service_ns:1_000 ());
  let started = request ~id:3 ~service_ns:9_000 () in
  started.Request.started <- true;
  started.Request.done_ns <- 8_900;
  (* 100ns remaining *)
  Policy.push_preempted q started;
  Alcotest.(check (list int)) "least remaining first" [ 3; 2; 1 ] (ids q ~worker:0)

let test_locality_prefers_last_worker () =
  let q = Policy.create Policy.Locality_fcfs in
  let a = request ~id:1 () and b = request ~id:2 () in
  b.Request.last_worker <- 4;
  Policy.push_new q a;
  Policy.push_preempted q b;
  (match Policy.pop q ~worker:4 with
  | Some r -> Alcotest.(check int) "worker 4 gets its request" 2 r.Request.id
  | None -> Alcotest.fail "empty");
  match Policy.pop q ~worker:4 with
  | Some r -> Alcotest.(check int) "then the head" 1 r.Request.id
  | None -> Alcotest.fail "empty"

let test_pop_not_started () =
  let q = Policy.create Policy.Fcfs in
  let started = request ~id:1 () in
  started.Request.started <- true;
  Policy.push_preempted q started;
  Policy.push_new q (request ~id:2 ());
  Alcotest.(check bool) "has fresh" true (Policy.has_not_started q);
  (match Policy.pop_not_started q with
  | Some r -> Alcotest.(check int) "skips started head" 2 r.Request.id
  | None -> Alcotest.fail "found none");
  Alcotest.(check bool) "only started left" false (Policy.has_not_started q);
  Alcotest.(check int) "started request still queued" 1 (Policy.length q)

let prop_policy_conserves =
  let gittins =
    Policy.Gittins
      (Repro_workload.Gittins.of_dist
         (Repro_workload.Service_dist.Exponential { mean_ns = 5_000.0 }))
  in
  QCheck.Test.make ~count:200 ~name:"every policy pops each pushed request exactly once"
    QCheck.(pair (int_range 0 4) (list_of_size (Gen.int_range 0 30) (int_range 1 10_000)))
    (fun (kind_idx, services) ->
      let kind =
        List.nth
          [
            Policy.Fcfs;
            Policy.Srpt;
            Policy.Locality_fcfs;
            Policy.Srpt_noisy { sigma = 1.0 };
            gittins;
          ]
          kind_idx
      in
      let q = Policy.create kind in
      List.iteri (fun id s -> Policy.push_new q (request ~id ~service_ns:s ())) services;
      let popped = ids q ~worker:0 in
      List.sort compare popped = List.init (List.length services) (fun i -> i))

(* --- queue models ------------------------------------------------------- *)

(* Random push/pop sequences against a list model of each queue. The
   central queue recycles its list nodes and keeps no option links, so the
   model also checks that a pop never returns a request twice (a stale
   node) or [Request.none] (a cleared one). *)
type queue_op =
  | Push_new of int (* service *)
  | Push_preempted of int * int * int (* service, progress, last worker *)
  | Pop of int (* worker *)
  | Pop_not_started

let show_queue_op = function
  | Push_new s -> Printf.sprintf "push_new %d" s
  | Push_preempted (s, d, w) -> Printf.sprintf "push_preempted %d/%d@%d" d s w
  | Pop w -> Printf.sprintf "pop ~worker:%d" w
  | Pop_not_started -> "pop_not_started"

let gen_queue_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Push_new s) (int_range 1 50));
        ( 2,
          map3
            (fun s d w -> Push_preempted (s + 1, min d s, w))
            (int_range 1 50) (int_range 1 50) (int_range 0 3) );
        (3, map (fun w -> Pop w) (int_range 0 3));
        (1, return Pop_not_started);
      ])

(* A queued entry of the model: the request, whether it was pushed fresh,
   its rank key and its push order. *)
type entry = { r : Request.t; fresh : bool; key : int; seq : int }

let model_pop kind entries ~worker =
  let by_rank a b = compare (a.key, a.seq) (b.key, b.seq) in
  let min_of = function [] -> None | l -> Some (List.hd (List.sort by_rank l)) in
  match kind with
  | Policy.Fcfs -> ( match entries with [] -> None | e :: _ -> Some e)
  | Policy.Locality_fcfs -> (
    let window = List.filteri (fun i _ -> i < 8) entries in
    match List.find_opt (fun e -> e.r.Request.last_worker = worker) window with
    | Some e -> Some e
    | None -> ( match entries with [] -> None | e :: _ -> Some e))
  | _ -> (
    (* SRPT: the two heaps' minima, ties to the fresh one *)
    let fresh, started = List.partition (fun e -> e.fresh) entries in
    match (min_of fresh, min_of started) with
    | Some f, Some s -> if f.key <= s.key then Some f else Some s
    | (Some _ as f), None -> f
    | None, s -> s)

let model_pop_not_started kind entries =
  let fresh = List.filter (fun e -> e.fresh) entries in
  match kind with
  | Policy.Srpt -> (
    match List.sort (fun a b -> compare (a.key, a.seq) (b.key, b.seq)) fresh with
    | [] -> None
    | e :: _ -> Some e)
  | _ -> ( match fresh with [] -> None | e :: _ -> Some e)

let prop_policy_model =
  QCheck.Test.make ~count:300 ~name:"fcfs, locality-fcfs and srpt match a list model"
    QCheck.(
      pair (int_range 0 2)
        (make
           ~print:(fun l -> String.concat "; " (List.map show_queue_op l))
           Gen.(list_size (int_range 0 120) gen_queue_op)))
    (fun (kind_idx, ops) ->
      let kind = List.nth [ Policy.Fcfs; Policy.Locality_fcfs; Policy.Srpt ] kind_idx in
      let q = Policy.create kind in
      let model = ref [] and next_id = ref 0 and popped = Hashtbl.create 64 in
      let push ~fresh ~service ~progress ~last_worker =
        let r = request ~id:!next_id ~service_ns:service () in
        r.Request.started <- not fresh;
        r.Request.done_ns <- progress;
        r.Request.last_worker <- last_worker;
        let key = if fresh then service else service - progress in
        model := !model @ [ { r; fresh; key; seq = !next_id } ];
        incr next_id;
        if fresh then Policy.push_new q r else Policy.push_preempted q r
      in
      let take expected got what =
        match (expected, got) with
        | None, None -> ()
        | Some e, Some r ->
          if r == Request.none || Hashtbl.mem popped r.Request.id then
            QCheck.Test.fail_reportf "%s returned request %d again" what r.Request.id;
          if r != e.r then
            QCheck.Test.fail_reportf "%s returned %d, model says %d" what r.Request.id
              e.r.Request.id;
          Hashtbl.replace popped r.Request.id ();
          model := List.filter (fun x -> x.r != r) !model
        | Some e, None -> QCheck.Test.fail_reportf "%s: empty, model has %d" what e.r.Request.id
        | None, Some r -> QCheck.Test.fail_reportf "%s: got %d from an empty model" what r.Request.id
      in
      List.iter
        (fun op ->
          (match op with
          | Push_new service -> push ~fresh:true ~service ~progress:0 ~last_worker:(-1)
          | Push_preempted (service, progress, last_worker) ->
            push ~fresh:false ~service ~progress ~last_worker
          | Pop worker -> take (model_pop kind !model ~worker) (Policy.pop q ~worker) "pop"
          | Pop_not_started ->
            take (model_pop_not_started kind !model) (Policy.pop_not_started q) "pop_not_started");
          let n = List.length !model in
          if Policy.length q <> n then QCheck.Test.fail_reportf "length %d, model %d" (Policy.length q) n;
          if Policy.is_empty q <> (n = 0) then QCheck.Test.fail_report "is_empty disagrees";
          if Policy.has_not_started q <> List.exists (fun e -> e.fresh) !model then
            QCheck.Test.fail_report "has_not_started disagrees")
        ops;
      true)

let prop_local_queue_model =
  QCheck.Test.make ~count:300 ~name:"local queue matches a FIFO model"
    QCheck.(pair (int_range 0 3) (list_of_size (Gen.int_range 0 60) bool))
    (fun (capacity, pushes) ->
      let q = Local_queue.create ~capacity in
      let model = Queue.create () and next_id = ref 0 in
      List.iter
        (fun push ->
          if push then begin
            let r = request ~id:!next_id () in
            incr next_id;
            if Queue.length model >= capacity then
              match Local_queue.push q r with
              | () -> QCheck.Test.fail_report "push past capacity accepted"
              | exception Invalid_argument _ -> ()
            else begin
              Local_queue.push q r;
              Queue.push r model
            end
          end
          else begin
            match (Local_queue.pop q, Queue.take_opt model) with
            | None, None -> ()
            | Some r, Some m when r == m -> ()
            | _ -> QCheck.Test.fail_report "pop disagrees with the model"
          end;
          if Local_queue.length q <> Queue.length model then
            QCheck.Test.fail_report "length disagrees";
          if Local_queue.is_full q <> (Queue.length model >= capacity) then
            QCheck.Test.fail_report "is_full disagrees")
        pushes;
      true)

(* --- local queue --------------------------------------------------------- *)

let test_local_queue_fifo () =
  let q = Local_queue.create ~capacity:3 in
  List.iter (fun id -> Local_queue.push q (request ~id ())) [ 1; 2; 3 ];
  Alcotest.(check bool) "full" true (Local_queue.is_full q);
  let order =
    List.init 3 (fun _ ->
        match Local_queue.pop q with Some r -> r.Request.id | None -> -1)
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] order;
  Alcotest.(check bool) "empty" true (Local_queue.is_empty q)

let test_local_queue_bounds () =
  let q = Local_queue.create ~capacity:1 in
  Local_queue.push q (request ());
  Alcotest.check_raises "overflow" (Invalid_argument "Local_queue.push: queue full")
    (fun () -> Local_queue.push q (request ()))

let test_local_queue_zero_capacity () =
  let q = Local_queue.create ~capacity:0 in
  Alcotest.(check bool) "always full" true (Local_queue.is_full q);
  Alcotest.(check bool) "pop empty" true (Local_queue.pop q = None)

let test_local_queue_wraparound () =
  let q = Local_queue.create ~capacity:2 in
  for round = 0 to 9 do
    Local_queue.push q (request ~id:round ());
    match Local_queue.pop q with
    | Some r -> Alcotest.(check int) "wrap fifo" round r.Request.id
    | None -> Alcotest.fail "pop"
  done

(* --- config ---------------------------------------------------------------- *)

let test_config_validation () =
  let ok = Systems.concord () in
  Config.validate ok;
  Alcotest.check_raises "no workers" (Invalid_argument "Config: need at least one worker")
    (fun () -> Config.validate { ok with Config.n_workers = 0 });
  Alcotest.check_raises "bad quantum" (Invalid_argument "Config: quantum must be positive")
    (fun () -> Config.validate { ok with Config.quantum_ns = 0 });
  Alcotest.check_raises "bad depth" (Invalid_argument "Config: JBSQ depth must be >= 1")
    (fun () -> Config.validate { ok with Config.queue_model = Config.Jbsq 0 })

let test_jbsq_depth () =
  Alcotest.(check int) "SQ depth 1" 1 (Config.jbsq_depth (Systems.shinjuku ()));
  Alcotest.(check int) "concord depth 2" 2 (Config.jbsq_depth (Systems.concord ()))

let test_system_presets () =
  List.iter
    (fun name ->
      match Systems.by_name name with
      | Some make -> Config.validate (make ())
      | None -> Alcotest.failf "missing system %s" name)
    Systems.all_names;
  let shinjuku = Systems.shinjuku () in
  Alcotest.(check bool) "shinjuku is SQ" true
    (shinjuku.Config.queue_model = Config.Single_queue);
  Alcotest.(check bool) "shinjuku no steal" false shinjuku.Config.dispatcher_steals;
  let concord = Systems.concord () in
  Alcotest.(check bool) "concord steals" true concord.Config.dispatcher_steals;
  Alcotest.(check bool) "concord JBSQ(2)" true (concord.Config.queue_model = Config.Jbsq 2)

(* --- metrics ----------------------------------------------------------------- *)

let completed_request ?class_id ~id ~arrival_ns ~service_ns ~completion_ns () =
  let r = request ~id ~arrival_ns ?class_id ~service_ns () in
  r.Request.completion_ns <- completion_ns;
  r

let test_metrics_warmup_cutoff () =
  let m = Metrics.create ~warmup_before:5 ~n_classes:1 in
  for id = 0 to 9 do
    Metrics.record_completion m
      (completed_request ~id ~arrival_ns:0 ~service_ns:100 ~completion_ns:200 ())
  done;
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:1_000 ~n_workers:1 ~class_names:[| "c" |]
  in
  Alcotest.(check int) "all completions counted" 10 s.Metrics.completed;
  Alcotest.(check int) "warmup excluded from samples" 5 s.Metrics.measured

let test_metrics_censoring () =
  let m = Metrics.create ~warmup_before:0 ~n_classes:1 in
  Metrics.record_censored m (request ~id:0 ~arrival_ns:0 ~service_ns:100 ()) ~now_ns:10_000;
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:10_000 ~n_workers:1 ~class_names:[| "c" |]
  in
  Alcotest.(check int) "censored counted" 1 s.Metrics.censored;
  Alcotest.(check int) "censored measured separately" 1 s.Metrics.measured_censored;
  (* Regression: censored requests used to leak into [measured] via the
     shared slowdown sample pool; they are not completions. *)
  Alcotest.(check int) "censored not measured as completion" 0 s.Metrics.measured;
  Alcotest.(check (float 1e-6)) "lower-bound slowdown recorded" 100.0 s.Metrics.p999_slowdown

let test_metrics_percentiles () =
  let m = Metrics.create ~warmup_before:0 ~n_classes:2 in
  (* 9 fast requests in class 0, one slow one in class 1 *)
  for id = 0 to 8 do
    Metrics.record_completion m
      (completed_request ~id ~arrival_ns:0 ~service_ns:100 ~completion_ns:100 ())
  done;
  (* class_id out of range exercises the per-class guard *)
  let slow =
    completed_request ~class_id:7 ~id:9 ~arrival_ns:0 ~service_ns:100 ~completion_ns:1_000 ()
  in
  Metrics.record_completion m slow;
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:1_000 ~n_workers:1
      ~class_names:[| "fast"; "slow" |]
  in
  Alcotest.(check (float 1e-6)) "p50" 1.0 s.Metrics.p50_slowdown;
  Alcotest.(check (float 1e-6)) "p99.9 is the max" 10.0 s.Metrics.p999_slowdown

let test_negative_idle_gap_counter () =
  let m = Metrics.create ~warmup_before:0 ~n_classes:1 in
  Metrics.record_idle_gap m (-5);
  Metrics.record_idle_gap m 10;
  Metrics.record_idle_gap m (-1);
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:1_000 ~n_workers:1 ~class_names:[| "c" |]
  in
  Alcotest.(check int) "negative gaps counted, not dropped" 2 s.Metrics.negative_idle_gaps;
  Alcotest.(check (float 1e-6)) "distribution keeps only valid gaps" 10.0
    s.Metrics.median_idle_gap_ns

let test_goodput_single_completion () =
  (* Regression: with exactly one measured completion the goodput used to be
     divided by the whole run span (including warmup and drain), reporting a
     near-zero goodput for short runs. It must span the request's sojourn. *)
  let m = Metrics.create ~warmup_before:1 ~n_classes:1 in
  Metrics.record_completion m
    (completed_request ~id:0 ~arrival_ns:0 ~service_ns:100 ~completion_ns:500 ());
  Metrics.record_completion m
    (completed_request ~id:1 ~arrival_ns:1_000 ~service_ns:100 ~completion_ns:2_000 ());
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:500_000_000 ~n_workers:1
      ~class_names:[| "c" |]
  in
  Alcotest.(check int) "one measured completion" 1 s.Metrics.measured;
  (* 1 completion over its own 1000ns sojourn = 1e6 rps. *)
  Alcotest.(check (float 1.0)) "goodput spans the measured sojourn" 1e6 s.Metrics.goodput_rps

let test_ingress_batch_cost () =
  let module Costs = Repro_hw.Costs in
  let d = Costs.default in
  (* Default 150-cycle ingress: marginal is the historical 40% = 60. *)
  Alcotest.(check int) "marginal at default" 60 (Costs.ingress_batch_marginal_cycles d);
  Alcotest.(check int) "batch of one pays full price" d.Costs.disp_ingress_cycles
    (Costs.ingress_batch_cost_cycles d ~batch:1);
  Alcotest.(check int) "batch of three" (150 + (2 * 60))
    (Costs.ingress_batch_cost_cycles d ~batch:3);
  (* Regression: tiny ingress costs used to truncate the marginal to 0,
     making arbitrarily large batches free. *)
  let tiny = { d with Costs.disp_ingress_cycles = 1 } in
  Alcotest.(check bool) "marginal never truncates to 0" true
    (Costs.ingress_batch_marginal_cycles tiny >= 1);
  Alcotest.(check bool) "large batches are never free" true
    (Costs.ingress_batch_cost_cycles tiny ~batch:100 > Costs.ingress_batch_cost_cycles tiny ~batch:1);
  (* Zero-cost model stays zero-cost. *)
  Alcotest.(check int) "zero-overhead batches stay free" 0
    (Costs.ingress_batch_cost_cycles Costs.zero_overhead ~batch:8)

let suite =
  [
    Alcotest.test_case "request lifecycle" `Quick test_request_lifecycle;
    Alcotest.test_case "lock deferral: outside windows" `Quick test_defer_outside_window;
    Alcotest.test_case "lock deferral: inside windows" `Quick test_defer_inside_window;
    Alcotest.test_case "lock deferral clamps to service" `Quick test_defer_clamps_to_service;
    Alcotest.test_case "sojourn requires completion" `Quick test_sojourn_requires_completion;
    Alcotest.test_case "FCFS order" `Quick test_fcfs_order;
    Alcotest.test_case "FCFS re-enqueues preempted at tail" `Quick test_fcfs_preempted_to_tail;
    Alcotest.test_case "SRPT least-remaining order" `Quick test_srpt_order;
    Alcotest.test_case "locality prefers last worker" `Quick test_locality_prefers_last_worker;
    Alcotest.test_case "dispatcher steals only fresh requests" `Quick test_pop_not_started;
    QCheck_alcotest.to_alcotest prop_policy_conserves;
    QCheck_alcotest.to_alcotest prop_policy_model;
    QCheck_alcotest.to_alcotest prop_local_queue_model;
    Alcotest.test_case "local queue FIFO" `Quick test_local_queue_fifo;
    Alcotest.test_case "local queue bounds" `Quick test_local_queue_bounds;
    Alcotest.test_case "local queue zero capacity" `Quick test_local_queue_zero_capacity;
    Alcotest.test_case "local queue wraparound" `Quick test_local_queue_wraparound;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "jbsq depth" `Quick test_jbsq_depth;
    Alcotest.test_case "system presets" `Quick test_system_presets;
    Alcotest.test_case "metrics warmup cutoff" `Quick test_metrics_warmup_cutoff;
    Alcotest.test_case "metrics censoring" `Quick test_metrics_censoring;
    Alcotest.test_case "metrics percentiles" `Quick test_metrics_percentiles;
    Alcotest.test_case "negative idle gaps are counted" `Quick test_negative_idle_gap_counter;
    Alcotest.test_case "goodput with one measured completion" `Quick
      test_goodput_single_completion;
    Alcotest.test_case "batched ingress cost never truncates" `Quick test_ingress_batch_cost;
  ]
