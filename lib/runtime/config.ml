type queue_model = Single_queue | Jbsq of int | Logical of { steal : bool }

type lock_model = Fine_grained | Whole_request

type adaptive = { min_quantum_ns : int; backlog_window : int }

type t = {
  name : string;
  n_workers : int;
  quantum_ns : int;
  adaptive_quantum : adaptive option;
  mechanism : Repro_hw.Mechanism.t;
  queue_model : queue_model;
  dispatcher_steals : bool;
  policy : Policy.kind;
  lock_model : lock_model;
  ingress_batch : int;
  costs : Repro_hw.Costs.t;
}

let validate t =
  if t.n_workers < 1 then invalid_arg "Config: need at least one worker";
  if t.quantum_ns < 1 then invalid_arg "Config: quantum must be positive";
  if t.ingress_batch < 1 then invalid_arg "Config: ingress batch must be >= 1";
  (match t.adaptive_quantum with
  | None -> ()
  | Some { min_quantum_ns; backlog_window } ->
    if min_quantum_ns < 1 then invalid_arg "Config: adaptive min quantum must be positive";
    if min_quantum_ns > t.quantum_ns then
      invalid_arg "Config: adaptive min quantum exceeds the base quantum";
    if backlog_window < 1 then invalid_arg "Config: adaptive backlog window must be >= 1");
  (match t.policy with
  | Policy.Srpt_noisy { sigma } ->
    if not (Float.is_finite sigma) || sigma < 0.0 then
      invalid_arg "Config: srpt-noisy sigma must be finite and >= 0"
  | Policy.Srpt_kv { means_ns } ->
    if Array.length means_ns = 0 then
      invalid_arg "Config: srpt-kv needs at least one per-class mean";
    Array.iter
      (fun m -> if m < 1 then invalid_arg "Config: srpt-kv class means must be >= 1ns")
      means_ns
  | Policy.Fcfs | Policy.Srpt | Policy.Gittins _ | Policy.Locality_fcfs -> ());
  match t.queue_model with
  | Jbsq k when k < 1 -> invalid_arg "Config: JBSQ depth must be >= 1"
  | Logical _ ->
    (match t.policy with
    | Policy.Fcfs -> ()
    | Policy.Srpt | Policy.Srpt_noisy _ | Policy.Srpt_kv _ | Policy.Gittins _
    | Policy.Locality_fcfs ->
      invalid_arg "Config: a logical queue serves FCFS only");
    if t.ingress_batch > 1 then invalid_arg "Config: a logical queue has no ingress to batch";
    if t.dispatcher_steals then invalid_arg "Config: a logical queue has no dispatcher to steal"
  | Jbsq _ | Single_queue -> ()

let jbsq_depth t = match t.queue_model with Single_queue | Logical _ -> 1 | Jbsq k -> k

let describe t =
  let queue =
    match t.queue_model with
    | Single_queue -> "SQ"
    | Jbsq k -> Printf.sprintf "JBSQ(%d)" k
    | Logical { steal } -> if steal then "logical(steal)" else "logical(partitioned)"
  in
  let quantum =
    match t.adaptive_quantum with
    | None -> Printf.sprintf "q=%.1fus" (float_of_int t.quantum_ns /. 1e3)
    | Some { min_quantum_ns; backlog_window } ->
      Printf.sprintf "q=%.1f..%.1fus/w%d"
        (float_of_int min_quantum_ns /. 1e3)
        (float_of_int t.quantum_ns /. 1e3)
        backlog_window
  in
  Printf.sprintf "%s: %d workers, %s, %s, %s%s, policy=%s" t.name t.n_workers quantum
    (Repro_hw.Mechanism.name t.mechanism)
    queue
    (if t.dispatcher_steals then "+steal" else "")
    (Policy.kind_name t.policy)
