module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Stats = Repro_engine.Stats
module Par_sim = Repro_engine.Par_sim
module Mailbox = Repro_engine.Mailbox
module Costs = Repro_hw.Costs
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Request = Repro_runtime.Request
module Server = Repro_runtime.Server

type instance_spec = { config : Config.t; speed_factor : float }

let spec ?(speed_factor = 1.0) config =
  if speed_factor <= 0.0 then invalid_arg "Cluster.spec: speed_factor must be positive";
  Config.validate config;
  (* Cancelling a hedge leg and surrendering a queued request both go
     through the member's dispatcher, which a logical queue lacks. *)
  (match config.Config.queue_model with
  | Config.Logical _ -> invalid_arg "Cluster.spec: a logical-queue server has no dispatcher"
  | Config.Single_queue | Config.Jbsq _ -> ());
  { config; speed_factor }

type t = {
  policy : Lb_policy.t;
  rtt_cycles : int;
  hedge : Hedge.t;
  cancel_cost_cycles : int option;
  steal : bool;
  specs : instance_spec array;
}

let make ?(policy = Lb_policy.Po2c) ?(rtt_cycles = 0) ?(hedge = Hedge.Off)
    ?cancel_cost_cycles ?(steal = false) specs =
  if Array.length specs < 1 then invalid_arg "Cluster.make: need at least one instance";
  if rtt_cycles < 0 then invalid_arg "Cluster.make: rtt_cycles must be >= 0";
  (match cancel_cost_cycles with
  | Some c when c < 0 -> invalid_arg "Cluster.make: cancel_cost_cycles must be >= 0"
  | _ -> ());
  Array.iter (fun s -> ignore (spec ~speed_factor:s.speed_factor s.config)) specs;
  (match policy with
  | Lb_policy.Jbsq n when n < 1 -> invalid_arg "Cluster.make: jbsq bound must be >= 1"
  | _ -> ());
  { policy; rtt_cycles; hedge; cancel_cost_cycles; steal; specs }

let homogeneous ?policy ?rtt_cycles ?hedge ?cancel_cost_cycles ?steal ?(stragglers = [])
    ~instances config =
  if instances < 1 then invalid_arg "Cluster.homogeneous: need at least one instance";
  let specs = Array.init instances (fun _ -> spec config) in
  List.iter
    (fun (i, f) ->
      if i < 0 || i >= instances then
        invalid_arg "Cluster.homogeneous: straggler index out of range";
      specs.(i) <- spec ~speed_factor:f config)
    stragglers;
  make ?policy ?rtt_cycles ?hedge ?cancel_cost_cycles ?steal specs

type summary = {
  policy : Lb_policy.t;
  rtt_cycles : int;
  instances : int;
  requests : int;
  total_workers : int;
  cluster : Metrics.summary;
  per_instance : Metrics.summary array;
  routed : int array;
  lb_held : int;
  lb_unrouted : int;
  lb_censored : int;
  hedge : Hedge.t;
  steal : bool;
  hedges : int;
  hedge_wins : int;
  hedge_cancels : int;
  hedge_wasted_ns : int;
  steals : int;
  engine : Par_sim.t;
  domains_used : int;
}

(* One event type for both drivers: the balancer's own steps, the records
   a shard reports back to it, and the steps that execute at one instance
   (which the windowed driver keeps in per-shard heaps). *)
type ev =
  | Arrive
  | Credit of { inst : int }
  | Hedge_fire of { req : Request.t; primary : int }
      (* the hedge delay elapsed with [req] still incomplete: consider
         duplicating it onto a second server *)
  | Cancel of { req : Request.t } (* revocation reaching the loser's server *)
  | Steal_nack of { victim : int; thief : int }
  | End_of_run
  | Completed of { inst : int; req : Request.t }
  | Surrendered of { victim : int; thief : int; req : Request.t option }
  | Deliver of { inst : int; req : Request.t }
  | Steal_probe of { victim : int; thief : int }
  | Inst of { inst : int; ev : Server.event }

(* The balancer's state, shared by both drivers. *)
type balancer = {
  views : int array;
  routed : int array;
  pending : Request.t Queue.t;
  (* Every live leg, from dispatch until the host learns it finished:
     id -> (instance responsible for it now, leg, delivery time). Steal
     forwarding re-points it, so a revocation can chase a moved leg. *)
  legs : (int, int * Request.t * int) Hashtbl.t;
  steal_pending : bool array;
  (* origin id -> (primary leg, duplicate leg), for pairs with no
     completed leg yet; the first completion wins and revokes the other. *)
  hedged : (int, Request.t * Request.t) Hashtbl.t;
  (* Revoked legs whose discard has not yet been observed; whatever is
     left at the end of the run still counts as wasted work. *)
  zombies : (int, Request.t) Hashtbl.t;
  (* Rack-level accumulator: sees every completion and censoring, so
     counts, goodput (over the global measured span), sojourns and
     per-class tails come out exactly; the per-instance metrics stay the
     breakdowns. *)
  agg : Metrics.t;
  (* Requests censored while still at the balancer or on the wire belong
     to no instance; they get their own accumulator so the merge-all in
     the summary covers the full population. *)
  lb_metrics : Metrics.t;
  (* Per-instance population counts and samples, fed from completion
     records, for a host that lags its shards and so cannot read their
     accumulators ([None]: the instances' own metrics are current). *)
  mirror : Metrics.t array option;
  mutable arrived : int;
  mutable finished : int;
  mutable lb_held : int;
  mutable lb_censored : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable hedge_cancels : int;
  mutable hedge_wasted_ns : int;
  mutable steals : int;
  (* Duplicate legs get ids past the arrival sequence so every leg is
     globally unique in traces, [legs] and the instances' live tables. *)
  mutable next_leg_id : int;
}

let total_workers cluster =
  Array.fold_left (fun acc s -> acc + s.config.Config.n_workers) 0 cluster.specs

(* A step at instance [inst], under either driver. It reaches no balancer
   state: a steal probe's outcome is returned as the record to report. *)
let shard_handle inst = function
  | Inst { ev; _ } ->
    Server.Instance.handle inst ev;
    None
  | Deliver { req; _ } ->
    Server.Instance.inject inst req;
    None
  | Steal_probe { victim; thief } ->
    Some (Surrendered { victim; thief; req = Server.Instance.surrender inst })
  | _ -> invalid_arg "Cluster: host event on a shard"

(* Hedge pairs the run ended around (neither leg completed): revoke the
   duplicate so one leg per arrival is censored; its progress is waste. *)
let revoke_unresolved b =
  (Hashtbl.iter
     (fun _ ((_, dup) : Request.t * Request.t) ->
       dup.Request.cancelled <- true;
       b.hedge_cancels <- b.hedge_cancels + 1;
       b.hedge_wasted_ns <- b.hedge_wasted_ns + dup.Request.done_ns)
     b.hedged)
  [@lint.deterministic "counter accumulation; independent of iteration order"];
  Hashtbl.reset b.hedged

(* End of run: every leg not yet complete is censored exactly once,
   wherever it is. *)
let census b ~now_ns ~instances =
  revoke_unresolved b;
  let at_balancer req =
    b.lb_censored <- b.lb_censored + 1;
    Metrics.record_censored b.agg req ~now_ns;
    Metrics.record_censored b.lb_metrics req ~now_ns
  in
  (* Instances the host can read censor their own residents, which leaves
     [legs] holding only what is on the wire. *)
  if Option.is_none b.mirror then
    Array.iter
      (fun inst ->
        Server.Instance.censor_all inst ~now_ns ~also:(fun (req : Request.t) ->
            Metrics.record_censored b.agg req ~now_ns;
            Hashtbl.remove b.legs req.Request.id))
      instances;
  (Hashtbl.iter
     (fun _ ((i, req, delivered_at) : int * Request.t * int) ->
       if not req.Request.cancelled then
         match b.mirror with
         | Some mirror when delivered_at <= now_ns ->
           (* Resident at a shard the host cannot read: the mirror stands
              in for the shard's own censor_all. *)
           Metrics.record_censored b.agg req ~now_ns;
           Metrics.record_censored mirror.(i) req ~now_ns
         | Some _ | None -> at_balancer req)
     b.legs)
  [@lint.deterministic
    "hash order is stable for a fixed insertion history (non-randomized Hashtbl); \
     censored-request accounting is order-insensitive (multiset counts and samples)"];
  Queue.iter at_balancer b.pending

(* Windowed driver: each instance advances on its own heap, one domain per
   shard, in conservative windows of one wire leg. Actions reach shard [i]
   through [inbox.(i)] stamped with their landing time; records come back
   through [outbox.(i)] stamped with the shard's clock, and [handle] runs
   them on the host heap. Returns the events processed. *)
let run_windowed ~domains ~host ~sims ~inbox ~outbox ~action_min ~instances ~window_ns ~handle
    ~stopped =
  let shard_step ~shard ~until =
    let sim =
      (sims.(shard)
      [@lint.deterministic "shard-partitioned: heap [shard] is run only by its owning party"])
    in
    let inst =
      (instances.(shard)
      [@lint.deterministic "shard-partitioned: instance [shard] is run only by its owning party"])
    in
    Mailbox.drain inbox.(shard) ~f:(fun (at, ev) -> Sim.schedule_at sim ~time:at ev);
    Sim.run sim ~until
      ~handler:(fun _ ev ->
        match shard_handle inst ev with
        | Some record -> Mailbox.push outbox.(shard) (Sim.now sim, record)
        | None -> ())
      ()
  in
  let shard_next ~shard =
    Sim.next_time
      (sims.(shard)
      [@lint.deterministic "shard-partitioned: heap [shard] is read only by its owning party"])
  in
  let host_step ~start:_ ~until =
    action_min := max_int;
    (* Merge in shard order: the heap's stable (key, seq) tie-break then
       realizes the (timestamp, shard id, push sequence) order. *)
    Array.iter
      (fun ob -> Mailbox.drain ob ~f:(fun (at, ev) -> Sim.schedule_at host ~time:at ev))
      outbox;
    if not (stopped ()) then Sim.run host ~until ~handler:handle ();
    !action_min
  in
  ignore
    (Par_sim.run_windows ~domains ~n_shards:(Array.length sims) ~window_ns ~shard_step
       ~shard_next ~host_step
       ~host_next:(fun () -> if stopped () then max_int else Sim.next_time host)
       ~stopped ());
  Array.fold_left (fun acc s -> acc + Sim.events_processed s) (Sim.events_processed host) sims

(* One summary assembly for both drivers, after the hedging close-out. *)
let summarize b ~cluster ~mix ~arrival ~n_requests ~span_ns ~instances ~engine ~domains_used =
  (* Wasted-work closeout: duplicates of pairs a cleanly stopped run ended
     around, plus revoked legs whose discard the servers never got to
     observe. Their partial progress is hedging overhead the
     duplicate-rate alone hides. *)
  revoke_unresolved b;
  (Hashtbl.iter
     (fun _ (zombie : Request.t) ->
       b.hedge_wasted_ns <- b.hedge_wasted_ns + zombie.Request.done_ns)
     b.zombies)
  [@lint.deterministic "counter accumulation; independent of iteration order"];
  let n_inst = Array.length instances in
  let total_workers = total_workers cluster in
  let class_names = Array.map (fun (c : Mix.class_def) -> c.name) mix.Mix.classes in
  let population i =
    Option.fold b.mirror ~none:(Server.Instance.metrics instances.(i)) ~some:(fun m -> m.(i))
  in
  let per_instance =
    Array.init n_inst (fun i ->
        let summarize m =
          Metrics.summarize m
            ~offered_rps:(float_of_int b.routed.(i) /. (float_of_int span_ns /. 1e9))
            ~span_ns ~n_workers:cluster.specs.(i).config.Config.n_workers ~class_names
        in
        (* Population fields from the balancer's view (a mirror is exact at
           the stop instant); machinery counters from the instance itself
           (a shard's are exact at the enclosing window boundary —
           identical on a cleanly drained run, where no work remains past
           the last completion). Without a mirror both are one summary. *)
        let counted = summarize (population i) in
        let mach = summarize (Server.Instance.metrics instances.(i)) in
        {
          counted with
          Metrics.preemptions = mach.Metrics.preemptions;
          steal_slices = mach.Metrics.steal_slices;
          negative_idle_gaps = mach.Metrics.negative_idle_gaps;
          dispatcher_busy_frac = mach.Metrics.dispatcher_busy_frac;
          dispatcher_app_frac = mach.Metrics.dispatcher_app_frac;
          worker_busy_frac = mach.Metrics.worker_busy_frac;
          median_idle_gap_ns = mach.Metrics.median_idle_gap_ns;
        })
  in
  (* Headline slowdown percentiles come from one merge_all over the
     per-instance sample sets plus the balancer-censored stragglers; by
     construction this is the same multiset [agg] holds, so the merged
     view and the rack accumulator agree exactly — the override below just
     makes the cluster summary's provenance the per-instance breakdowns. *)
  let merged =
    Stats.merge_all
      (Metrics.slowdown_samples b.lb_metrics
      :: List.init n_inst (fun i -> Metrics.slowdown_samples (population i)))
  in
  let agg_summary =
    Metrics.summarize b.agg
      ~offered_rps:(Arrival.rate_rps arrival)
      ~span_ns ~n_workers:total_workers ~class_names
  in
  let pctl p = if Stats.is_empty merged then 0.0 else Stats.percentile merged p in
  let fsum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 per_instance in
  let isum f = Array.fold_left (fun acc s -> acc + f s) 0 per_instance in
  let cluster_summary =
    {
      agg_summary with
      Metrics.mean_slowdown = Stats.mean merged;
      p50_slowdown = pctl 50.0;
      p99_slowdown = pctl 99.0;
      p999_slowdown = pctl 99.9;
      preemptions = isum (fun s -> s.Metrics.preemptions);
      steal_slices = isum (fun s -> s.Metrics.steal_slices);
      negative_idle_gaps = isum (fun s -> s.Metrics.negative_idle_gaps);
      dispatcher_busy_frac = fsum (fun s -> s.Metrics.dispatcher_busy_frac) /. float_of_int n_inst;
      dispatcher_app_frac = fsum (fun s -> s.Metrics.dispatcher_app_frac) /. float_of_int n_inst;
      worker_busy_frac =
        Array.fold_left ( +. ) 0.0
          (Array.mapi
             (fun i s ->
               s.Metrics.worker_busy_frac *. float_of_int cluster.specs.(i).config.Config.n_workers)
             per_instance)
        /. float_of_int (max total_workers 1);
      median_idle_gap_ns = 0.0;
    }
  in
  ( {
      policy = cluster.policy;
      rtt_cycles = cluster.rtt_cycles;
      instances = n_inst;
      requests = n_requests;
      total_workers;
      cluster = cluster_summary;
      per_instance;
      routed = b.routed;
      lb_held = b.lb_held;
      lb_unrouted = Queue.length b.pending;
      lb_censored = b.lb_censored;
      hedge = cluster.hedge;
      steal = cluster.steal;
      hedges = b.hedges;
      hedge_wins = b.hedge_wins;
      hedge_cancels = b.hedge_cancels;
      hedge_wasted_ns = b.hedge_wasted_ns;
      steals = b.steals;
      engine;
      domains_used;
    },
    merged )

(* The rack, described once: balancer steps over [b], the instances, and
   one handler for every host event. The drivers differ only in [post], in
   how a completion reaches the balancer, and in their run loops. *)
let run_rack ~cluster ~mix ~arrival ~n_requests ~warmup_frac ~drain_cap_ns ~seed ~tracer
    ~on_decision ~engine ~events_out =
  let n_inst = Array.length cluster.specs in
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let lb_rng = Rng.split master in
  let mech_rngs = Array.init n_inst (fun _ -> Rng.split master) in
  let warmup_before = int_of_float (warmup_frac *. float_of_int n_requests) in
  let n_classes = Array.length mix.Mix.classes in
  let metrics () = Metrics.create ~warmup_before ~n_classes in
  (* Same in-flight bound as the standalone driver, per instance, plus the
     balancer's arrival/delivery/credit events riding the wire. *)
  let host = Sim.create ~capacity:((4 * total_workers cluster) + (8 * n_inst) + 16) () in
  (* The RTT is split across the two legs: request delivery rides the
     forward half, the completion credit rides the return half, so the
     balancer's view of a server lags the truth by up to one full RTT. *)
  let rtt_ns = Costs.ns_of cluster.specs.(0).config.Config.costs cluster.rtt_cycles in
  let one_way_ns = rtt_ns / 2 in
  let credit_ns = rtt_ns - one_way_ns in
  (* The windowed driver's plumbing: a heap per shard and a mailbox each way
     per host<->shard edge; on the shared clock every instance runs on [host]. *)
  let windowed, domains_used =
    match engine with
    | Par_sim.Seq -> (false, 1)
    | Par_sim.Par { domains } -> (true, max 1 (min domains n_inst))
  in
  let sims =
    Array.map
      (fun s ->
        if windowed then Sim.create ~capacity:((4 * s.config.Config.n_workers) + 16) () else host)
      cluster.specs
  in
  let mailboxes () =
    Array.init (if windowed then n_inst else 0) (fun _ -> Mailbox.create ~capacity:256 ())
  in
  let inbox = mailboxes () and outbox = mailboxes () in
  (* Earliest inbox action pushed during the current host window; the
     window loop folds it into the next window start so a skip-ahead can
     never jump past an undelivered action. *)
  let action_min = ref max_int in
  let b =
    {
      views = Array.make n_inst 0;
      routed = Array.make n_inst 0;
      pending = Queue.create ();
      legs = Hashtbl.create 64;
      steal_pending = Array.make n_inst false;
      hedged = Hashtbl.create 64;
      zombies = Hashtbl.create 64;
      agg = metrics ();
      lb_metrics = metrics ();
      mirror = (if windowed then Some (Array.init n_inst (fun _ -> metrics ())) else None);
      arrived = 0;
      finished = 0;
      lb_held = 0;
      lb_censored = 0;
      hedges = 0;
      hedge_wins = 0;
      hedge_cancels = 0;
      hedge_wasted_ns = 0;
      steals = 0;
      next_leg_id = n_requests;
    }
  in
  let views = b.views in
  let lb_state = Lb_policy.make_state ~rng:lb_rng in
  let hedge_on = cluster.hedge <> Hedge.Off && n_inst > 1 in
  let estimator = Hedge.make_estimator () in
  let instances = ref [||] in
  let stopped = ref false in
  let stop () =
    stopped := true;
    Sim.stop host
  in
  (* A host action reaching instance [i] at time [at]. On the shared clock
     a delivery over a 0 ns wire leg is injected inline. *)
  let post i ~at ev =
    if windowed then begin
      Mailbox.push inbox.(i) (at, ev);
      if at < !action_min then action_min := at
    end
    else
      match ev with
      | Deliver { req; _ } when at = Sim.now host -> Server.Instance.inject !instances.(i) req
      | _ -> Sim.schedule_at host ~time:at ev
  in
  (* Put [req] on the wire to instance [i]: it lands one forward leg later. *)
  let forward i (req : Request.t) =
    let at = Sim.now host + one_way_ns in
    Hashtbl.replace b.legs req.Request.id (i, req, at);
    post i ~at (Deliver { inst = i; req })
  in
  let rec do_credit i =
    views.(i) <- views.(i) - 1;
    (* A credit may free a slot the rack-level JBSQ bound was waiting on. *)
    drain_pending ();
    maybe_steal i
  and maybe_steal thief =
    (* An idle-looking server (empty view, nothing parked at the balancer)
       probes the fullest-looking peer for surplus work — RackSched-style
       rack-level stealing over the same stale views the LB uses. The view
       transfer is optimistic; a nack rolls it back one credit RTT later. *)
    if
      cluster.steal
      && (not b.steal_pending.(thief))
      && views.(thief) <= 0
      && Queue.is_empty b.pending
    then begin
      let victim = ref (-1) in
      for j = 0 to n_inst - 1 do
        if j <> thief && views.(j) >= 2 && (!victim < 0 || views.(j) > views.(!victim)) then
          victim := j
      done;
      if !victim >= 0 then begin
        let v = !victim in
        views.(v) <- views.(v) - 1;
        views.(thief) <- views.(thief) + 1;
        b.steal_pending.(thief) <- true;
        post v ~at:(Sim.now host + one_way_ns) (Steal_probe { victim = v; thief })
      end
    end
  and drain_pending () =
    if not (Queue.is_empty b.pending) then begin
      match Lb_policy.choose cluster.policy lb_state ~views with
      | None -> ()
      | Some j ->
        dispatch j (Queue.pop b.pending);
        drain_pending ()
    end
  and send_to i (req : Request.t) =
    views.(i) <- views.(i) + 1;
    b.routed.(i) <- b.routed.(i) + 1;
    forward i req
  and dispatch i req =
    (match on_decision with
    | None -> ()
    | Some f ->
      f ~views:(Array.copy views)
        ~lengths:(Array.map Server.Instance.inflight !instances)
        ~chosen:i);
    send_to i req;
    if hedge_on then begin
      let estimate_ns = req.Request.estimate_ns in
      match
        (* A duplicate's unqueued completion: forward wire leg, its own
           service, and the completion's return leg. *)
        Hedge.delay_ns cluster.hedge estimator ~estimate_ns
          ~lead_ns:((2 * one_way_ns) + estimate_ns)
      with
      | None -> ()
      | Some d -> Sim.schedule_after host ~delay:d (Hedge_fire { req; primary = i })
    end
  in
  let complete i (req : Request.t) =
    if hedge_on then begin
      Hedge.observe estimator ~sojourn_ns:(Request.sojourn_ns req)
        ~service_ns:req.Request.service_ns;
      match Hashtbl.find_opt b.hedged (Request.origin_id req) with
      | None -> ()
      | Some (primary, dup) ->
        (* First completion wins; revoke the loser. The cancel rides the
           forward wire leg to whichever server holds the loser now. *)
        Hashtbl.remove b.hedged (Request.origin_id req);
        let loser = if req == dup then primary else dup in
        if req == dup then b.hedge_wins <- b.hedge_wins + 1;
        loser.Request.cancelled <- true;
        b.hedge_cancels <- b.hedge_cancels + 1;
        Hashtbl.replace b.zombies loser.Request.id loser;
        Sim.schedule_after host ~delay:one_way_ns (Cancel { req = loser })
    end;
    Hashtbl.remove b.legs req.Request.id;
    Metrics.record_completion b.agg req;
    (match b.mirror with Some m -> Metrics.record_completion m.(i) req | None -> ());
    b.finished <- b.finished + 1;
    (* Both wire legs gate on the same ns-level condition: with a zero-ns
       credit leg the view updates synchronously, exactly like delivery
       does with a zero-ns forward leg. *)
    if credit_ns = 0 then do_credit i
    else Sim.schedule_after host ~delay:credit_ns (Credit { inst = i });
    if b.finished >= n_requests then stop ()
  in
  let discard i (req : Request.t) =
    Hashtbl.remove b.zombies req.Request.id;
    Hashtbl.remove b.legs req.Request.id;
    b.hedge_wasted_ns <- b.hedge_wasted_ns + req.Request.done_ns;
    (* A discarded leg never completes, so its send must be balanced by an
       explicit credit. Always scheduled (even at zero RTT): the discard
       can fire from deep inside the instance's dispatcher machinery, where
       re-entering it synchronously is not safe. *)
    Sim.schedule_after host ~delay:credit_ns (Credit { inst = i })
  in
  let rec handle sim = function
    (* Shard steps land on the host heap only under the shared clock,
       where they run inline and report inline. *)
    | (Inst { inst; _ } | Deliver { inst; _ } | Steal_probe { victim = inst; _ }) as ev -> (
      match shard_handle !instances.(inst) ev with Some record -> handle sim record | None -> ())
    | Arrive ->
      let now = Sim.now host in
      (* Service time is drawn at the balancer, before routing: every policy
         at the same seed schedules the identical request sequence. *)
      let profile = Mix.sample mix service_rng in
      let req = Request.create ~id:b.arrived ~arrival_ns:now ~profile in
      b.arrived <- b.arrived + 1;
      if b.arrived < n_requests then begin
        let gap = Arrival.next_gap_ns arrival arrival_rng ~index:(b.arrived - 1) in
        Sim.schedule_after host ~delay:gap Arrive
      end
      else Sim.schedule_after host ~delay:drain_cap_ns End_of_run;
      (* FIFO at the balancer: new arrivals queue behind parked ones. *)
      let target =
        if Queue.is_empty b.pending then Lb_policy.choose cluster.policy lb_state ~views
        else None
      in
      (match target with
      | Some i -> dispatch i req
      | None ->
        b.lb_held <- b.lb_held + 1;
        Queue.push req b.pending)
    | Credit { inst } -> do_credit inst
    | Hedge_fire { req; primary } ->
      if
        hedge_on
        && (not (Request.is_complete req))
        && (not req.Request.cancelled)
        && Hedge.within_budget cluster.hedge ~hedges:b.hedges ~primaries:b.arrived
      then begin
        (* Duplicate onto the shortest-view server other than the primary
           (deterministic: no extra RNG draws perturbing the LB stream). *)
        let target = ref (-1) in
        for j = 0 to n_inst - 1 do
          if j <> primary && (!target < 0 || views.(j) < views.(!target)) then target := j
        done;
        let bound_ok =
          match cluster.policy with
          | Lb_policy.Jbsq b -> views.(!target) < b
          | Lb_policy.Random | Lb_policy.Round_robin | Lb_policy.Jsq | Lb_policy.Po2c -> true
        in
        if bound_ok then begin
          let dup = Request.hedge_dup req ~id:b.next_leg_id in
          b.next_leg_id <- b.next_leg_id + 1;
          b.hedges <- b.hedges + 1;
          Hashtbl.replace b.hedged req.Request.id (req, dup);
          send_to !target dup
        end
      end
    | Cancel { req } -> (
      match Hashtbl.find_opt b.legs req.Request.id with
      | Some (j, _, _) -> Server.Instance.cancel !instances.(j) req
      | None -> ())
    | Completed { inst; req } -> complete inst req
    | Surrendered { victim = _; thief; req = Some req } ->
      b.steals <- b.steals + 1;
      b.steal_pending.(thief) <- false;
      (* Forward victim -> thief: one more hop on the wire. *)
      forward thief req
    | Surrendered { victim; thief; req = None } ->
      (* Nothing stealable (everything queued has already run): the nack
         returns after the credit leg and rolls the view transfer back. *)
      Sim.schedule_after host ~delay:credit_ns (Steal_nack { victim; thief })
    | Steal_nack { victim; thief } ->
      views.(victim) <- views.(victim) + 1;
      views.(thief) <- views.(thief) - 1;
      b.steal_pending.(thief) <- false
    | End_of_run ->
      census b ~now_ns:(Sim.now host) ~instances:!instances;
      stop ()
  in
  instances :=
    Array.init n_inst (fun i ->
        let s = cluster.specs.(i) in
        (* A shard's completion reaches the balancer as a record stamped
           with the shard's clock; on the shared clock, inline. *)
        let on_complete =
          if windowed then fun req ->
            Mailbox.push outbox.(i) (Sim.now sims.(i), Completed { inst = i; req })
          else complete i
        in
        Server.Instance.create ~sim:sims.(i)
          ~lift:(fun e -> Inst { inst = i; ev = e })
          ~config:s.config ~warmup_before ~n_classes ~rng:mech_rngs.(i)
          ~speed_factor:s.speed_factor ?cancel_cost_cycles:cluster.cancel_cost_cycles ?tracer
          ~on_complete
          ?on_cancelled:(if hedge_on then Some (discard i) else None)
          ());
  Sim.schedule_at host ~time:0 Arrive;
  let events =
    if windowed then
      run_windowed ~domains:domains_used ~host ~sims ~inbox ~outbox ~action_min
        ~instances:!instances ~window_ns:one_way_ns ~handle ~stopped:(fun () -> !stopped)
    else begin
      Sim.run host ~handler:handle ();
      Sim.events_processed host
    end
  in
  Option.iter (fun out -> out := events) events_out;
  summarize b ~cluster ~mix ~arrival ~n_requests ~span_ns:(max 1 (Sim.now host))
    ~instances:!instances ~domains_used
    ~engine:(if windowed then Par_sim.Par { domains = domains_used } else Par_sim.Seq)

(* Engine resolution: a Par request falls back to Seq — with a stderr
   warning, never silently — whenever the model has no lookahead to
   exploit or asks for an observation only the shared-clock path can
   provide. Computing a wrong answer fast is not an option. *)
let resolve_engine ~cluster ~tracer ~on_decision engine =
  match engine with
  | Par_sim.Seq -> Par_sim.Seq
  | Par_sim.Par _ as p ->
    let rtt_ns = Costs.ns_of cluster.specs.(0).config.Config.costs cluster.rtt_cycles in
    let degrade reason =
      Printf.eprintf "cluster: parallel engine degraded to seq: %s\n%!" reason;
      Par_sim.Seq
    in
    if rtt_ns / 2 <= 0 then
      degrade "zero lookahead (rtt_cycles rounds to a 0 ns wire leg; windows would be empty)"
    else if cluster.hedge <> Hedge.Off then
      degrade
        "hedging's winner-takes-all cancel flag couples servers with zero delay (no \
         lookahead; see DESIGN.md)"
    else if Option.is_some tracer then degrade "a shared tracer is not domain-safe"
    else if Option.is_some on_decision then
      degrade "on_decision observes instantaneous instance state across domains"
    else p

let run_detailed ~cluster ~mix ~arrival ~n_requests ?(warmup_frac = 0.1)
    ?(drain_cap_ns = 400_000_000) ?(seed = 42) ?tracer ?on_decision ?events_out
    ?(engine = Par_sim.Seq) () =
  if n_requests < 1 then invalid_arg "Cluster.run: need at least one request";
  run_rack ~cluster ~mix ~arrival ~n_requests ~warmup_frac ~drain_cap_ns ~seed ~tracer
    ~on_decision ~events_out
    ~engine:(resolve_engine ~cluster ~tracer ~on_decision engine)

let run ~cluster ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
    ?on_decision ?engine () =
  fst
    (run_detailed ~cluster ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
       ?on_decision ?engine ())

let check_invariants s =
  let inst_completed =
    Array.fold_left (fun acc (m : Metrics.summary) -> acc + m.Metrics.completed) 0 s.per_instance
  in
  let routed_sum = Array.fold_left ( + ) 0 s.routed in
  if inst_completed <> s.cluster.Metrics.completed then
    Error
      (Printf.sprintf "per-instance completions (%d) != cluster completions (%d)" inst_completed
         s.cluster.Metrics.completed)
  else if s.cluster.Metrics.completed + s.cluster.Metrics.censored <> s.requests then
    Error
      (Printf.sprintf "completed (%d) + censored (%d) != requests (%d)"
         s.cluster.Metrics.completed s.cluster.Metrics.censored s.requests)
  else if routed_sum + s.lb_unrouted <> s.requests + s.hedges then
    Error
      (Printf.sprintf "routed (%d) + unrouted (%d) != requests (%d) + hedges (%d)" routed_sum
         s.lb_unrouted s.requests s.hedges)
  else if s.hedge_cancels > s.hedges || s.hedge_wins > s.hedges then
    Error
      (Printf.sprintf "hedge accounting: wins (%d) / cancels (%d) exceed hedges (%d)"
         s.hedge_wins s.hedge_cancels s.hedges)
  else if s.cluster.Metrics.goodput_rps > s.cluster.Metrics.offered_rps *. 1.05 then
    Error
      (Printf.sprintf "goodput %.1f exceeds offered %.1f" s.cluster.Metrics.goodput_rps
         s.cluster.Metrics.offered_rps)
  else Ok ()
