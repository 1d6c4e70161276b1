module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Stats = Repro_engine.Stats
module Costs = Repro_hw.Costs
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Request = Repro_runtime.Request
module Server = Repro_runtime.Server
module Tracing = Repro_runtime.Tracing
module Cluster = Repro_cluster.Cluster
module Lb_policy = Repro_cluster.Lb_policy
module Hedge = Repro_cluster.Hedge
module Wal = Repro_kvstore.Wal
module Cost_meter = Repro_kvstore.Cost_meter
module Skiplist = Repro_kvstore.Skiplist

type role = Follower | Candidate | Leader

let role_name = function Follower -> "follower" | Candidate -> "candidate" | Leader -> "leader"

type t = {
  read_lb : Lb_policy.t;
  rtt_cycles : int;
  read_leases : bool;
  write_ratio : float;
  hedge : Hedge.t;
  heartbeat_cycles : int;
  election_timeout_cycles : int;
  lease_cycles : int;
  log_write_cycles : int;
  follower_ae_cycles : int;
  kill_leader_at_ns : int option;
  cancel_cost_cycles : int option;
  specs : Cluster.instance_spec array;
}

(* Defaults are stated in cycles of the members' cost model (2 GHz
   reference clock => 2 cycles per ns) and calibrated against the
   Concord/Ra consensus-overhead table in SNIPPETS.md: a ~50 us direct
   operation becomes ~190 us through a single-member group (local durable
   append dominates) and ~750-800 us through a three-member group (one-way
   wire, follower append, one-way ack ride on top, sequentially as that
   summary breaks them down). *)
let default_rtt_cycles = 880_000 (* 440 us round trip *)
let default_heartbeat_cycles = 200_000 (* 100 us *)
let default_election_timeout_cycles = 1_000_000 (* 500 us minimum *)

(* The leader's lease renews when the quorum heartbeat ack returns, one
   full RTT after the grant instant, so a useful lease must outlive the
   RTT by at least a heartbeat period. *)
let default_lease_cycles = 1_000_000 (* 500 us *)
let default_log_write_cycles = 280_000 (* 140 us: fsync-class durability *)
let default_follower_ae_cycles = 360_000 (* 180 us: decode + append + fsync *)

(* Each log entry's quorum acks are one bit per member of an int. *)
let max_members = 62

let make ?(read_lb = Lb_policy.Po2c) ?(rtt_cycles = default_rtt_cycles) ?(read_leases = true)
    ?(write_ratio = 0.5) ?(hedge = Hedge.Off) ?(heartbeat_cycles = default_heartbeat_cycles)
    ?(election_timeout_cycles = default_election_timeout_cycles)
    ?(lease_cycles = default_lease_cycles) ?(log_write_cycles = default_log_write_cycles)
    ?(follower_ae_cycles = default_follower_ae_cycles) ?kill_leader_at_ns ?cancel_cost_cycles
    specs =
  if Array.length specs = 0 then invalid_arg "Raft.make: need at least one member";
  if Array.length specs > max_members then
    invalid_arg "Raft.make: at most 62 members (quorum acks are one int bitmap)";
  if rtt_cycles < 0 then invalid_arg "Raft.make: rtt_cycles must be >= 0";
  if not (Float.is_finite write_ratio) || write_ratio < 0.0 || write_ratio > 1.0 then
    invalid_arg "Raft.make: write_ratio must be in [0, 1]";
  if heartbeat_cycles < 1 then invalid_arg "Raft.make: heartbeat_cycles must be positive";
  if election_timeout_cycles < 1 then
    invalid_arg "Raft.make: election_timeout_cycles must be positive";
  if lease_cycles < 1 then invalid_arg "Raft.make: lease_cycles must be positive";
  (* Lease safety: a member only grants its vote after its election timeout
     elapsed without leader contact, so no new leader can exist while a
     lease granted by the old one is still valid. *)
  if lease_cycles > election_timeout_cycles then
    invalid_arg "Raft.make: lease_cycles must not exceed election_timeout_cycles (lease safety)";
  if log_write_cycles < 1 then invalid_arg "Raft.make: log_write_cycles must be positive";
  if follower_ae_cycles < 1 then invalid_arg "Raft.make: follower_ae_cycles must be positive";
  (match kill_leader_at_ns with
  | Some t when t < 0 -> invalid_arg "Raft.make: kill_leader_at_ns must be >= 0"
  | _ -> ());
  (match cancel_cost_cycles with
  | Some c when c < 0 -> invalid_arg "Raft.make: cancel_cost_cycles must be >= 0"
  | _ -> ());
  Array.iter (fun (s : Cluster.instance_spec) -> Config.validate s.config) specs;
  {
    read_lb;
    rtt_cycles;
    read_leases;
    write_ratio;
    hedge;
    heartbeat_cycles;
    election_timeout_cycles;
    lease_cycles;
    log_write_cycles;
    follower_ae_cycles;
    kill_leader_at_ns;
    cancel_cost_cycles;
    specs;
  }

let homogeneous ?read_lb ?rtt_cycles ?read_leases ?write_ratio ?hedge ?heartbeat_cycles
    ?election_timeout_cycles ?lease_cycles ?log_write_cycles ?follower_ae_cycles
    ?kill_leader_at_ns ?cancel_cost_cycles ?(stragglers = []) ~nodes config =
  if nodes < 1 then invalid_arg "Raft.homogeneous: need at least one member";
  let specs = Array.init nodes (fun _ -> Cluster.spec config) in
  List.iter
    (fun (i, f) ->
      if i < 0 || i >= nodes then invalid_arg "Raft.homogeneous: straggler index out of range";
      if f < 1.0 then invalid_arg "Raft.homogeneous: straggler factor must be >= 1";
      specs.(i) <- Cluster.spec ~speed_factor:f config)
    stragglers;
  make ?read_lb ?rtt_cycles ?read_leases ?write_ratio ?hedge ?heartbeat_cycles
    ?election_timeout_cycles ?lease_cycles ?log_write_cycles ?follower_ae_cycles
    ?kill_leader_at_ns ?cancel_cost_cycles specs

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  nodes : int;
  read_leases : bool;
  requests : int;
  writes : int;
  reads : int;
  client : Metrics.summary;
  write_mean_ns : float;
  write_p50_ns : float;
  write_p99_ns : float;
  read_mean_ns : float;
  read_p50_ns : float;
  read_p99_ns : float;
  per_node : Metrics.summary array;
  roles : role array;
  alive : bool array;
  final_leader : int option;
  final_term : int;
  elections : int;
  leader_changes : int;
  committed : int;
  commit_indexes : int array;
  log_lengths : int array;
  wal_records : int array;
  resubmissions : int;
  parked : int;
  routed : int array;
  hedges : int;
  hedge_wins : int;
  hedge_cancels : int;
  hedge_wasted_ns : int;
  writes_hedged : int;
  leader_p99_slowdown : float;
  follower_p99_slowdown : float;
  invariant_failures : string list;
  engine : Repro_engine.Par_sim.t;
  domains_used : int;
}

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

(* Per-member protocol state. The mirror log ([log_terms]/[log_ids]) is
   the semantic Raft log used by elections, conflict truncation and the
   committed-entry-loss invariant; the {!Wal} alongside it is the real
   byte-encoded append path whose record count cross-checks it (it is
   append-only — conflict truncation leaves its superseded records in
   place, like a real log segment awaiting compaction). *)
type node = {
  id : int;
  wal : Wal.t;
  mutable log_terms : int array;
  mutable log_ids : int array;
  mutable log_len : int;
  mutable role : role;
  mutable term : int;
  mutable voted_for : int; (* -1: none this term *)
  mutable votes : int; (* as candidate *)
  mutable alive : bool;
  mutable commit_index : int;
  mutable lease_expiry_ns : int;
  mutable election_epoch : int; (* stale-timer guard *)
  mutable hb_epoch : int; (* stale-heartbeat-chain guard *)
  mutable next_round : int; (* heartbeat round counter (as leader) *)
  hb_round : int array;
  hb_sent_ns : int array;
  hb_acks : int array;
      (* the last [hb_window] heartbeat rounds, at [round land (hb_window - 1)]:
         round (-1: none), send time, follower acks; a round that has not
         reached quorum [hb_window] rounds later is dropped *)
  pending_ae : Int_table.t;
      (* index -> [pa_*] columns: processed AppendEntries waiting for their
         predecessor (out-of-order instance completion or a log gap being
         backfilled) *)
  mutable last_nack_len : int; (* damp duplicate backfill requests *)
  mutable sent_upto : int;
      (* as leader: highest index whose AppendEntries have been broadcast.
         Fan-out strictly follows log order even though the durable-append
         minis complete out of order across workers, so followers on FIFO
         links see gaps only around failover/truncation. *)
  elect_rng : Rng.t;
}

let hb_window = 16

(* Columns of a node's [pending_ae] table. *)
let pa_entry_term = 0
let pa_req_id = 1
let pa_msg_term = 2
let pa_leader = 3

(* Columns of the [entries] table: the replicating log entries at the
   current leader, keyed by log index. *)
let e_term = 0
let e_req_id = 1
let e_client = 2 (* client slot to apply on commit, or -1 *)

(* per-member ack bitmap: duplicate acks (backfill overlap) must not
   double-count toward the quorum *)
let e_acked = 3
let e_durable = 4 (* 0 or 1 *)

(* Columns of the [aux] table: what a consensus mini-request is doing,
   keyed by its request id. [m_kind] is [mini_append] (the leader's local
   durable append of entry [m_index] in term [m_term]) or [mini_ae] (a
   follower's AppendEntries of [m_index], entry term [m_term], sent by
   [m_leader] in [m_msg_term]). *)
let m_kind = 0
let m_node = 1
let m_index = 2
let m_term = 3
let m_req_id = 4
let m_msg_term = 5
let m_leader = 6
let mini_append = 0
let mini_ae = 1

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

type phase = Parked | Consensus | Served | Done

type client = {
  orig : Request.t;
  is_write : bool;
  mutable leg : Request.t; (* current live leg (a fresh dup after failover) *)
  mutable phase : phase;
  mutable node : int; (* member responsible while Consensus/Served *)
  mutable dup : Request.t option; (* hedge duplicate, lease reads only *)
  mutable dup_node : int;
}

type ev =
  | Arrive
  | Hb_tick of { node : int; epoch : int }
  | Hb_deliver of { node : int; from : int; term : int; sent_ns : int; round : int; leader_commit : int }
  | Hb_ack of { node : int; term : int; round : int }
  | Election_timeout of { node : int; epoch : int }
  | Vote_request of { node : int; from : int; term : int; last_index : int; last_term : int }
  | Vote_grant of { node : int; term : int }
  | Ae_deliver of { node : int; from : int; term : int; index : int; entry_term : int; req_id : int }
  | Ae_ack of { node : int; from : int; term : int; index : int }
  | Ae_nack of { node : int; from : int; term : int; follower_len : int }
  | Backfill_check of { node : int; leader : int; term : int; len : int }
      (* follower-local: if the log gap observed one RTT ago still hasn't
         closed from in-flight deliveries, ask the leader to backfill *)
  | Hedge_fire of { origin : int }
  | Cancel of { node : int; req : Request.t }
  | Kill_leader
  | End_of_run
  | Inst of { node : int; ev : Server.event }

let new_node ~id ~elect_rng =
  {
    id;
    wal = Wal.create ();
    log_terms = Array.make 64 0;
    log_ids = Array.make 64 0;
    log_len = 0;
    role = Follower;
    term = 1;
    voted_for = -1;
    votes = 0;
    alive = true;
    commit_index = 0;
    lease_expiry_ns = 0;
    election_epoch = 0;
    hb_epoch = 0;
    next_round = 0;
    hb_round = Array.make hb_window (-1);
    hb_sent_ns = Array.make hb_window 0;
    hb_acks = Array.make hb_window 0;
    pending_ae = Int_table.create ~cols:4;
    last_nack_len = -1;
    sent_upto = 0;
    elect_rng;
  }

let node_last_term nd = if nd.log_len = 0 then 0 else nd.log_terms.(nd.log_len - 1)

let push_log nd ~term ~req_id =
  if nd.log_len = Array.length nd.log_terms then begin
    let cap = 2 * nd.log_len in
    let terms = Array.make cap 0 and ids = Array.make cap 0 in
    Array.blit nd.log_terms 0 terms 0 nd.log_len;
    Array.blit nd.log_ids 0 ids 0 nd.log_len;
    nd.log_terms <- terms;
    nd.log_ids <- ids
  end;
  nd.log_terms.(nd.log_len) <- term;
  nd.log_ids.(nd.log_len) <- req_id;
  nd.log_len <- nd.log_len + 1

(* The text of a log entry's WAL record, key ["e%08d" index] and value
   ["term:%d;req:%d;" ^ 24 'v'], formatted without [Printf] into reused
   bytes: one byte string per length, each aliased by the string (and, for
   values, the [Skiplist.Value]) handed to {!Wal.append}. [Wal.append]
   copies a record's bytes before it returns and keeps no reference to
   them, so the next record may overwrite them. *)
module Wal_text = struct
  (* longest key: "e" and 19 digits; longest value: 5 + 19 + 5 + 20 + 1 + 24 *)
  let max_len = 80

  type t = { keys : Bytes.t array; values : Bytes.t array; entries : Skiplist.entry array }

  let create () =
    {
      keys = Array.make max_len Bytes.empty;
      values = Array.make max_len Bytes.empty;
      entries = Array.make max_len Skiplist.Tombstone;
    }

  let rec width n = if n < 0 then 1 + width (-n) else if n < 10 then 1 else 1 + width (n / 10)

  (* [n] right-aligned and zero-padded in [b.[pos, pos + w)]; the next
     position. *)
  let put_int b pos ~w n =
    let v = ref (abs n) in
    for i = pos + w - 1 downto pos do
      Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (!v mod 10)));
      v := !v / 10
    done;
    if n < 0 then Bytes.unsafe_set b pos '-';
    pos + w

  let put_string b pos s =
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s

  let key t index =
    let w = max 8 (width index) in
    let len = 1 + w in
    if Bytes.length t.keys.(len) <> len then t.keys.(len) <- Bytes.create len;
    let b = t.keys.(len) in
    Bytes.unsafe_set b 0 'e';
    ignore (put_int b 1 ~w index : int);
    Bytes.unsafe_to_string b

  let padding = String.make 24 'v'

  let value t ~term ~req_id =
    let wt = width term and wr = width req_id in
    let len = 5 + wt + 5 + wr + 1 + String.length padding in
    if Bytes.length t.values.(len) <> len then begin
      let b = Bytes.create len in
      t.values.(len) <- b;
      t.entries.(len) <- Skiplist.Value (Bytes.unsafe_to_string b)
    end;
    let b = t.values.(len) in
    let pos = put_string b 0 "term:" in
    let pos = put_int b pos ~w:wt term in
    let pos = put_string b pos ";req:" in
    let pos = put_int b pos ~w:wr req_id in
    Bytes.unsafe_set b pos ';';
    ignore (put_string b (pos + 1) padding : int);
    t.entries.(len)
end

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run_detailed ~raft ~mix ~arrival ~n_requests ?(warmup_frac = 0.1)
    ?(drain_cap_ns = 400_000_000) ?(seed = 42) ?tracer ?events_out
    ?(engine = Repro_engine.Par_sim.Seq) () =
  if n_requests < 1 then invalid_arg "Raft.run: need at least one request";
  (* Raft has no lookahead to exploit: consensus mini-requests, lease
     checks and commit-driven client injections all couple the protocol
     layer to co-located member instances at zero simulated delay (the
     per-link RTT prices the wire, not the hand-off). A conservative
     window of width 0 is no window at all, so a Par request degrades to
     the sequential engine — the same rule a 0-RTT cluster hits; the
     per-edge lookahead table in DESIGN.md walks the argument. *)
  (match engine with
  | Repro_engine.Par_sim.Seq -> ()
  | Repro_engine.Par_sim.Par _ ->
    Printf.eprintf
      "raft: parallel engine degraded to seq: consensus hand-offs are co-located \
       (zero-lookahead couplings; see DESIGN.md)\n%!");
  let n = Array.length raft.specs in
  let quorum = (n / 2) + 1 in
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let classify_rng = Rng.split master in
  let lb_rng = Rng.split master in
  let mech_rngs = Array.init n (fun _ -> Rng.split master) in
  let elect_rngs = Array.init n (fun _ -> Rng.split master) in
  let warmup_before = int_of_float (warmup_frac *. float_of_int n_requests) in
  let n_classes = Array.length mix.Mix.classes in
  (* Consensus mini-requests carry their own class so per-member tables
     separate protocol work from client work. *)
  let raft_class = n_classes in
  let inst_classes = n_classes + 1 in
  let costs0 = raft.specs.(0).Cluster.config.Config.costs in
  let cyc c = Costs.ns_of costs0 c in
  let one_way_ns = cyc raft.rtt_cycles / 2 in
  let heartbeat_ns = max 1 (cyc raft.heartbeat_cycles) in
  let election_timeout_ns = max 1 (cyc raft.election_timeout_cycles) in
  let lease_ns = max 1 (cyc raft.lease_cycles) in
  (* One representative record through the real WAL encoder prices the
     byte-proportional part of an append (checksum + copy, the kvstore
     cost model); the cycle knobs carry the fsync-class latency. *)
  let wal_record_ns =
    let scratch = Wal.create () in
    Wal.append scratch ~key:"e00000000" ~entry:(Skiplist.Value (String.make 48 'v'));
    let calib = Cost_meter.Calibration.default in
    int_of_float
      (calib.Cost_meter.Calibration.wal_append_ns
      +. (float_of_int (Wal.byte_size scratch) *. calib.Cost_meter.Calibration.wal_byte_ns))
  in
  let log_write_ns = cyc raft.log_write_cycles + wal_record_ns in
  let follower_ae_ns = cyc raft.follower_ae_cycles + wal_record_ns in
  let total_workers =
    Array.fold_left (fun acc (s : Cluster.instance_spec) -> acc + s.config.Config.n_workers) 0 raft.specs
  in
  let sim : ev Sim.t = Sim.create ~capacity:((4 * total_workers) + (16 * n) + 64) () in
  let nodes = Array.init n (fun i -> new_node ~id:i ~elect_rng:elect_rngs.(i)) in
  let clients : client option array = Array.make n_requests None in
  let client_metrics = Metrics.create ~warmup_before ~n_classes in
  let write_soj = Stats.create () and read_soj = Stats.create () in
  let views = Array.make n 0 in
  let routed = Array.make n 0 in
  let pending_writes : int Queue.t = Queue.create () in
  let pending_reads : int Queue.t = Queue.create () in
  let lb_state = Lb_policy.make_state ~rng:lb_rng in
  (* lease-read candidates, one id and one view array per candidate count *)
  let cand_ids = Array.init (n + 1) (fun k -> Array.make k 0) in
  let cand_views = Array.init (n + 1) (fun k -> Array.make k 0) in
  let entries = Int_table.create ~cols:5 in
  let aux = Int_table.create ~cols:7 in
  (* every committed entry's term and request id, by log index - 1 *)
  let committed_terms = ref (Array.make 64 0) in
  let committed_ids = ref (Array.make 64 0) in
  let committed_upto = ref 0 in
  let leaders_of_term : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let violations : string list ref = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let leader = ref (Some 0) in
  let elections = ref 1 (* the t=0 leader *) in
  let leader_changes = ref 0 in
  let resubmissions = ref 0 in
  let parked = ref 0 in
  let arrived = ref 0 in
  let finished = ref 0 in
  let writes_n = ref 0 in
  let reads_n = ref 0 in
  let stopped = ref false in
  let hedge_on = raft.hedge <> Hedge.Off && n > 1 && raft.read_leases in
  let estimator = Hedge.make_estimator () in
  let hedges = ref 0 in
  let hedge_wins = ref 0 in
  let hedge_cancels = ref 0 in
  let hedge_wasted_ns = ref 0 in
  let writes_hedged = ref 0 in
  let read_dispatches = ref 0 in
  (* Mini-requests, hedge duplicates and failover replays get ids past the
     arrival sequence, globally unique across members and traces. *)
  let next_aux = ref n_requests in
  let fresh_id () =
    let id = !next_aux in
    incr next_aux;
    id
  in
  let instances = ref [||] in
  let inst i = !instances.(i) in
  (* Callers test [traced] first, so an untraced run builds no kind. *)
  let traced = Option.is_some tracer in
  let trace_fe ~request kind =
    match tracer with
    | Some tr -> Tracing.record tr ~time_ns:(Sim.now sim) ~request kind
    | None -> ()
  in
  let get_client ci = match clients.(ci) with Some c -> c | None -> assert false in
  let set_commit nd v =
    if v < nd.commit_index then
      violate "member %d: commit index regressed %d -> %d" nd.id nd.commit_index v
    else nd.commit_index <- v
  in
  let wal_text = Wal_text.create () in
  let wal_append nd ~index ~term ~req_id =
    let key = Wal_text.key wal_text index in
    Wal.append nd.wal ~key ~entry:(Wal_text.value wal_text ~term ~req_id)
  in
  let mini_profile service_ns =
    { Mix.class_id = raft_class; service_ns; lock_windows = [||]; probe_spacing_ns = 0.0 }
  in
  let log_write_profile = mini_profile log_write_ns in
  let follower_ae_profile = mini_profile follower_ae_ns in
  let mk_mini profile = Request.create ~id:(fresh_id ()) ~arrival_ns:(Sim.now sim) ~profile in
  let lease_valid i = nodes.(i).alive && Sim.now sim < nodes.(i).lease_expiry_ns in
  let extend_lease nd ~from_ns = nd.lease_expiry_ns <- max nd.lease_expiry_ns (from_ns + lease_ns) in
  (* Every protocol message crosses one wire leg. *)
  let send ev = Sim.schedule_after sim ~delay:one_way_ns ev in
  let fan_out from msg =
    for j = 0 to n - 1 do
      if j <> from && nodes.(j).alive then send (msg j)
    done
  in
  let leads l term =
    let nd = nodes.(l) in
    nd.alive && nd.role = Leader && nd.term = term
  in
  let reset_election i =
    let nd = nodes.(i) in
    if nd.alive && nd.role <> Leader then begin
      nd.election_epoch <- nd.election_epoch + 1;
      let delay = election_timeout_ns + Rng.int nd.elect_rng ~bound:election_timeout_ns in
      Sim.schedule_after sim ~delay (Election_timeout { node = i; epoch = nd.election_epoch })
    end
  in
  let adopt_term nd term =
    if term > nd.term then begin
      nd.term <- term;
      nd.voted_for <- -1;
      if nd.role = Leader then nd.hb_epoch <- nd.hb_epoch + 1;
      nd.role <- Follower
    end
  in
  (* A heartbeat or AppendEntries of a current-or-newer term: follow its
     sender and re-arm the election timer. [false]: ignore the message. *)
  let hear_leader j term =
    let nd = nodes.(j) in
    let heard = nd.alive && term >= nd.term in
    if heard then begin
      adopt_term nd term;
      if nd.role = Candidate then nd.role <- Follower;
      reset_election j
    end;
    heard
  in
  let ae_deliver l j index =
    let nd = nodes.(l) in
    Ae_deliver
      {
        node = j;
        from = l;
        term = nd.term;
        index;
        entry_term = nd.log_terms.(index - 1);
        req_id = nd.log_ids.(index - 1);
      }
  in
  let broadcast_ae l index =
    for j = 0 to n - 1 do
      if j <> l && nodes.(j).alive then send (ae_deliver l j index)
    done
  in
  (* Fan AppendEntries out strictly in log order: broadcast every durable
     entry that directly extends what has already been sent. *)
  let advance_sends l =
    let nd = nodes.(l) in
    let continue = ref true in
    while !continue do
      let e = Int_table.find entries (nd.sent_upto + 1) in
      if e >= 0 && Int_table.get entries e ~col:e_durable = 1 then begin
        nd.sent_upto <- nd.sent_upto + 1;
        broadcast_ae l nd.sent_upto
      end
      else continue := false
    done
  in
  (* Give a client leg to member [m]. A hedge duplicate never passed the
     front end, so it records no [Replicated]: its lifecycle starts at the
     member's own arrival. *)
  let hand_off ?(replicated = true) m (leg : Request.t) =
    views.(m) <- views.(m) + 1;
    routed.(m) <- routed.(m) + 1;
    if replicated && traced then
      trace_fe ~request:leg.Request.id (Tracing.Replicated { term = nodes.(m).term });
    Server.Instance.inject (inst m) leg
  in
  let park q ci =
    Queue.push ci q;
    (get_client ci).phase <- Parked;
    incr parked
  in
  let ack e ~member =
    Int_table.set entries e ~col:e_acked (Int_table.get entries e ~col:e_acked lor (1 lsl member))
  in
  (* A client entry's request id is its leg's: the leg is still current
     unless a failover replay superseded it. *)
  let apply_entry l ~client ~req_id =
    if client >= 0 then begin
      let c = get_client client in
      (* superseded by a failover replay, or already answered *)
      if c.phase <> Done && c.leg.Request.id = req_id then begin
        c.phase <- Served;
        c.node <- l;
        hand_off l c.leg
      end
    end
  in
  (* A leader re-committing an index it learned late must find the same
     entry there. *)
  let record_commit index ~term ~req_id =
    if index <= !committed_upto then begin
      if !committed_terms.(index - 1) <> term || !committed_ids.(index - 1) <> req_id then
        violate "committed entry %d (term %d, req %d) committed again as term %d, req %d" index
          !committed_terms.(index - 1) !committed_ids.(index - 1) term req_id
    end
    else begin
      (* commits extend the committed prefix by one index at a time *)
      if index > Array.length !committed_terms then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        committed_terms := grow !committed_terms;
        committed_ids := grow !committed_ids
      end;
      !committed_terms.(index - 1) <- term;
      !committed_ids.(index - 1) <- req_id;
      committed_upto := index
    end
  in
  let try_commit l =
    let nd = nodes.(l) in
    let continue = ref true in
    while !continue do
      let next = nd.commit_index + 1 in
      let e = Int_table.find entries next in
      if e >= 0
         && Int_table.get entries e ~col:e_durable = 1
         && popcount (Int_table.get entries e ~col:e_acked) >= quorum
      then begin
        let term = Int_table.get entries e ~col:e_term in
        let req_id = Int_table.get entries e ~col:e_req_id in
        let client = Int_table.get entries e ~col:e_client in
        Int_table.remove entries next;
        set_commit nd next;
        record_commit next ~term ~req_id;
        apply_entry l ~client ~req_id
      end
      else continue := false
    done
  in
  (* Leader-side start of replication for one log entry. [client = -1]
     is a leadership no-op. The local durable append runs as a mini-request
     through the leader's own instance; AppendEntries only fan out once it
     completes (log-then-network, the sequential breakdown the SNIPPETS
     table reports). *)
  let start_entry l client =
    let nd = nodes.(l) in
    let index = nd.log_len + 1 in
    let req_id =
      if client >= 0 then begin
        let c = get_client client in
        c.phase <- Consensus;
        c.node <- l;
        c.leg.Request.id
      end
      else -1
    in
    push_log nd ~term:nd.term ~req_id;
    wal_append nd ~index ~term:nd.term ~req_id;
    let e = Int_table.add entries index in
    Int_table.set entries e ~col:e_term nd.term;
    Int_table.set entries e ~col:e_req_id req_id;
    Int_table.set entries e ~col:e_client client;
    Int_table.set entries e ~col:e_acked 0;
    Int_table.set entries e ~col:e_durable 0;
    let mreq = mk_mini log_write_profile in
    let m = Int_table.add aux mreq.Request.id in
    Int_table.set aux m ~col:m_kind mini_append;
    Int_table.set aux m ~col:m_node l;
    Int_table.set aux m ~col:m_index index;
    Int_table.set aux m ~col:m_term nd.term;
    Server.Instance.inject (inst l) mreq
  in
  (* The leased member the read balancer picks, or -1 when none is leased
     or the policy refuses. *)
  let choose_read_node () =
    let k = ref 0 in
    for i = 0 to n - 1 do
      if lease_valid i then incr k
    done;
    if !k = 0 then -1
    else begin
      let ids = cand_ids.(!k) and cand = cand_views.(!k) in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if lease_valid i then begin
          ids.(!j) <- i;
          cand.(!j) <- views.(i);
          incr j
        end
      done;
      match Lb_policy.choose raft.read_lb lb_state ~views:cand with Some x -> ids.(x) | None -> -1
    end
  in
  let arm_hedge ci (leg : Request.t) =
    let c = get_client ci in
    if c.is_write then incr writes_hedged (* guard: never reached from the write path *)
    else if hedge_on then begin
      match
        Hedge.delay_ns raft.hedge estimator ~estimate_ns:leg.Request.estimate_ns
          ~lead_ns:leg.Request.estimate_ns
      with
      | Some d -> Sim.schedule_after sim ~delay:d (Hedge_fire { origin = ci })
      | None -> ()
    end
  in
  let serve_read ci m =
    let c = get_client ci in
    (* lease-expiry safety check at the serving instant *)
    if not (lease_valid m) then park pending_reads ci
    else begin
      c.phase <- Served;
      c.node <- m;
      incr read_dispatches;
      hand_off m c.leg;
      arm_hedge ci c.leg
    end
  in
  let route ci =
    let c = get_client ci in
    if c.is_write || not raft.read_leases then begin
      (* through consensus at the leader *)
      match !leader with
      | Some l when nodes.(l).alive -> start_entry l ci
      | _ -> park pending_writes ci
    end
    else
      let m = choose_read_node () in
      if m >= 0 then serve_read ci m else park pending_reads ci
  in
  let drain_parked () =
    (match !leader with
    | Some l when nodes.(l).alive ->
      while not (Queue.is_empty pending_writes) do
        let ci = Queue.pop pending_writes in
        if (get_client ci).phase = Parked then start_entry l ci
      done
    | _ -> ());
    let continue = ref true in
    while !continue && not (Queue.is_empty pending_reads) do
      let ci = Queue.peek pending_reads in
      if (get_client ci).phase <> Parked then ignore (Queue.pop pending_reads)
      else begin
        let m = choose_read_node () in
        if m >= 0 then begin
          ignore (Queue.pop pending_reads);
          serve_read ci m
        end
        else continue := false
      end
    done
  in
  let finish () =
    if not !stopped then begin
      stopped := true;
      let now_ns = Sim.now sim in
      for ci = 0 to n_requests - 1 do
        match clients.(ci) with
        | Some c when c.phase <> Done -> Metrics.record_censored client_metrics c.orig ~now_ns
        | _ -> ()
      done;
      Array.iter (fun i -> Server.Instance.censor_all i ~now_ns) !instances;
      Sim.stop sim
    end
  in
  let cancel_leg node (leg : Request.t) =
    leg.Request.cancelled <- true;
    incr hedge_cancels;
    Sim.schedule_after sim ~delay:0 (Cancel { node; req = leg })
  in
  let complete_client c (req : Request.t) =
    c.phase <- Done;
    incr finished;
    Metrics.record_completion client_metrics req;
    if Request.origin_id req >= warmup_before then begin
      let soj = float_of_int (Request.sojourn_ns req) in
      if c.is_write then Stats.add write_soj soj else Stats.add read_soj soj
    end;
    if not c.is_write then
      Hedge.observe estimator ~sojourn_ns:(Request.sojourn_ns req)
        ~service_ns:req.Request.service_ns;
    (match c.dup with
    | Some d ->
      if d == req then begin
        incr hedge_wins;
        cancel_leg c.node c.leg
      end
      else cancel_leg c.dup_node d;
      c.dup <- None
    | None -> ());
    if !finished >= n_requests then finish ()
  in
  (* The leader's local durable append of [index] finished. *)
  let append_done ~leader:l ~index ~term =
    if leads l term then begin
      let e = Int_table.find entries index in
      if e >= 0 && Int_table.get entries e ~col:e_term = term then begin
        Int_table.set entries e ~col:e_durable 1;
        ack e ~member:l;
        advance_sends l;
        try_commit l
      end
    end
  in
  (* Follower [f] finished processing an AppendEntries. *)
  let ae_done ~follower:f ~index ~entry_term ~req_id ~msg_term ~leader:ldr =
    let nd = nodes.(f) in
    if nd.alive && msg_term = nd.term then begin
      if index <= nd.log_len && nd.log_terms.(index - 1) = entry_term then
        (* duplicate delivery (backfill overlap): re-ack *)
        send (Ae_ack { node = ldr; from = f; term = msg_term; index })
      else begin
        if index <= nd.log_len then begin
          (* conflicting suffix from a deposed leader: truncate *)
          nd.log_len <- index - 1;
          if nd.commit_index > nd.log_len then
            violate "member %d: truncation below commit index %d" f nd.commit_index
        end;
        let pa = nd.pending_ae in
        let p = Int_table.add pa index in
        Int_table.set pa p ~col:pa_entry_term entry_term;
        Int_table.set pa p ~col:pa_req_id req_id;
        Int_table.set pa p ~col:pa_msg_term msg_term;
        Int_table.set pa p ~col:pa_leader ldr;
        let progressed = ref true in
        while !progressed do
          let p = Int_table.find pa (nd.log_len + 1) in
          if p >= 0 then begin
            let et = Int_table.get pa p ~col:pa_entry_term in
            let rid = Int_table.get pa p ~col:pa_req_id in
            let mt = Int_table.get pa p ~col:pa_msg_term in
            let l2 = Int_table.get pa p ~col:pa_leader in
            Int_table.remove pa (nd.log_len + 1);
            push_log nd ~term:et ~req_id:rid;
            wal_append nd ~index:nd.log_len ~term:et ~req_id:rid;
            nd.last_nack_len <- -1;
            send (Ae_ack { node = l2; from = f; term = mt; index = nd.log_len })
          end
          else progressed := false
        done;
        (* Still a gap. In-order fan-out over FIFO links means the
           missing entries are usually already in flight (or queued as
           minis here); only ask the leader to backfill if the gap
           survives a full round trip. *)
        if Int_table.length pa > 0 then
          Sim.schedule_after sim
            ~delay:((2 * one_way_ns) + follower_ae_ns)
            (Backfill_check { node = f; leader = ldr; term = msg_term; len = nd.log_len })
      end
    end
  in
  let on_complete i (req : Request.t) =
    let m = Int_table.find aux req.Request.id in
    if m >= 0 then begin
      (* consensus work finished at member [i] *)
      let node = Int_table.get aux m ~col:m_node in
      let index = Int_table.get aux m ~col:m_index in
      let term = Int_table.get aux m ~col:m_term in
      if Int_table.get aux m ~col:m_kind = mini_append then begin
        Int_table.remove aux req.Request.id;
        append_done ~leader:node ~index ~term
      end
      else begin
        let req_id = Int_table.get aux m ~col:m_req_id in
        let msg_term = Int_table.get aux m ~col:m_msg_term in
        let leader = Int_table.get aux m ~col:m_leader in
        Int_table.remove aux req.Request.id;
        ae_done ~follower:node ~index ~entry_term:term ~req_id ~msg_term ~leader
      end
    end
    else begin
      (* a client leg *)
      views.(i) <- views.(i) - 1;
      let ci = Request.origin_id req in
      (match if ci >= 0 && ci < n_requests then clients.(ci) else None with
      | Some c
        when c.phase <> Done && nodes.(i).alive
             && (c.leg == req || match c.dup with Some d -> d == req | None -> false) ->
        complete_client c req
      | _ -> ());
      drain_parked ()
    end
  in
  let on_cancelled i (req : Request.t) =
    views.(i) <- views.(i) - 1;
    hedge_wasted_ns := !hedge_wasted_ns + req.Request.done_ns
  in
  instances :=
    Array.init n (fun i ->
        let s = raft.specs.(i) in
        Server.Instance.create ~sim
          ~lift:(fun e -> Inst { node = i; ev = e })
          ~config:s.Cluster.config ~warmup_before ~n_classes:inst_classes ~rng:mech_rngs.(i)
          ~speed_factor:s.Cluster.speed_factor ?cancel_cost_cycles:raft.cancel_cost_cycles
          ?tracer
          ~on_complete:(on_complete i)
          ~on_cancelled:(on_cancelled i) ());
  let become_leader i =
    let nd = nodes.(i) in
    nd.role <- Leader;
    (match Hashtbl.find_opt leaders_of_term nd.term with
    | Some j when j <> i -> violate "term %d has two leaders: %d and %d" nd.term j i
    | _ -> Hashtbl.replace leaders_of_term nd.term i);
    incr elections;
    if !leader <> Some i then incr leader_changes;
    leader := Some i;
    nd.election_epoch <- nd.election_epoch + 1 (* disarm its own timer *);
    nd.hb_epoch <- nd.hb_epoch + 1;
    Array.fill nd.hb_round 0 hb_window (-1);
    nd.next_round <- 0;
    Int_table.clear entries;
    (* Re-establish ack state for the uncommitted suffix it inherited, and
       nudge the followers (stragglers answer with nacks and get
       backfilled). *)
    for idx = nd.commit_index + 1 to nd.log_len do
      let e = Int_table.add entries idx in
      Int_table.set entries e ~col:e_term nd.log_terms.(idx - 1);
      Int_table.set entries e ~col:e_req_id nd.log_ids.(idx - 1);
      Int_table.set entries e ~col:e_client (-1);
      Int_table.set entries e ~col:e_acked (1 lsl i);
      Int_table.set entries e ~col:e_durable 1;
      broadcast_ae i idx
    done;
    nd.sent_upto <- nd.log_len;
    (* the canonical new-term no-op, committing the inherited suffix *)
    start_entry i (-1);
    (* Replay client legs stranded on dead members (ascending id order:
       deterministic). [i] now leads and is alive, so [route] sends a
       write to it and a read to a leased member. *)
    for ci = 0 to !arrived - 1 do
      match clients.(ci) with
      | Some c when c.phase <> Done -> begin
        let stranded =
          match c.phase with
          | Served -> not nodes.(c.node).alive
          | Consensus -> (not nodes.(c.node).alive) || c.node <> i
          | Parked | Done -> false
        in
        if stranded then begin
          if c.phase = Served && nodes.(c.node).alive then cancel_leg c.node c.leg
          else c.leg.Request.cancelled <- true;
          (match c.dup with
          | Some d ->
            if nodes.(c.dup_node).alive then cancel_leg c.dup_node d
            else d.Request.cancelled <- true;
            c.dup <- None
          | None -> ());
          c.leg <- Request.hedge_dup c.orig ~id:(fresh_id ());
          incr resubmissions;
          route ci
        end
      end
      | _ -> ()
    done;
    (* immediate heartbeat round establishes the new lease, then periodic *)
    Sim.schedule_after sim ~delay:0 (Hb_tick { node = i; epoch = nd.hb_epoch });
    drain_parked ()
  in
  let start_election i =
    let nd = nodes.(i) in
    nd.term <- nd.term + 1;
    nd.role <- Candidate;
    nd.voted_for <- i;
    nd.votes <- 1;
    if !leader = Some i then leader := None;
    if nd.votes >= quorum then become_leader i
    else begin
      reset_election i (* re-arm against a split vote *);
      fan_out i (fun j ->
          Vote_request
            { node = j; from = i; term = nd.term; last_index = nd.log_len; last_term = node_last_term nd })
    end
  in
  let handler _ = function
    | Arrive ->
      let now = Sim.now sim in
      (* Service time and read/write class are drawn at the front-end,
         before routing: every group size / lease setting at one seed sees
         the identical request sequence. *)
      let profile = Mix.sample mix service_rng in
      let is_write = Rng.float classify_rng < raft.write_ratio in
      let ci = !arrived in
      let req = Request.create ~id:ci ~arrival_ns:now ~profile in
      incr arrived;
      if is_write then incr writes_n else incr reads_n;
      clients.(ci) <-
        Some { orig = req; is_write; leg = req; phase = Parked; node = -1; dup = None; dup_node = -1 };
      if traced then trace_fe ~request:ci (Tracing.Arrived { service_ns = req.Request.service_ns });
      route ci;
      if !arrived < n_requests then begin
        let gap = Arrival.next_gap_ns arrival arrival_rng ~index:(!arrived - 1) in
        Sim.schedule_after sim ~delay:gap Arrive
      end
      else Sim.schedule_after sim ~delay:drain_cap_ns End_of_run
    | Hb_tick { node = i; epoch } ->
      let nd = nodes.(i) in
      if nd.alive && nd.role = Leader && nd.hb_epoch = epoch then begin
        let now = Sim.now sim in
        if quorum = 1 then begin
          extend_lease nd ~from_ns:now;
          drain_parked ()
        end
        else begin
          let round = nd.next_round in
          nd.next_round <- round + 1;
          (* takes the slot of round - [hb_window], which never reached quorum *)
          let r = round land (hb_window - 1) in
          nd.hb_round.(r) <- round;
          nd.hb_sent_ns.(r) <- now;
          nd.hb_acks.(r) <- 0;
          fan_out i (fun j ->
              Hb_deliver
                { node = j; from = i; term = nd.term; sent_ns = now; round;
                  leader_commit = nd.commit_index })
        end;
        Sim.schedule_after sim ~delay:heartbeat_ns (Hb_tick { node = i; epoch })
      end
    | Hb_deliver { node = j; from; term; sent_ns; round; leader_commit } ->
      if hear_leader j term then begin
        let nd = nodes.(j) in
        (* the lease extends from the heartbeat's send time, not receipt *)
        extend_lease nd ~from_ns:sent_ns;
        set_commit nd (max nd.commit_index (min leader_commit nd.log_len));
        drain_parked ();
        send (Hb_ack { node = from; term; round })
      end
    | Hb_ack { node = l; term; round } ->
      if leads l term then begin
        let nd = nodes.(l) in
        let r = round land (hb_window - 1) in
        if nd.hb_round.(r) = round then begin
          let acks = nd.hb_acks.(r) + 1 in
          if acks + 1 >= quorum then begin
            nd.hb_round.(r) <- -1;
            extend_lease nd ~from_ns:nd.hb_sent_ns.(r);
            drain_parked ()
          end
          else nd.hb_acks.(r) <- acks
        end
      end
    | Election_timeout { node = i; epoch } ->
      let nd = nodes.(i) in
      if nd.alive && nd.role <> Leader && nd.election_epoch = epoch then start_election i
    | Vote_request { node = v; from; term; last_index; last_term } ->
      let nd = nodes.(v) in
      if nd.alive && term >= nd.term then begin
        adopt_term nd term;
        let up_to_date =
          last_term > node_last_term nd
          || (last_term = node_last_term nd && last_index >= nd.log_len)
        in
        if (nd.voted_for = -1 || nd.voted_for = from) && up_to_date then begin
          nd.voted_for <- from;
          reset_election v;
          send (Vote_grant { node = from; term })
        end
      end
    | Vote_grant { node = c; term } ->
      let nd = nodes.(c) in
      if nd.alive && nd.role = Candidate && term = nd.term then begin
        nd.votes <- nd.votes + 1;
        if nd.votes >= quorum then become_leader c
      end
    | Ae_deliver { node = f; from; term; index; entry_term; req_id } ->
      if hear_leader f term then begin
        (* decoding + appending + fsync is real follower work: it queues in
           the follower's own dispatcher against its lease reads *)
        let mreq = mk_mini follower_ae_profile in
        let m = Int_table.add aux mreq.Request.id in
        Int_table.set aux m ~col:m_kind mini_ae;
        Int_table.set aux m ~col:m_node f;
        Int_table.set aux m ~col:m_index index;
        Int_table.set aux m ~col:m_term entry_term;
        Int_table.set aux m ~col:m_req_id req_id;
        Int_table.set aux m ~col:m_msg_term term;
        Int_table.set aux m ~col:m_leader from;
        Server.Instance.inject (inst f) mreq
      end
    | Ae_ack { node = l; from; term; index } ->
      if leads l term then begin
        let e = Int_table.find entries index in
        (* absent: already committed (late ack) *)
        if e >= 0 then begin
          ack e ~member:from;
          try_commit l
        end
      end
    | Backfill_check { node = f; leader = ldr; term; len } ->
      let nd = nodes.(f) in
      if nd.alive && nd.term = term && nd.log_len = len
         && Int_table.length nd.pending_ae > 0 && nd.last_nack_len <> len
      then begin
        nd.last_nack_len <- len;
        send (Ae_nack { node = ldr; from = f; term; follower_len = len })
      end
    | Ae_nack { node = l; from = f; term; follower_len } ->
      if leads l term then
        (* bounded resend window: repeated nacks page a straggler in *)
        for idx = follower_len + 1 to min nodes.(l).sent_upto (follower_len + 64) do
          if nodes.(f).alive then send (ae_deliver l f idx)
        done
    | Hedge_fire { origin = ci } ->
      let c = get_client ci in
      (* writes are never armed; a failure here means the guard broke *)
      assert (not c.is_write);
      if c.phase = Served && c.dup = None
         && Hedge.within_budget raft.hedge ~hedges:!hedges ~primaries:!read_dispatches
      then begin
        (* shortest-view leased member other than the primary *)
        let best = ref (-1) in
        for j = 0 to n - 1 do
          if j <> c.node && lease_valid j && (!best < 0 || views.(j) < views.(!best)) then
            best := j
        done;
        if !best >= 0 then begin
          let m = !best in
          let dup = Request.hedge_dup c.orig ~id:(fresh_id ()) in
          c.dup <- Some dup;
          c.dup_node <- m;
          incr hedges;
          hand_off ~replicated:false m dup
        end
      end
    | Cancel { node; req } -> Server.Instance.cancel (inst node) req
    | Kill_leader -> begin
      match !leader with
      | Some l when nodes.(l).alive ->
        let nd = nodes.(l) in
        nd.alive <- false;
        nd.election_epoch <- nd.election_epoch + 1;
        nd.hb_epoch <- nd.hb_epoch + 1;
        leader := None
        (* survivors stop hearing heartbeats; their timers do the rest *)
      | _ -> ()
    end
    | End_of_run -> finish ()
    | Inst { node; ev } -> Server.Instance.handle (inst node) ev
  in
  (* --- initial conditions: member 0 is the established leader of term 1
     with a fresh lease, as if a quorum round completed at t = 0. *)
  nodes.(0).role <- Leader;
  Hashtbl.replace leaders_of_term 1 0;
  Array.iter (fun nd -> nd.lease_expiry_ns <- lease_ns) nodes;
  Sim.schedule_at sim ~time:0 Arrive;
  Sim.schedule_at sim ~time:0 (Hb_tick { node = 0; epoch = 0 });
  for i = 1 to n - 1 do
    reset_election i
  done;
  (match raft.kill_leader_at_ns with
  | Some t -> Sim.schedule_at sim ~time:t Kill_leader
  | None -> ());
  Sim.run sim ~handler ();
  (match events_out with Some r -> r := Sim.events_processed sim | None -> ());
  (* ---- invariant: no committed entry may be missing from the final
     leader's log ---------------------------------------------------- *)
  (match !leader with
  | Some l ->
    let nd = nodes.(l) in
    for index = !committed_upto downto 1 do
      let term = !committed_terms.(index - 1) and req_id = !committed_ids.(index - 1) in
      if index > nd.log_len then
        violate "committed entry %d (term %d) missing from final leader %d" index term l
      else if nd.log_terms.(index - 1) <> term || nd.log_ids.(index - 1) <> req_id then
        violate "committed entry %d (term %d, req %d) overwritten at final leader %d" index term
          req_id l
    done
  | None -> ());
  (* ---- summary ---------------------------------------------------- *)
  let span_ns = max 1 (Sim.now sim) in
  let offered_rps = Arrival.rate_rps arrival in
  let class_names = Array.map (fun (c : Mix.class_def) -> c.Mix.name) mix.Mix.classes in
  let inst_class_names = Array.append class_names [| "RAFT" |] in
  let per_node =
    Array.init n (fun i ->
        Metrics.summarize
          (Server.Instance.metrics (inst i))
          ~offered_rps:(float_of_int routed.(i) /. (float_of_int span_ns /. 1e9))
          ~span_ns
          ~n_workers:(Server.Instance.n_workers (inst i))
          ~class_names:inst_class_names)
  in
  let client =
    Metrics.summarize client_metrics ~offered_rps ~span_ns ~n_workers:total_workers ~class_names
  in
  let pct s p = if Stats.is_empty s then 0.0 else Stats.percentile s p in
  let mean s = if Stats.is_empty s then 0.0 else Stats.mean s in
  let leader_p99 =
    match !leader with
    | Some l ->
      let s = Metrics.slowdown_samples (Server.Instance.metrics (inst l)) in
      pct s 99.0
    | None -> 0.0
  in
  let follower_p99 =
    let followers = ref [] in
    for i = n - 1 downto 0 do
      if !leader <> Some i then
        followers := Metrics.slowdown_samples (Server.Instance.metrics (inst i)) :: !followers
    done;
    (* merge_all of [] is a pinned empty result: a single-member group has
       no followers and must not trap here *)
    let merged = Stats.merge_all !followers in
    pct merged 99.0
  in
  let summary =
    {
      nodes = n;
      read_leases = raft.read_leases;
      requests = n_requests;
      writes = !writes_n;
      reads = !reads_n;
      client;
      write_mean_ns = mean write_soj;
      write_p50_ns = pct write_soj 50.0;
      write_p99_ns = pct write_soj 99.0;
      read_mean_ns = mean read_soj;
      read_p50_ns = pct read_soj 50.0;
      read_p99_ns = pct read_soj 99.0;
      per_node;
      roles = Array.map (fun nd -> nd.role) nodes;
      alive = Array.map (fun nd -> nd.alive) nodes;
      final_leader = !leader;
      final_term = Array.fold_left (fun acc nd -> max acc nd.term) 0 nodes;
      elections = !elections;
      leader_changes = !leader_changes;
      committed = !committed_upto;
      commit_indexes = Array.map (fun nd -> nd.commit_index) nodes;
      log_lengths = Array.map (fun nd -> nd.log_len) nodes;
      wal_records = Array.map (fun nd -> Wal.record_count nd.wal) nodes;
      resubmissions = !resubmissions;
      parked = !parked;
      routed;
      hedges = !hedges;
      hedge_wins = !hedge_wins;
      hedge_cancels = !hedge_cancels;
      hedge_wasted_ns = !hedge_wasted_ns;
      writes_hedged = !writes_hedged;
      leader_p99_slowdown = leader_p99;
      follower_p99_slowdown = follower_p99;
      invariant_failures = List.rev !violations;
      engine = Repro_engine.Par_sim.Seq;
      domains_used = 1;
    }
  in
  (summary, Metrics.slowdown_samples client_metrics)

let run ~raft ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer ?engine () =
  fst
    (run_detailed ~raft ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
       ?engine ())

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let check_invariants s =
  let errors = ref (List.rev s.invariant_failures) in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let accounted = s.client.Metrics.completed + s.client.Metrics.censored in
  if accounted <> s.requests then
    err "conservation: %d completed + %d censored <> %d arrivals" s.client.Metrics.completed
      s.client.Metrics.censored s.requests;
  if s.writes + s.reads <> s.requests then
    err "classification: %d writes + %d reads <> %d arrivals" s.writes s.reads s.requests;
  if s.writes_hedged <> 0 then err "%d writes were hedged (must never happen)" s.writes_hedged;
  (match s.final_leader with
  | Some l ->
    if not s.alive.(l) then err "final leader %d is dead" l;
    if s.roles.(l) <> Leader then err "final leader %d is not in the Leader role" l
  | None -> ());
  Array.iteri
    (fun i ci ->
      if ci > s.log_lengths.(i) then
        err "member %d: commit index %d exceeds log length %d" i ci s.log_lengths.(i);
      if s.wal_records.(i) < s.log_lengths.(i) then
        err "member %d: %d WAL records < %d log entries" i s.wal_records.(i) s.log_lengths.(i))
    s.commit_indexes;
  match List.rev !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let summary_to_string s =
  let buf = Buffer.create 1024 in
  let us f = f /. 1e3 in
  Buffer.add_string buf
    (Printf.sprintf "raft group: %d member%s, leases %s, term %d, %d election%s (%d change%s)\n"
       s.nodes
       (if s.nodes = 1 then "" else "s")
       (if s.read_leases then "on" else "off")
       s.final_term s.elections
       (if s.elections = 1 then "" else "s")
       s.leader_changes
       (if s.leader_changes = 1 then "" else "s"));
  Buffer.add_string buf
    (Printf.sprintf
       "  client: %d arrivals (%d writes / %d reads), %d completed, %d censored, %d replayed\n"
       s.requests s.writes s.reads s.client.Metrics.completed s.client.Metrics.censored
       s.resubmissions);
  Buffer.add_string buf
    (Printf.sprintf "  writes: mean %8.1fus  p50 %8.1fus  p99 %8.1fus\n" (us s.write_mean_ns)
       (us s.write_p50_ns) (us s.write_p99_ns));
  Buffer.add_string buf
    (Printf.sprintf "  reads:  mean %8.1fus  p50 %8.1fus  p99 %8.1fus\n" (us s.read_mean_ns)
       (us s.read_p50_ns) (us s.read_p99_ns));
  if s.hedges > 0 || s.hedge_cancels > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  hedging: %d duplicates, %d wins, %d cancels, %.1fus wasted\n" s.hedges
         s.hedge_wins s.hedge_cancels
         (float_of_int s.hedge_wasted_ns /. 1e3));
  Buffer.add_string buf
    (Printf.sprintf "  committed %d entries; parked %d times\n" s.committed s.parked);
  Array.iteri
    (fun i (m : Metrics.summary) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  node %d [%-9s%s]%s commit=%-5d log=%-5d wal=%-5d legs=%-6d p99 slowdown=%6.2f\n" i
           (role_name s.roles.(i))
           (if s.alive.(i) then "" else ", dead")
           (if s.final_leader = Some i then "*" else " ")
           s.commit_indexes.(i) s.log_lengths.(i) s.wal_records.(i) s.routed.(i)
           m.Metrics.p99_slowdown))
    s.per_node;
  (match s.invariant_failures with
  | [] -> ()
  | fs ->
    Buffer.add_string buf "  INVARIANT FAILURES:\n";
    List.iter (fun f -> Buffer.add_string buf ("    " ^ f ^ "\n")) fs);
  Buffer.contents buf
