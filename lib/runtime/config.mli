(** Server configuration: which system we are simulating.

    A configuration is the cross product the paper explores — preemption
    mechanism × queue model × dispatcher behaviour × policy — plus the
    hardware cost model. {!Systems} provides the named presets. *)

type queue_model =
  | Single_queue
      (** one physical queue at the dispatcher; synchronous pull-based
          hand-off (Shinjuku, Persephone) *)
  | Jbsq of int
      (** bounded per-worker queues of depth k including the in-service
          request; JBSQ(1) is semantically a single queue (§3.2) *)
  | Logical of { steal : bool }
      (** no dispatcher (§6, Shenango/Caladan): arrivals are steered
          round-robin to unbounded per-worker FIFOs and, with [steal], an
          idle worker takes work from the longest peer queue, forming one
          logical queue; [steal = false] is d-FCFS. A scheduler thread only
          raises preemption signals. FCFS only. *)

type lock_model =
  | Fine_grained
      (** per-request lock windows from the workload profile; preemption is
          deferred only past actual critical sections (Concord's 4-line
          counter, §3.1) *)
  | Whole_request
      (** preemption disabled for the whole handler invocation (the
          Shinjuku prototype's LevelDB integration, §3.1) *)

type adaptive = {
  min_quantum_ns : int;  (** floor the shrinking quantum never crosses *)
  backlog_window : int;
      (** central-queue backlog at which the quantum has halved: the
          effective quantum is [quantum_ns * w / (w + backlog)] *)
}
(** LibPreemptible-style adaptive preemption quanta: under load the
    quantum shrinks so long requests yield sooner and shorts overtake
    them; when idle it stays at the configured base so preemption overhead
    is not paid for nothing. The server additionally caps each class's
    quantum at twice its observed (EWMA) mean service time, so a straggler
    of a usually-short class is preempted early even when the queue is
    shallow. *)

type t = {
  name : string;
  n_workers : int;
  quantum_ns : int;
  adaptive_quantum : adaptive option;
      (** [None] = fixed quantum (every preset's default; bit-identical to
          the pre-adaptive behaviour) *)
  mechanism : Repro_hw.Mechanism.t;  (** worker preemption mechanism *)
  queue_model : queue_model;
  dispatcher_steals : bool;  (** work-conserving dispatcher (§3.3) *)
  policy : Policy.kind;
  lock_model : lock_model;
  ingress_batch : int;
      (** how many queued arrivals the dispatcher admits per ingress
          micro-op; > 1 amortizes per-request cost at a small latency cost
          (the batching trade-off of §6) *)
  costs : Repro_hw.Costs.t;
}

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical combinations (no workers,
    non-positive quantum, JBSQ depth < 1, batch < 1, adaptive floor above
    the base quantum, negative or non-finite estimate-noise sigma, and a
    logical queue with a non-FCFS policy, ingress batching or dispatcher
    stealing). *)

val jbsq_depth : t -> int
(** Outstanding-requests bound per worker: k for [Jbsq k], 1 for
    [Single_queue] and [Logical] (whose local queues are unbounded). *)

val describe : t -> string
(** One-line description for reports. *)
