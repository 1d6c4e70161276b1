(** One generator per table/figure of the paper's evaluation (§5), plus the
    ablations DESIGN.md commits to. Each returns a {!Figure.t} whose series
    mirror the paper's plot lines; EXPERIMENTS.md records paper-vs-measured
    numbers for every one.

    [scale] trades runtime for tail resolution: [Quick] (the default, used
    by `concord_sim figure`) resolves every qualitative shape in a
    few minutes total; [Full] quadruples the per-point request counts for
    tighter p99.9 estimates. *)

type scale = Quick | Full

val fig2 : ?scale:scale -> unit -> Figure.t
(** Preemption-mechanism overhead vs quantum (notification + bookkeeping
    only): Shinjuku posted IPIs vs rdtsc probes vs Concord cache-line
    polling, 500 µs requests. *)

val fig3 : ?scale:scale -> unit -> Figure.t
(** Worker idle time awaiting the next request (cnext) vs service time,
    8 cores: single-queue systems vs Concord's JBSQ(2). *)

val fig5 : ?scale:scale -> unit -> Figure.t
(** Queueing-only study: p99.9 slowdown vs load for precise preemption,
    one-sided N(5, 1) and N(5, 2) lateness, and no preemption, on
    Bimodal(99.5:0.5, 0.5:500). *)

val fig6a : ?scale:scale -> unit -> Figure.t
val fig6b : ?scale:scale -> unit -> Figure.t
(** Bimodal(50:1, 50:100): p99.9 slowdown vs load at 5 µs / 2 µs quanta. *)

val fig7a : ?scale:scale -> unit -> Figure.t
val fig7b : ?scale:scale -> unit -> Figure.t
(** Bimodal(99.5:0.5, 0.5:500) at 5 µs / 2 µs quanta. *)

val fig8a : ?scale:scale -> unit -> Figure.t
val fig8b : ?scale:scale -> unit -> Figure.t
(** Low-dispersion workloads: Fixed(1) (5 µs quantum) and TPC-C (10 µs). *)

val fig9a : ?scale:scale -> unit -> Figure.t
val fig9b : ?scale:scale -> unit -> Figure.t
(** LevelDB, 50 % GET / 50 % SCAN, at 5 µs / 2 µs quanta. *)

val fig10 : ?scale:scale -> unit -> Figure.t
(** LevelDB, ZippyDB production mix, 5 µs quantum. *)

val fig11 : ?scale:scale -> unit -> Figure.t
(** Mechanism breakdown on the Fig. 9b workload: Shinjuku → +cooperation →
    +JBSQ(2) → +work-conserving dispatcher. *)

val fig12 : ?scale:scale -> unit -> Figure.t
(** Preemption overhead including context switch and next-request wait vs
    quantum: IPIs+SQ vs Co-op+SQ vs Co-op+JBSQ(2). *)

val fig13 : ?scale:scale -> unit -> Figure.t
(** 4-core cloud-VM configuration: Concord with and without dispatcher
    work-stealing. *)

val fig14 : ?scale:scale -> unit -> Figure.t
(** Zoom of Fig. 6a at low load: the slowdown cost of dispatcher
    stealing (§5.5). *)

val fig15 : ?scale:scale -> unit -> Figure.t
(** Sapphire Rapids: user-space IPIs vs rdtsc vs compiler-enforced
    cooperation (§5.6). *)

val ablation_jbsq_k : ?scale:scale -> unit -> Figure.t
(** JBSQ depth sweep k ∈ {1, 2, 4, 8} on Fig. 9b's workload: §3.2's claim
    that k = 2 suffices and deeper queues only hurt tail latency. *)

val ablation_locks : ?scale:scale -> unit -> Figure.t
(** §3.1's lock-safety microbenchmark: Concord's fine-grained lock counter
    vs Shinjuku disabling preemption across whole LevelDB calls. *)

val ablation_probe_spacing : ?scale:scale -> unit -> Figure.t
(** Sensitivity of tail slowdown to probe spacing (how rarely instrumented
    code polls), on the Fig. 7a workload. *)

val ablation_sls : ?scale:scale -> unit -> Figure.t
(** §6: single-logical-queue systems. Concord's physical-queue design vs
    Concord-on-work-stealing (no dispatcher bottleneck) vs Shenango-like
    run-to-completion vs partitioned d-FCFS, on the USR workload. *)

val ablation_replication : ?scale:scale -> unit -> Figure.t
(** §6: multi-dispatcher replication. One 14-worker Concord instance vs
    2x7 and 4x4 (total 16) replicas on Fixed(1), where the single
    dispatcher is the bottleneck. *)

val ablation_classes : ?scale:scale -> unit -> Figure.t
(** Per-class tails on the Fig. 9b workload: preemption's whole point is
    that 600 ns GETs stop inheriting 500 µs SCAN latencies, while SCANs
    (whose own slowdown budget is huge) barely notice being sliced. *)

val ablation_scaling : ?scale:scale -> unit -> Figure.t
(** §6's limitation: max load under the 50x SLO as worker count grows, on
    the USR workload. Concord's single dispatcher flattens out; the
    dispatcher-less Concord-SLS keeps scaling. *)

val ablation_batching : ?scale:scale -> unit -> Figure.t
(** §6: ingress batching. Concord with batch 1/8/32 on Fixed(1): batching
    buys dispatcher headroom (later saturation) for a small latency cost at
    low load. *)

val all : (string * (?scale:scale -> unit -> Figure.t)) list
(** Every generator, keyed by experiment id. *)

val by_id : string -> (?scale:scale -> unit -> Figure.t) option
