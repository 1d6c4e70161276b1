(** Work-sharing domain pool for embarrassingly parallel experiment fan-out.

    Every figure in the paper's evaluation is a load sweep whose points are
    independent, seeded simulations; this module fans such work across
    OCaml 5 domains. The pool is stdlib-only: [Domain.spawn] workers pull
    indices from a {!Mutex}/{!Condition}-protected task queue, so an idle
    domain steals the next pending task regardless of how the input was
    ordered, and results are written back into their original slots.

    Nesting is safe by construction: a [parallel_map] issued from inside a
    pool worker runs sequentially inline, so composed parallel layers
    (e.g. a figure fanning out sweeps whose points also fan out) never
    oversubscribe the machine.

    The pool is a functor over {!Primitives.S}: the toplevel values below
    are [Make (Primitives.Real)] (real domains, identical to the
    pre-functor pool), and the model checker instantiates {!Make} with
    traced shims to explore the task-queue protocol's interleavings —
    no lost task, no lost wakeup, termination, and the [in_pool] nesting
    refusal ([concord-sim check-model], scenarios [pool-*]). *)

module Make (P : Primitives.S) : sig
  val default_jobs : unit -> int
  val set_default_jobs : int -> unit
  val in_pool : unit -> bool
  val parallel_map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
  val parallel_iter : ?domains:int -> ('a -> unit) -> 'a list -> unit
end

val default_jobs : unit -> int
(** Current default parallelism for {!parallel_map} when [?domains] is
    omitted. Initially [max 1 (Domain.recommended_domain_count () - 1)]:
    one slot is left for the OS / main program, and a single-core machine
    degrades to sequential execution. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} process-wide (clamped to at least 1). This is
    what [concord_sim figure --jobs N] sets; [--jobs 1] recovers fully
    sequential execution. *)

val in_pool : unit -> bool
(** True while the calling domain is executing {!parallel_map} tasks.
    Nested [parallel_map] calls silently run inline in that state; callers
    that would rather fail loudly than lose their parallelism — the
    windowed engine in {!Par_sim} spawns domains of its own — probe this
    and refuse to start. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ?domains f xs] is [List.map f xs] computed by up to
    [domains] domains in total (the calling domain participates; default
    {!default_jobs}). Input order is preserved exactly.

    [f] must not share unsynchronized mutable state across elements; each
    element's work should derive all randomness from its own explicit
    seed, in which case the result is bit-identical to the sequential map.
    With [domains <= 1], on singleton/empty inputs, or when called from
    inside another [parallel_map], no domain is spawned and the call is
    exactly [List.map f xs].

    If any application of [f] raises, the first exception (in task order)
    is re-raised after all spawned domains have been joined. *)

val parallel_iter : ?domains:int -> ('a -> unit) -> 'a list -> unit
(** [parallel_iter ?domains f xs] is [ignore (parallel_map ?domains f xs)]
    without retaining results. *)
