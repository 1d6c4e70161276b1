(** Discrete-event simulation driver.

    A simulation is a clock (integer nanoseconds) plus a priority queue of
    pending events. The event type ['e] is chosen by the model (the server
    runtime uses a variant of worker/dispatcher/arrival events). Events
    scheduled for the same instant fire in scheduling order. *)

type 'e t

val create : ?capacity:int -> unit -> 'e t
(** [capacity] pre-sizes the event heap (default 1024). Models that know
    their in-flight event bound (roughly a few events per worker plus the
    pending arrival) should pass it to avoid repeated doubling. *)

val now : 'e t -> int
(** Current simulated time in nanoseconds. *)

val schedule_at : 'e t -> time:int -> 'e -> unit
(** Enqueue an event for absolute [time]. Raises [Invalid_argument] if
    [time] is in the past. *)

val schedule_after : 'e t -> delay:int -> 'e -> unit
(** Enqueue an event [delay] ns from now ([delay] >= 0). *)

val pending : 'e t -> int
(** Number of events not yet fired. *)

val next_time : 'e t -> int
(** Timestamp of the earliest pending event, or [max_int] when the queue is
    empty. This is the lookahead probe the windowed parallel engine
    ({!Par_sim}) uses to skip empty stretches of simulated time. *)

val events_processed : 'e t -> int
(** Total events popped and handled since [create], across all [run]s.
    The simulated-events/sec figures in [bench/main.exe --json] divide this
    by wall time. *)

val current_seq : 'e t -> int
(** Sequence number of the event whose handler is running (or ran last;
    -1 before the first). Every schedule gets the next number in one
    per-simulation series, so [current_seq t >= m] says the event was
    scheduled no earlier than the moment {!next_seq} returned [m]. Models
    use that as a liveness mark: record [next_seq] when a pending event
    goes stale, and ignore events whose sequence number is below the mark.
    Stale events then need no epoch field in their payload. *)

val next_seq : 'e t -> int
(** The sequence number the next {!schedule_at} / {!schedule_after} will
    assign. *)

val stop : 'e t -> unit
(** Make the current [run] return after the in-flight handler finishes. *)

val run : 'e t -> ?until:int -> handler:('e t -> 'e -> unit) -> unit -> unit
(** Pop and handle events in time order until the queue drains, [stop] is
    called, or the next event is later than [until]. The clock advances to
    each event's timestamp just before its handler runs. *)
