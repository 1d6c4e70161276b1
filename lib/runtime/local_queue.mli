(** Core-local FIFO request queue.

    For JBSQ(k) (§3.2) it is bounded: depth is bounded by k *including*
    the request the worker is currently executing, so JBSQ(1) degenerates
    to the classic synchronous single queue (one outstanding request per
    worker), and the queue itself holds at most k - 1 waiting requests.
    A logical queue (§6) gives each worker an {!unbounded} one. *)

type t

val create : capacity:int -> t
(** [capacity] is the number of *waiting* slots (k - 1). May be 0. *)

val unbounded : unit -> t
(** A queue that never fills: its slots double when they run out, so a
    push allocates only when the queue reaches a new high-water mark. *)

val capacity : t -> int
val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val push : t -> Request.t -> unit
(** Raises [Invalid_argument] when full — the dispatcher's slot accounting
    must prevent this, and the exception catches accounting bugs. *)

val pop_unsafe : t -> Request.t
(** FIFO dequeue without the option box. Raises [Invalid_argument] when
    empty — guard with {!is_empty}. *)

val pop : t -> Request.t option
(** FIFO dequeue, [None] when empty. *)
