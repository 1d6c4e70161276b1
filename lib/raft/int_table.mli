(** A map from non-negative int keys to rows of int columns, kept unboxed:
    once the table has grown to its working size, a lookup, an insert or
    a removal allocates nothing.

    Each key owns the slot [key land mask] of a power-of-two array; when
    two live keys want the same slot the table doubles until they do not.
    It suits keys that are unique and close to increasing, such as log
    indexes and request ids: its size follows the span of the keys live at
    once, not the number ever inserted. *)

type t

val create : cols:int -> t
(** An empty table whose rows have [cols] int columns. *)

val find : t -> int -> int
(** The slot holding [key], or [-1] when it is absent. *)

val add : t -> int -> int
(** The slot of [key], binding it first if absent. A fresh row's columns
    are all 0; an existing row keeps its values. [key] must be [>= 0]. *)

val remove : t -> int -> unit
(** Unbind [key]; a no-op when absent. *)

val clear : t -> unit
val length : t -> int

val get : t -> int -> col:int -> int
(** [get t slot ~col]: a column of the row at [slot]. *)

val set : t -> int -> col:int -> int -> unit
