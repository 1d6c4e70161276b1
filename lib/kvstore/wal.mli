(** Write-ahead log: LevelDB's durability path.

    Every store write appends an encoded, checksummed record before
    touching the memtable (the cost the meter charges as [wal_append]).
    This module implements the log for real — byte encoding, CRC-32,
    truncated/corrupt-tail handling — so crash recovery can be tested as
    behaviour rather than assumed: {!Store.crash_recover} rebuilds the
    memtable by replaying this log.

    Record layout (little-endian lengths):
    [crc32 (4B) | key_len (4B) | key | tag (1B: 0=value, 1=tombstone) |
    val_len (4B) | value], where the CRC covers everything after itself.

    Records are encoded in place into one growable byte buffer and
    checksummed over their byte range, with the CRC state held in an
    immediate int: once the buffer has room, {!append} allocates
    nothing. *)

(** CRC-32 (IEEE 802.3, reflected), implemented from scratch. *)
module Crc32 : sig
  val digest : string -> int32
  (** Checksum of a whole string. *)

  val update : int32 -> string -> int32
  (** Incremental: feed more bytes into a running checksum. *)
end

type t

val create : unit -> t

val append : t -> key:string -> entry:Skiplist.entry -> unit
(** Encode and append one record. *)

val byte_size : t -> int
(** Encoded size of the log in bytes. *)

val record_count : t -> int

val replay : t -> (string * Skiplist.entry) list
(** Decode all intact records in append order, checking each record's CRC
    over its bytes in place. A torn or corrupt tail
    (e.g. from a crash mid-append) terminates the replay silently, exactly
    as LevelDB treats a truncated log — records before it are returned. *)

val truncate : t -> unit
(** Drop the log (after a successful memtable flush). Its buffer is kept
    for the records that follow. *)

val corrupt_tail : t -> unit
(** Testing hook: flip a byte in the final record's payload, simulating a
    torn write. No-op on an empty log. *)

val contents : t -> string
(** Raw encoded bytes (for tests). *)
