module Crc32 = struct
  (* Standard reflected CRC-32 (polynomial 0xEDB88320), table-driven, with
     the 32-bit state held in an immediate [int]: nothing is boxed per
     byte. *)
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c))

  (* Continue the checksum [crc] (as an unsigned 32-bit int) over
     [len] bytes of [b] from [off]. *)
  let update_range crc b ~off ~len =
    let table = Lazy.force table in
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = off to off + len - 1 do
      let idx = (!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF in
      c := Array.unsafe_get table idx lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

  let update crc s =
    Int32.of_int
      (update_range (Int32.to_int crc land 0xFFFFFFFF) (Bytes.unsafe_of_string s) ~off:0
         ~len:(String.length s))

  let digest s = update 0l s
end

(* The encoded log is the prefix [0, len) of [buf]; records are written
   into it in place and [buf] doubles when a record does not fit. *)
type t = { mutable buf : Bytes.t; mutable len : int; mutable count : int }

let initial_capacity = 4096
let create () = { buf = Bytes.create initial_capacity; len = 0; count = 0 }

let set_u32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let get_u32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let reserve t n =
  let need = t.len + n in
  if need > Bytes.length t.buf then begin
    let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end

(* [crc | key_len | key | tag | val_len | value]: a CRC placeholder, then
   the payload, then the CRC of the payload's byte range patched in. *)
let append t ~key ~entry =
  let key_len = String.length key in
  let val_len = match entry with Skiplist.Value v -> String.length v | Skiplist.Tombstone -> 0 in
  let payload_len = 4 + key_len + 1 + 4 + val_len in
  reserve t (4 + payload_len);
  let b = t.buf and start = t.len in
  let payload = start + 4 in
  set_u32 b payload key_len;
  Bytes.blit_string key 0 b (payload + 4) key_len;
  let tag = payload + 4 + key_len in
  (match entry with
  | Skiplist.Value v ->
    Bytes.unsafe_set b tag '\000';
    Bytes.blit_string v 0 b (tag + 5) val_len
  | Skiplist.Tombstone -> Bytes.unsafe_set b tag '\001');
  set_u32 b (tag + 1) val_len;
  set_u32 b start (Crc32.update_range 0 b ~off:payload ~len:payload_len);
  t.len <- payload + payload_len;
  t.count <- t.count + 1

let byte_size t = t.len
let record_count t = t.count

let replay t =
  let s = t.buf and len = t.len in
  let rec decode off acc =
    if off + 4 > len then List.rev acc
    else begin
      let stored_crc = get_u32 s off in
      let off = off + 4 in
      if off + 4 > len then List.rev acc
      else begin
        let key_len = get_u32 s off in
        if off + 4 + key_len + 1 + 4 > len then List.rev acc
        else begin
          let tag_off = off + 4 + key_len in
          let val_len = get_u32 s (tag_off + 1) in
          let val_off = tag_off + 1 + 4 in
          if val_off + val_len > len then List.rev acc
          else if Crc32.update_range 0 s ~off ~len:(val_off + val_len - off) <> stored_crc then
            List.rev acc (* corrupt record: stop, keep the intact prefix *)
          else begin
            let key = Bytes.sub_string s (off + 4) key_len in
            let entry =
              match Bytes.get s tag_off with
              | '\000' -> Skiplist.Value (Bytes.sub_string s val_off val_len)
              | '\001' | _ -> Skiplist.Tombstone
            in
            decode (val_off + val_len) ((key, entry) :: acc)
          end
        end
      end
    end
  in
  decode 0 []

(* The buffer is kept: the next memtable's records overwrite it in place. *)
let truncate t =
  t.len <- 0;
  t.count <- 0

let corrupt_tail t =
  if t.len > 0 then begin
    let pos = t.len - 1 in
    Bytes.set t.buf pos (Char.chr (Char.code (Bytes.get t.buf pos) lxor 0x5A))
  end

let contents t = Bytes.sub_string t.buf 0 t.len
