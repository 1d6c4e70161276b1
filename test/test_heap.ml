(* Unit and property tests for the engine's binary heap. *)

module Heap = Repro_engine.Heap

let check = Alcotest.(check int)

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  check "length" 0 (Heap.length h);
  Alcotest.(check (option int)) "min_key" None (Heap.min_key h);
  Alcotest.(check bool) "pop" true (Heap.pop h = None)

let test_single () =
  let h = Heap.create () in
  Heap.add h ~key:5 "x";
  check "length" 1 (Heap.length h);
  Alcotest.(check (option int)) "min_key" (Some 5) (Heap.min_key h);
  (match Heap.pop h with
  | Some (5, "x") -> ()
  | Some _ | None -> Alcotest.fail "wrong pop");
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:k k) [ 9; 3; 7; 1; 8; 2; 6; 4; 5; 0 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (drain [])

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.add h ~key:1 v) [ "a"; "b"; "c" ];
  Heap.add h ~key:0 "first";
  let order =
    List.init 4 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "fifo among equal keys" [ "first"; "a"; "b"; "c" ] order

(* Sequence numbers are the insertion count: the minimum entry carries the
   [next_seq] it was added at, and popping never rewinds the counter. *)
let test_seqs () =
  let h = Heap.create () in
  check "fresh" 0 (Heap.next_seq h);
  Heap.add h ~key:5 "a";
  Heap.add h ~key:1 "b";
  Heap.add h ~key:5 "c";
  check "three adds" 3 (Heap.next_seq h);
  check "min is the second add" 1 (Heap.unsafe_min_seq h);
  ignore (Heap.pop_unsafe h : string);
  check "then the first" 0 (Heap.unsafe_min_seq h);
  ignore (Heap.pop_unsafe h : string);
  ignore (Heap.pop_unsafe h : string);
  Heap.add h ~key:0 "d";
  check "not rewound by pops" 3 (Heap.unsafe_min_seq h)

let test_iter () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:k k) [ 3; 1; 2 ];
  let sum = ref 0 in
  Heap.iter h ~f:(fun ~key _ -> sum := !sum + key);
  check "iter visits all" 6 !sum

let test_growth () =
  let h = Heap.create ~capacity:2 () in
  for i = 1000 downto 0 do
    Heap.add h ~key:i i
  done;
  check "grew" 1001 (Heap.length h);
  Alcotest.(check (option int)) "min" (Some 0) (Heap.min_key h)

let test_unsafe_accessors () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:k (k * 10)) [ 5; 2; 8 ];
  check "unsafe_min_key sees the root" 2 (Heap.unsafe_min_key h);
  check "pop_unsafe returns the value alone" 20 (Heap.pop_unsafe h);
  check "root advances" 5 (Heap.unsafe_min_key h);
  check "second pop" 50 (Heap.pop_unsafe h);
  check "last pop" 80 (Heap.pop_unsafe h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let prop_unsafe_matches_pop =
  QCheck.Test.make ~count:300 ~name:"pop_unsafe drains in exactly pop's order"
    QCheck.(list small_int)
    (fun keys ->
      let a = Heap.create () and b = Heap.create () in
      List.iteri
        (fun i k ->
          Heap.add a ~key:k i;
          Heap.add b ~key:k i)
        keys;
      let rec go () =
        match Heap.pop a with
        | None -> Heap.is_empty b
        | Some (k, v) -> Heap.unsafe_min_key b = k && Heap.pop_unsafe b = v && go ()
      in
      go ())

let prop_pop_sorted =
  QCheck.Test.make ~count:300 ~name:"heap pops keys in nondecreasing order"
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k k) keys;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (k, _) -> k >= prev && drain k
      in
      drain min_int)

let prop_conserves_elements =
  QCheck.Test.make ~count:300 ~name:"heap pops exactly the multiset pushed"
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.add h ~key:k i) keys;
      let rec drain acc =
        match Heap.pop h with None -> acc | Some (_, v) -> drain (v :: acc)
      in
      List.sort compare (drain []) = List.init (List.length keys) (fun i -> i))

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "single element" `Quick test_single;
    Alcotest.test_case "pops in key order" `Quick test_ordering;
    Alcotest.test_case "FIFO among equal keys" `Quick test_fifo_ties;
    Alcotest.test_case "sequence numbers follow insertion" `Quick test_seqs;
    Alcotest.test_case "iter visits every entry" `Quick test_iter;
    Alcotest.test_case "grows past initial capacity" `Quick test_growth;
    Alcotest.test_case "unsafe accessors" `Quick test_unsafe_accessors;
    QCheck_alcotest.to_alcotest prop_unsafe_matches_pop;
    QCheck_alcotest.to_alcotest prop_pop_sorted;
    QCheck_alcotest.to_alcotest prop_conserves_elements;
  ]
