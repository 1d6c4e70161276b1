(* Host-speed reference. This host shares its memory system with other
   tenants, and over minutes that moves every memory-bound program's speed
   by up to 1.7x, in step: the simulator and this loop slow down together
   (correlation 0.85 over 60 paired one-second samples, 2-vCPU Xeon VM),
   while a pure-ALU loop barely moves. Timing this fixed loop next to each
   run lets run.py report end-to-end times at a reference host speed.

   The loop is a miniature event simulation with the simulator's memory
   profile, and it uses none of the library's code, so a change to the
   library never moves it: a binary heap of ~200 pending events, one
   short-lived record and list per event, and a random read-modify-write in
   a 4 MB table. Changing it changes every corrected figure, so it is part
   of the benchmark definition and stays frozen. *)

type ev = { time : int; kind : int; payload : int }

(* Seconds the reference loop takes on this host right now. *)
let seconds () =
  let table = Array.make (1 lsl 19) 0 in
  let heap = Array.make 256 { time = 0; kind = 0; payload = 0 } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).time > e.time do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1).time < heap.(l).time then l + 1 else l in
        if heap.(c).time < last.time then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  for k = 0 to 199 do
    push { time = k; kind = k land 3; payload = k }
  done;
  let h = ref 88172645463325252 in
  let t0 = Span.now_ns () in
  for _ = 1 to 500_000 do
    let e = pop () in
    h := !h lxor (!h lsl 13);
    h := !h lxor (!h lsr 7);
    h := !h lxor (!h lsl 17);
    let r = !h land max_int in
    let slot = r land (Array.length table - 1) in
    table.(slot) <- table.(slot) + e.payload;
    let l = List.init (1 + e.kind) (fun j -> j + e.payload) in
    push
      {
        time = e.time + 1 + (r mod 1000);
        kind = (r lsr 3) land 3;
        payload = List.length l + (table.(slot) land 1023);
      }
  done;
  float_of_int (Span.now_ns () - t0) /. 1e9
