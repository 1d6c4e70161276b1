type 'e t = {
  mutable now : int;
  mutable stopped : bool;
  mutable processed : int;
  mutable current_seq : int;
  events : 'e Heap.t;
}

let create ?(capacity = 1024) () =
  { now = 0; stopped = false; processed = 0; current_seq = -1; events = Heap.create ~capacity () }

let now t = t.now

let schedule_at t ~time e =
  if time < t.now then invalid_arg "Sim.schedule_at: time is in the past";
  Heap.add t.events ~key:time e

let schedule_after t ~delay e =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  Heap.add t.events ~key:(t.now + delay) e

let pending t = Heap.length t.events

let next_time t =
  if Heap.is_empty t.events then max_int else Heap.unsafe_min_key t.events
let events_processed t = t.processed
let current_seq t = t.current_seq
let next_seq t = Heap.next_seq t.events
let stop t = t.stopped <- true

(* The loop body allocates nothing: key and value come out of the heap
   through the unsafe accessors instead of boxed options, so steady-state
   event dispatch is GC-silent (asserted by the allocation regression test
   in test/test_golden_perf.ml). *)
let run t ?until ~handler () =
  t.stopped <- false;
  let horizon = match until with None -> max_int | Some h -> h in
  let events = t.events in
  let rec loop () =
    if (not t.stopped) && not (Heap.is_empty events) then begin
      let key = Heap.unsafe_min_key events in
      if key <= horizon then begin
        t.current_seq <- Heap.unsafe_min_seq events;
        let e = Heap.pop_unsafe events in
        t.now <- key;
        t.processed <- t.processed + 1;
        handler t e;
        loop ()
      end
    end
  in
  loop ()
