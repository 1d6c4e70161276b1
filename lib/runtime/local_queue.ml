type t = {
  cap : int;
  slots : Request.t array; (* length max(cap,1), vacant slots hold [Request.none] *)
  mutable head : int;
  mutable size : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Local_queue.create: negative capacity";
  { cap = capacity; slots = Array.make (max capacity 1) Request.none; head = 0; size = 0 }

let capacity t = t.cap
let length t = t.size
let is_empty t = t.size = 0
let is_full t = t.size >= t.cap

let push t req =
  if is_full t then invalid_arg "Local_queue.push: queue full";
  let idx = (t.head + t.size) mod Array.length t.slots in
  t.slots.(idx) <- req;
  t.size <- t.size + 1

let pop_unsafe t =
  if t.size = 0 then invalid_arg "Local_queue.pop_unsafe: empty";
  let req = t.slots.(t.head) in
  t.slots.(t.head) <- Request.none;
  t.head <- (t.head + 1) mod Array.length t.slots;
  t.size <- t.size - 1;
  req

let pop t = if t.size = 0 then None else Some (pop_unsafe t)
