type t = {
  mutable keys : int array; (* -1: free *)
  mutable cols : int array array; (* cols.(c).(slot) *)
  mutable length : int;
}

let empty = -1
let initial_slots = 64

let create ~cols =
  {
    keys = Array.make initial_slots empty;
    cols = Array.init cols (fun _ -> Array.make initial_slots 0);
    length = 0;
  }

let slot_of t key = key land (Array.length t.keys - 1)

let find t key =
  let s = slot_of t key in
  if key >= 0 && t.keys.(s) = key then s else -1

(* Double until every live key has a slot of its own, moving each row. *)
let rec grow t size =
  let keys = Array.make size empty in
  let cols = Array.map (fun _ -> Array.make size 0) t.cols in
  let fits = ref true in
  Array.iteri
    (fun s key ->
      if key <> empty && !fits then begin
        let d = key land (size - 1) in
        if keys.(d) <> empty then fits := false
        else begin
          keys.(d) <- key;
          Array.iteri (fun c col -> col.(d) <- t.cols.(c).(s)) cols
        end
      end)
    t.keys;
  if !fits then begin
    t.keys <- keys;
    t.cols <- cols
  end
  else grow t (2 * size)

let rec add t key =
  if key < 0 then invalid_arg "Int_table.add: negative key";
  let s = slot_of t key in
  let k = t.keys.(s) in
  if k = key then s
  else if k = empty then begin
    t.keys.(s) <- key;
    for c = 0 to Array.length t.cols - 1 do
      t.cols.(c).(s) <- 0
    done;
    t.length <- t.length + 1;
    s
  end
  else begin
    grow t (2 * Array.length t.keys);
    add t key
  end

let remove t key =
  let s = find t key in
  if s >= 0 then begin
    t.keys.(s) <- empty;
    t.length <- t.length - 1
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.length <- 0

let length t = t.length
let get t s ~col = t.cols.(col).(s)
let set t s ~col v = t.cols.(col).(s) <- v
