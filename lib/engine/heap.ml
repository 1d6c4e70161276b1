(* Array-based binary min-heap ordered by (key, seq); seq is a per-heap
   insertion counter that breaks ties FIFO so simulation replays are
   deterministic. Slot 0 of the arrays is the root. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = [||];
    size = 0;
    next_seq = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

let grow h v =
  let old = Array.length h.keys in
  let cap = old * 2 in
  let keys = Array.make cap 0
  and seqs = Array.make cap 0
  and vals = Array.make cap v in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* The sifts move the hole rather than swapping entries pairwise: the item
   being placed rides in registers while displaced entries shift one slot,
   so each level costs one store per array instead of two (the [vals] store
   is the expensive one — every pointer-array write runs the GC write
   barrier, and sifting is the simulator's single hottest loop). The final
   array layout is identical to a swap-based sift, and the (key, seq) order
   is total, so pop order — and therefore simulation output — is unchanged.
   Indices stay below [size] by construction, hence the unsafe accesses. *)

let place h key seq v i =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.vals i v

let rec sift_up h key seq v i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let kp = Array.unsafe_get h.keys p in
    if key < kp || (key = kp && seq < Array.unsafe_get h.seqs p) then begin
      Array.unsafe_set h.keys i kp;
      Array.unsafe_set h.seqs i (Array.unsafe_get h.seqs p);
      Array.unsafe_set h.vals i (Array.unsafe_get h.vals p);
      sift_up h key seq v p
    end
    else place h key seq v i
  end
  else place h key seq v i

let rec sift_down h key seq v i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let r = l + 1 in
    let c =
      if r < h.size then begin
        let kl = Array.unsafe_get h.keys l and kr = Array.unsafe_get h.keys r in
        if kr < kl || (kr = kl && Array.unsafe_get h.seqs r < Array.unsafe_get h.seqs l) then r
        else l
      end
      else l
    in
    let kc = Array.unsafe_get h.keys c in
    if kc < key || (kc = key && Array.unsafe_get h.seqs c < seq) then begin
      Array.unsafe_set h.keys i kc;
      Array.unsafe_set h.seqs i (Array.unsafe_get h.seqs c);
      Array.unsafe_set h.vals i (Array.unsafe_get h.vals c);
      sift_down h key seq v c
    end
    else place h key seq v i
  end
  else place h key seq v i

let add h ~key v =
  if h.size = 0 && Array.length h.vals = 0 then
    h.vals <- Array.make (Array.length h.keys) v
  else if h.size = Array.length h.keys then grow h v;
  let i = h.size in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.size <- i + 1;
  sift_up h key seq v i

let min_key h = if h.size = 0 then None else Some h.keys.(0)

(* Non-allocating variants of [min_key]/[pop] for the event-loop hot path.
   Callers must guard with [is_empty]: on an empty heap [unsafe_min_key]
   and [unsafe_min_seq] return whatever stale entry sits in slot 0, and
   [pop_unsafe] raises. *)
let unsafe_min_key h = Array.unsafe_get h.keys 0
let unsafe_min_seq h = Array.unsafe_get h.seqs 0
let next_seq h = h.next_seq

let pop_unsafe h =
  if h.size = 0 then invalid_arg "Heap.pop_unsafe: empty";
  let v = h.vals.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then sift_down h h.keys.(n) h.seqs.(n) h.vals.(n) 0;
  v

let pop h =
  if h.size = 0 then None
  else begin
    let key = h.keys.(0) and v = h.vals.(0) in
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then sift_down h h.keys.(n) h.seqs.(n) h.vals.(n) 0;
    Some (key, v)
  end

let iter h ~f =
  for i = 0 to h.size - 1 do
    f ~key:h.keys.(i) h.vals.(i)
  done
