(* Discretized Gittins index for preempt-resume scheduling.

   For a service distribution with CDF F, the Gittins index of a request
   at age a (attained service) is

       G(a) = sup_{d > 0}  P(S - a <= d | S > a) / E[min(S - a, d) | S > a]

   and the optimal (mean-delay) policy serves the request with the largest
   index. We store the *rank* 1/G(a) — an "equivalent remaining work" in
   nanoseconds — so a min-heap keyed by rank orders requests exactly as a
   max-heap on the index would, in the same units SRPT uses.

   Discretization (documented for EXPERIMENTS.md): ages and lookahead
   horizons d share one grid of [grid] points — 0 followed by
   log-spaced points up to [max_ns], where [max_ns] covers the
   0.99999-quantile of the distribution. For each grid age a_i we evaluate
   the supremum only at grid horizons d = t_j - a_i (j > i), computing

       gain_j = F(t_j) - F(a_i)
       cost_j = integral over [a_i, t_j] of (1 - F(u)) du   (trapezoid)

   and take rank(a_i) = min_j cost_j / gain_j. The trapezoid rule is exact
   wherever F is piecewise constant between grid points (discrete and
   empirical distributions) up to half a grid step around each atom, and
   that error is shared by every age, so orderings are preserved. Between
   grid ages the rank is linearly interpolated; beyond the last grid age it
   is clamped.

   Degenerate sanity anchors (tested): Fixed s gives rank(a) ~= s - a, so
   Gittins collapses to SRPT; Exponential gives a constant rank (the index
   is memoryless), so Gittins collapses to FCFS among started requests. *)

module Rng = Repro_engine.Rng

type t = {
  ages : float array;  (* increasing, ages.(0) = 0 *)
  ranks : float array;  (* rank (ns of equivalent remaining work) at each age *)
  rank0 : int;  (* rank at age 0, pre-rounded for heap keys *)
}

let default_grid = 192

(* Smallest grid x with cdf(x) >= q, found by doubling from [start] —
   variant-agnostic so it works for analytic and empirical CDFs alike. *)
let quantile_bound ~cdf ~start q =
  let rec go x n = if n = 0 || cdf x >= q then x else go (x *. 2.0) (n - 1) in
  go (Float.max 1.0 start) 64

let of_cdf ?(grid = default_grid) ~cdf ~max_ns () =
  if grid < 8 then invalid_arg "Gittins.of_cdf: grid too small";
  if not (Float.is_finite max_ns) || max_ns <= 0.0 then
    invalid_arg "Gittins.of_cdf: max_ns must be positive";
  let n = grid in
  let lo = Float.max 1.0 (max_ns *. 1e-5) in
  let ages = Array.make n 0.0 in
  let ratio = log (max_ns /. lo) /. float_of_int (n - 2) in
  for i = 1 to n - 1 do
    ages.(i) <- lo *. exp (float_of_int (i - 1) *. ratio)
  done;
  let f = Array.map cdf ages in
  let ranks = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let survival = 1.0 -. f.(i) in
    if survival <= 1e-12 then
      (* Age at (or beyond) the top of the support: effectively no work
         left; highest priority. *)
      ranks.(i) <- 0.0
    else begin
      let best = ref infinity in
      let cost = ref 0.0 in
      for j = i + 1 to n - 1 do
        let dt = ages.(j) -. ages.(j - 1) in
        cost := !cost +. (dt *. ((1.0 -. f.(j - 1)) +. (1.0 -. f.(j))) /. 2.0);
        let gain = f.(j) -. f.(i) in
        if gain > 0.0 then begin
          let r = !cost /. gain in
          if r < !best then best := r
        end
      done;
      (* The conditioning on S > a_i cancels between gain and cost, so both
         are left unconditioned above; only the mean-residual fallback needs
         the explicit division by survival. *)
      ranks.(i) <-
        (if Float.is_finite !best then !best
         else (* no probability mass inside the grid *)
           !cost /. survival)
    end
  done;
  { ages; ranks; rank0 = int_of_float (Float.round ranks.(0)) }

let of_dist ?grid dist =
  let cdf = Service_dist.cdf dist in
  let max_ns = quantile_bound ~cdf ~start:(Service_dist.mean_ns dist) 0.99999 in
  of_cdf ?grid ~cdf ~max_ns ()

let default_samples = 8_192
let default_seed = 0x9177

let of_mix ?grid ?(samples = default_samples) ?(seed = default_seed) (mix : Mix.t) =
  if samples < 2 then invalid_arg "Gittins.of_mix: need at least two samples";
  (* Empirical table: draw from the mix with a dedicated fixed-seed stream.
     Note that mixes whose generators close over shared mutable state
     (kvstore-backed ones, [Mix.parallel_safe = false]) advance that state
     here; the table is built once, before the simulation streams split,
     so simulation determinism is unaffected. *)
  let rng = Rng.create ~seed in
  let xs =
    Array.init samples (fun _ ->
        float_of_int (Mix.sample mix rng).Mix.service_ns)
  in
  Array.sort compare xs;
  let n = Array.length xs in
  let nf = float_of_int n in
  (* Empirical CDF via binary search: count of samples <= x. *)
  let cdf x =
    if x < xs.(0) then 0.0
    else begin
      let lo = ref 0 and hi = ref n in
      (* invariant: xs.(lo-1) <= x < xs.(hi) *)
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if xs.(mid) <= x then lo := mid + 1 else hi := mid
      done;
      float_of_int !lo /. nf
    end
  in
  of_cdf ?grid ~cdf ~max_ns:(Float.max 1.0 xs.(n - 1)) ()

(* Rank lookup with linear interpolation between grid ages; clamped at the
   ends. Called on every push of a preempted request — iterative binary
   search on ints/floats, no allocation (a local recursive closure would
   capture [a] and box it). *)
let rank_ns t ~age_ns =
  let ages = t.ages and ranks = t.ranks in
  let n = Array.length ages in
  let a = float_of_int age_ns in
  if a <= 0.0 then t.rank0
  else if a >= ages.(n - 1) then int_of_float (Float.round ranks.(n - 1))
  else begin
    (* smallest i with a < ages.(i); 1 <= i <= n-1 here *)
    let lo = ref 1 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if a < Array.unsafe_get ages mid then hi := mid else lo := mid + 1
    done;
    let i = !lo in
    let a0 = ages.(i - 1) and a1 = ages.(i) in
    let w = (a -. a0) /. (a1 -. a0) in
    let r = ranks.(i - 1) +. (w *. (ranks.(i) -. ranks.(i - 1))) in
    int_of_float (Float.round r)
  end

let rank0_ns t = t.rank0
