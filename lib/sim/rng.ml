(* SplitMix64: a small, fast, deterministic PRNG.  We avoid Stdlib.Random
   so that simulation runs are reproducible independent of global state. *)

(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh state on every draw.  [mix64] and [next_int64] are
   inlined so a draw's intermediate [int64]s stay unboxed too. *)
type t = Bytes.t

let of_state z =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 z;
  t

let create seed = of_state (Int64.of_int seed)

(* The SplitMix64 output finalizer: a bijective avalanche mix, applied
   to every advanced state and, by [stream], to raw (seed, index)
   combinations to decorrelate nearby pairs. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 z;
  mix64 z

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 random bits -> [0, 1) *)
  x /. 9007199254740992. *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let split t = of_state (next_int64 t)

(* Unlike [split], which derives a child from the parent's *current*
   position (so the result depends on how many draws preceded it), a
   stream is a pure function of (seed, index): worker domain [i] of a
   run seeded [s] always gets the same generator, no matter what the
   coordinating domain drew before spawning it.  Index [i]'s initial
   state is the SplitMix64 finalizer applied to [seed + (i+1)*gamma];
   the finalizer is bijective, so distinct indices give distinct states,
   and the avalanche keeps consecutive indices' output windows disjoint
   in practice (asserted by the qcheck non-overlap property). *)
let stream ~seed ~index =
  if index < 0 then invalid_arg "Rng.stream: negative index";
  let z =
    Int64.add (Int64.of_int seed)
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1)))
  in
  of_state (mix64 z)

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let pareto t ~shape ~scale =
  if shape <= 0. || scale <= 0. then
    invalid_arg "Rng.pareto: shape and scale must be positive";
  let u = float t 1.0 in
  let u = if u <= 0. then 1e-12 else u in
  (* inverse-CDF: X = scale / U^(1/shape), support [scale, +inf) *)
  scale /. (u ** (1. /. shape))
