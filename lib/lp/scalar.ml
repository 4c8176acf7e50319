(* The scalar fields the sparse basis algebra is generic over. The same
   LU / eta-file / simplex-driver code (Slu, Sparse_simplex) runs over
   exact rationals (the revised engine and the float engine's
   certifier) and over doubles (the float engine's pivoting hot path);
   everything numeric-policy-specific — what counts as zero, which
   pivots are trustworthy — lives behind this signature so the drivers
   stay policy-free. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_q : Rational.t -> t

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t

  (** [submul a b c] is [a - b * c] — the elimination kernel. The
      rational instance fuses the product and difference into one
      normalization (see {!Rational.submul}). *)
  val submul : t -> t -> t -> t

  val compare : t -> t -> int

  (** Structural zero: entries for which this holds are dropped from the
      sparse factors. Exact for rationals; for floats only literal [0.]
      qualifies (no epsilon — dropping small nonzeros would silently
      change the factorization). *)
  val is_zero : t -> bool

  (** [stable_pivot v ~colmax] — may the LU use [v] as a pivot when the
      largest candidate magnitude in its column is [colmax]? Rationals
      accept any nonzero (exact arithmetic needs no pivoting strategy
      beyond sparsity); floats apply threshold partial pivoting. *)
  val stable_pivot : t -> colmax:t -> bool

  (** May [v] serve as the pivot of a product-form eta column? *)
  val eta_pivot_ok : t -> bool
end

module Rat : S with type t = Rational.t = struct
  type t = Rational.t

  let zero = Rational.zero
  let one = Rational.one
  let of_q q = q
  let add = Rational.add
  let sub = Rational.sub
  let mul = Rational.mul
  let div = Rational.div
  let neg = Rational.neg
  let abs = Rational.abs
  let submul = Rational.submul
  let compare = Rational.compare
  let is_zero = Rational.is_zero
  let stable_pivot v ~colmax:_ = not (Rational.is_zero v)
  let eta_pivot_ok v = not (Rational.is_zero v)
end

module Flt : S with type t = float = struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let of_q = Rational.to_float
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let abs = Float.abs
  let submul a b c = a -. (b *. c)
  let compare = Float.compare
  let is_zero x = x = 0.0

  (* below this magnitude a double pivot is numerically meaningless *)
  let tiny = 1e-11
  let stable_pivot v ~colmax = Float.abs v >= 0.1 *. colmax && Float.abs v > tiny
  let eta_pivot_ok v = Float.abs v > tiny
end
