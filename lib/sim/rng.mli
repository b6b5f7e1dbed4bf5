(** Deterministic pseudo-random numbers (xoshiro256 star-star).

    The simulator never uses [Random] from the stdlib so that every
    experiment is exactly reproducible from a seed. *)

type t

val create : seed:int -> t
(** [create ~seed] builds a generator. Equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy with the same current state. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in [lo, hi] inclusive. Requires [lo <= hi]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val zipf : n:int -> theta:float -> t -> int
(** [zipf ~n ~theta] is a sampler of Zipf-like ranks in [0, n) with skew
    [theta] in (0, 1); higher theta is more skewed. It sums the exact
    zeta(n) once, at O(n), so build it once per workload. Each draw uses
    the standard rejection-free approximation of Gray et al. *)
