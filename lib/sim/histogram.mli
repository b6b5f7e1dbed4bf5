(** Simple log-bucketed histogram for latency and size distributions. *)

type t

val create : unit -> t

val observe : t -> int -> unit
(** Record one sample. Raises [Invalid_argument] on a negative sample. *)

val count : t -> int
(** Number of samples recorded. *)

val total : t -> int
(** Sum of samples. *)

val mean : t -> float
(** Arithmetic mean; 0 when empty. *)

val stddev : t -> float
(** Population standard deviation; 0 when empty. *)

val min_value : t -> int
(** Smallest sample; 0 when empty. *)

val max_value : t -> int
(** Largest sample; 0 when empty. *)

val percentile : t -> float -> int
(** [percentile t p] with [p] in [0, 100]: an upper bound on the value at
    that rank, exact to the bucket boundary (buckets are powers of two),
    clamped to [[min_value t, max_value t]] so it never exceeds any
    observed sample. Monotone in [p]. *)

val to_json : t -> Json.t
(** Summary object: count/total/mean/stddev/min/max/p50/p90/p99. *)
