(** Byte-size units, page geometry and alignment arithmetic.

    All sizes and addresses in the simulator are [int] (63-bit on 64-bit
    hosts), which comfortably covers the petabyte address spaces the paper
    discusses. *)

val kib : int -> int
(** [kib n] is [n] kibibytes. *)

val mib : int -> int
(** [mib n] is [n] mebibytes. *)

val gib : int -> int
(** [gib n] is [n] gibibytes. *)

val tib : int -> int
(** [tib n] is [n] tebibytes. *)

val page_size : int
(** Base page size, 4096 bytes, as on x86-64. *)

val page_shift : int
(** [log2 page_size] = 12. *)

val huge_2m : int
(** 2 MiB huge-page size. *)

val huge_1g : int
(** 1 GiB huge-page size. *)

val pages_of_bytes : int -> int
(** [pages_of_bytes n] is the number of base pages covering [n] bytes
    (rounds up). *)

val round_up : int -> align:int -> int
(** [round_up n ~align] rounds [n] up to a multiple of [align].
    [align] must be a power of two. *)

val round_down : int -> align:int -> int
(** [round_down n ~align] rounds [n] down to a multiple of [align]. *)

val is_aligned : int -> align:int -> bool
(** [is_aligned n ~align] is [true] iff [n] is a multiple of [align]. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] for [n >= 1]. [false] for [n <= 0]. *)

val log2_ceil : int -> int
(** [log2_ceil n] is the smallest [k] with [2^k >= n]. Requires [n >= 1]. *)

val log2_floor : int -> int
(** [log2_floor n] is the largest [k] with [2^k <= n]. Requires [n >= 1]. *)

val bytes_to_string : int -> string
(** A byte count with a binary-unit suffix, e.g. "64KiB". *)
