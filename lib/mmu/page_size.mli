(** The page sizes x86-64 supports: the paper's point is that there are
    only a few and they carry power-of-512 alignment restrictions. *)

type t = Small | Huge_2m | Huge_1g

val bytes : t -> int
val frames : t -> int
(** Number of 4 KiB frames covered. *)

val depth_above_leaf : t -> int
(** How many radix levels above the deepest one the leaf PTE sits:
    0 for 4 KiB, 1 for 2 MiB, 2 for 1 GiB. *)

val largest_for : addr:int -> len:int -> t
(** Largest page size usable at [addr] given alignment and [len]
    remaining. *)
