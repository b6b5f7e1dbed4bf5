(** Free-extent allocator with first-fit / best-fit policies and eager
    coalescing.

    This is the contiguity engine behind file-only memory: file systems
    "can efficiently allocate large contiguous extents, which reduces the
    per-page cost of allocation". Free space is a set of (start, length)
    extents ordered by address; frees coalesce with both neighbours, so —
    unlike the non-merging buddy — all contiguity present is usable. *)

type policy = First_fit | Best_fit

type t

val create :
  mem:Physmem.Phys_mem.t -> first:Physmem.Frame.t -> count:int -> policy:policy -> t

val alloc : t -> frames:int -> Physmem.Frame.t option
(** Claim exactly [frames] contiguous frames, or [None]. Constant-ish
    cost: one ordered-map search plus one extent update. *)

val alloc_largest : t -> (Physmem.Frame.t * int) option
(** Claim the single largest free extent (used to grab "whatever is
    left" for best-effort contiguity). *)

val free : t -> first:Physmem.Frame.t -> frames:int -> unit
(** Return a range; coalesces with adjacent free extents.
    Raises [Invalid_argument] on overlap with free space or out-of-range. *)

val free_frames : t -> int
val largest_free : t -> int
val extent_count : t -> int
(** Number of distinct free extents (fragmentation indicator). *)

val fragmentation : t -> float
(** [1 - largest_free/free_frames]; 0 when free space is one extent or
    empty. *)
