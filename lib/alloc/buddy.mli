(** Binary buddy allocator over a contiguous range of physical frames,
    in the style of Linux's page allocator.

    Blocks are power-of-two numbers of frames ("orders"); freeing a block
    merges it with its buddy when both are free. A non-merging mode
    reproduces the paper's observation that Linux "does not aggressively
    merge pages, so there may be contiguity present that is not available
    for use". *)

type t

val create :
  mem:Physmem.Phys_mem.t -> first:Physmem.Frame.t -> count:int -> ?max_order:int ->
  ?merge:bool -> unit -> t
(** Manage frames [first .. first+count-1]. [first] must be aligned to
    [2^max_order] frames and [count] a multiple of it. [max_order]
    defaults to 10 (4 MiB blocks, as in Linux); [merge] defaults to
    [true]. *)

val max_order : t -> int

val owns : t -> Physmem.Frame.t -> bool
(** True iff the frame lies in the managed range, free or not. *)

val frames : t -> int
(** Size of the managed range, in frames. *)

val alloc : t -> order:int -> Physmem.Frame.t option
(** Allocate a block of [2^order] frames; splits larger blocks as needed.
    Charges allocator work plus one unit per split. *)

val free : t -> Physmem.Frame.t -> order:int -> unit
(** Return a block. In merging mode, coalesces with free buddies upward.
    The block must have been allocated at exactly this order.
    Raises [Invalid_argument] on double free or misaligned block. *)

val alloc_frames : t -> frames:int -> Physmem.Frame.t option
(** Allocate at the smallest order covering [frames] frames. *)

val free_frames_count : t -> int
(** Total free frames currently held. *)

val largest_free_order : t -> int option
(** Largest order with a non-empty free list; [None] if empty. *)

val free_blocks_per_order : t -> int array
(** Index [k] holds the number of free blocks of order [k]. *)

val is_free : t -> Physmem.Frame.t -> bool
(** True iff the frame lies inside some free block. O(orders) probe. *)
