(** A TCMalloc-style thread-caching allocator — the paper's example of an
    existing design that "wastes space for improved performance" (§2):
    the {!Size_class} engine over anonymous memory, whose free lists are
    the central lists, with a per-thread cache in front.

    Each of {!threads} simulated threads owns per-class free lists served
    without synchronization; they refill in batches from a central list
    (paying a lock cost), which in turn carves 64 KiB spans out of the
    arenas. Compare with {!Malloc_sim} (no caching, no deliberate waste)
    and {!Fom_heap}. *)

type t

val threads : int
(** Thread ids are [0 .. threads - 1]. *)

val create : Os.Kernel.t -> Os.Proc.t -> t
val malloc : t -> thread:int -> bytes:int -> int
val free : t -> thread:int -> int -> unit
val size_of : t -> int -> int option
val live_bytes : t -> int

val footprint_bytes : t -> int
(** Arena memory reserved — includes everything parked in thread caches
    and central lists: the waste bought for speed. *)

val cached_bytes : t -> int
(** Free bytes held in thread caches + central lists (not returned to
    the OS). *)

val central_refills : t -> int
(** Times a thread cache had to take the central lock. *)
