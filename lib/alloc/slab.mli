(** Bonwick-style slab allocator.

    The paper proposes "using techniques from heaps, such as slab
    allocators, to manage physical memory". A cache serves objects of one
    fixed size; slabs (contiguous frame blocks from a buddy allocator)
    are carved into objects chained on a free list, so allocation and
    free are O(1) pushes/pops. Empty slabs are returned to the buddy. *)

type cache

val create_cache :
  mem:Physmem.Phys_mem.t -> backing:Buddy.t -> name:string -> obj_bytes:int ->
  unit -> cache
(** A cache of objects of [obj_bytes] (rounded up to 64 B). Each backing
    block is the smallest power-of-two run of frames that holds at least
    8 objects. Raises [Invalid_argument] if that block is larger than the
    buddy allocator's largest order. *)

val obj_bytes : cache -> int

val alloc : cache -> int option
(** Physical byte address of a fresh object, or [None] if the backing
    allocator is exhausted. O(1) unless a new slab must be fetched. *)

val free : cache -> int -> unit
(** Return an object by address. Raises [Invalid_argument] if the address
    does not belong to a live object of this cache. A slab whose objects
    are all free is handed back to the buddy allocator. *)

val live_objects : cache -> int
val slab_count : cache -> int

val footprint_bytes : cache -> int
(** Bytes of physical memory currently held by the cache (all slabs),
    including internal fragmentation — the space half of the paper's
    space-for-time trade (E15). *)

val wasted_bytes : cache -> int
(** Footprint minus bytes in live objects. *)
