(** A dlmalloc-style user heap over the baseline kernel (the paper's
    "malloc" comparator, Figure 2/7): the {!Size_class} engine over
    demand-paged anonymous memory. Arenas and large blocks are
    [mmap(MAP_ANONYMOUS)] regions, and pages are touched only when the
    program touches them — exactly the behaviour whose fault costs
    Figure 7 prices. *)

val anon : Os.Kernel.t -> Os.Proc.t -> name:string -> (int * int) Size_class.backend
(** Anonymous memory: a region is its [(va, len)], a large block is
    page-rounded. [name] prefixes errors. *)

type t

val create : Os.Kernel.t -> Os.Proc.t -> t
val malloc : t -> bytes:int -> int
val free : t -> int -> unit
val size_of : t -> int -> int option
val live_bytes : t -> int
val footprint_bytes : t -> int
val arena_count : t -> int

val trim : t -> int
(** Release the whole pages inside free blocks back to the kernel with
    MADV_DONTNEED. Returns pages released. This is the per-page
    housekeeping the paper notes heaps must do today ("the heap need not
    identify unused pages to release with madvise()" under file-only
    memory). *)
