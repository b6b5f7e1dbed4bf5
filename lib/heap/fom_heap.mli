(** A user heap backed by file-only memory: the heap segment is a file.

    Small requests are carved from file-backed arena regions mapped whole
    at creation (no demand faults, ever); large requests get a file of
    their own. Allocation latency is therefore flat: the mapping work was
    O(extents) up front and the fault machinery is gone.

    With [file_prefix] the arenas are {e named persistent} files
    ("<prefix>.<n>"), so the heap's memory survives a machine crash; the
    arena-relative addressing below ({!locate} / {!address}) plus
    {!reattach} let a persistent caller (the object store) keep stable
    block identities across crashes even though virtual addresses
    change — the Puddles relocatable-region idea. *)

type t

val create : O1mem.Fom.t -> Os.Proc.t -> ?arena_bytes:int -> ?file_prefix:string -> unit -> t
(** [file_prefix] makes every arena a named persistent file
    "<prefix>.<n>" (n = creation index) instead of an anonymous
    volatile temporary. *)

val malloc : t -> bytes:int -> int
val free : t -> int -> unit
val size_of : t -> int -> int option

val live_bytes : t -> int
val footprint_bytes : t -> int
val region_count : t -> int
(** Files currently backing the heap. *)

(** {1 Arena-relative addressing (persistent heaps)} *)

val arena_count : t -> int

val arena_region : t -> int -> O1mem.Fom.region
(** The region currently mapping arena [i] (creation order). Raises
    [Invalid_argument] on an out-of-range index. *)

val locate : t -> int -> (int * int) option
(** [(arena index, byte offset)] of a VA inside some arena — the
    crash-stable name of the location. [None] for VAs outside every
    arena (e.g. large blocks, which have no stable identity). *)

val address : t -> arena:int -> off:int -> int
(** Current VA of an arena-relative location (inverse of {!locate}). *)

val iter_live : t -> (int -> int -> unit) -> unit
(** Iterate live blocks as [f va size], in no particular order. *)

val reattach : t -> Os.Proc.t -> unit
(** Post-crash relocation: re-map every named arena by path into [proc]
    (fresh VAs) and rebase the live table, free lists, and bump cursor to
    the new bases. Arena indices and offsets are unchanged — only VAs
    move. The next arena's file, if a crash interrupted its creation, is
    unlinked. Requires [file_prefix]; refuses if large blocks are live
    (they are not relocatable). *)

val destroy : t -> unit
(** Free every backing file (heap teardown = a handful of whole-file
    frees, the paper's process-exit story). *)
