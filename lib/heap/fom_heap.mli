(** A user heap backed by file-only memory: the {!Size_class} engine
    over FOM files. Arenas are file-backed regions mapped whole at
    creation (no demand faults, ever), and a large block is a file of its
    own. Allocation latency is therefore flat: the mapping work was
    O(extents) up front and the fault machinery is gone.

    With [file_prefix] the arenas are {e named persistent} files
    ("<prefix>.<n>", n = creation index), so the heap's memory survives a
    machine crash; arena-relative addressing ({!locate} / {!address})
    plus {!reattach} let a persistent caller (the object store) keep
    stable block identities across crashes even though virtual addresses
    change — the Puddles relocatable-region idea. *)

type t

val create : O1mem.Fom.t -> Os.Proc.t -> ?file_prefix:string -> unit -> t
val malloc : t -> bytes:int -> int
val free : t -> int -> unit
val size_of : t -> int -> int option
val live_bytes : t -> int
val footprint_bytes : t -> int

val region_count : t -> int
(** Files currently backing the heap. *)

(** {1 Arena-relative addressing (persistent heaps)} See {!Size_class}. *)

val arena_count : t -> int
val arena_region : t -> int -> O1mem.Fom.region
val locate : t -> int -> (int * int) option
val address : t -> arena:int -> off:int -> int
val iter_live : t -> (int -> int -> unit) -> unit

val reattach : t -> Os.Proc.t -> unit
(** Post-crash relocation into [proc]: re-map every named arena by path
    at fresh VAs and {!Size_class.relocate} onto them. Arena indices and
    offsets are unchanged — only VAs move. The next arena's file, if a
    crash interrupted its creation, is unlinked. Requires [file_prefix];
    refuses if large blocks are live (they are not relocatable). *)

val destroy : t -> unit
(** Free every backing file (heap teardown = a handful of whole-file
    frees, the paper's process-exit story). *)
