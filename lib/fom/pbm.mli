(** Physically based mappings (paper §4.2, Figure 8).

    Virtual addresses are generated algorithmically from physical ones:
    [va = pa + pbm_offset]. Because the algorithm is the same for every
    process, a given physical extent gets the {e same} VA everywhere —
    no collisions (physical addresses are unique), no coordination.

    All PBM mappings live in one kernel-owned global page table covering
    the PBM virtual window. A process "attaches" by grafting a single
    root-level pointer to that table: O(1) per process, regardless of how
    many PBM regions exist or how large they are.

    Security note: PBM addresses are by construction identical in every
    process and cannot be randomized — code or data in the PBM window
    could never take part in address-space layout randomization. The
    paper does not discuss this trade; we surface it here. *)

type t

val create : Os.Kernel.t -> t

val va_of_addr : int -> int
(** The virtual address every process uses for a physical byte. *)

val addr_of_va : int -> int

val map_region : t -> first:Physmem.Frame.t -> count:int -> prot:Hw.Prot.t -> int
(** Enter a contiguous physical extent into the global PBM table (using
    huge pages where alignment allows) and return its (universal) VA. *)

val attach : t -> Os.Proc.t -> unit
(** Graft the PBM window into the process: one pointer write. *)

val detach : t -> Os.Proc.t -> unit

val metadata_bytes : t -> int
(** Bytes of the single shared PBM table (contrast with per-process
    replicas in the baseline). *)
