(** Radix page tables, x86-64 style: 9 translation bits per level, 12-bit
    page offset, 4 levels (48-bit VA) or 5 levels (57-bit VA).

    Besides the usual map/unmap/protect, the table supports {b grafting a
    subtree of another table} at a page-table-boundary-aligned address —
    the paper's Figure 3 mechanism ("creating a pointer from one
    process's page table to an internal page-table node of another
    process sharing the file"), which makes mapping a shared file O(1).

    The table charges the clock for the software cost of its own updates
    (PTE writes, node allocations); hardware walk costs are charged by
    {!Walker} and {!Tlb}. *)

type t

type leaf = {
  mutable pfn : Physmem.Frame.t;
  mutable prot : Prot.t;
  mutable accessed : bool;
  mutable dirty : bool;
  size : Page_size.t;
}

val create :
  clock:Sim.Clock.t -> stats:Sim.Stats.t -> levels:int ->
  alloc_frame:(unit -> Physmem.Frame.t) -> t
(** [levels] is 4 or 5. [alloc_frame] supplies physical frames for
    page-table nodes (typically from the kernel's buddy allocator). *)

val levels : t -> int
val va_bits : t -> int
(** 48 for 4 levels, 57 for 5. *)

val entry_span : t -> depth:int -> int
(** Bytes covered by one entry of a node at [depth] (root = depth 0).
    E.g. with 4 levels, depth 2 entries span 2 MiB. *)

val map_page : t -> va:int -> pfn:Physmem.Frame.t -> prot:Prot.t -> size:Page_size.t -> unit
(** Install one leaf. [va] must be size-aligned and unmapped; the target
    slot must not be occupied by a smaller-page subtree.
    Raises [Invalid_argument] otherwise. *)

val map_range :
  t -> va:int -> pfn:Physmem.Frame.t -> len:int -> prot:Prot.t -> huge:bool -> int
(** Map a contiguous physical range. With [huge:true] the largest page
    size permitted by alignment is used at each step. [va], [len] and the
    physical base must be page-aligned and congruent. Returns the number
    of leaf PTEs written. *)

val unmap_page : t -> va:int -> unit
(** Remove the leaf covering [va]; prunes page-table nodes that become
    empty — except nodes other tables still reference, which survive (an
    unmap inside a shared subtree is visible to every sharer, as shared
    mappings require). Raises [Invalid_argument] if not mapped. *)

val ensure_node : t -> va:int -> depth:int -> unit
(** Pre-create the interior path down to the node at [depth] covering
    [va] ("pre-created page tables"). Raises [Invalid_argument] if a
    huge-page leaf blocks the path. *)

val unmap_range : t -> va:int -> len:int -> int
(** Unmap every leaf starting in [va, va+len); returns leaves removed. *)

val protect_range : t -> va:int -> len:int -> prot:Prot.t -> int
(** Rewrite protection on every leaf in range; returns PTEs touched. *)

val lookup : t -> va:int -> (int * leaf) option
(** Software lookup (no hardware cost): physical address + leaf. *)

val share_subtree : src:t -> src_va:int -> dst:t -> dst_va:int -> depth:int -> unit
(** Graft the [src] subtree under the entry at [depth] covering [src_va]
    into [dst] at [dst_va]: a single pointer write (plus path creation in
    [dst] down to [depth]). Both VAs must be aligned to
    [entry_span ~depth] and congruent modulo it; the [dst] slot must be
    empty; the two tables must have equal level counts. *)

val unshare : t -> va:int -> depth:int -> unit
(** Drop a grafted pointer: O(1). The subtree itself survives in its
    owning table. *)

val is_shared_at : t -> va:int -> depth:int -> bool
(** True iff the entry at that position is a subtree referenced by more
    than one parent. *)

val iter_leaves : t -> (int -> leaf -> unit) -> unit
(** Iterate (va, leaf) over every mapping, ascending VA. Visits grafted
    subtrees too. *)

val pte_count : t -> int
(** Number of leaf entries reachable (including via grafts). *)

val node_count : t -> int
(** Page-table nodes owned by this table (grafted foreign subtrees are
    not counted — they are the other table's memory). *)

val metadata_bytes : t -> int
(** [node_count * 4096]: the physical memory spent on this table. *)
