(** A process address space: VMA set + page table + MMU context. *)

type t

val create :
  clock:Sim.Clock.t -> stats:Sim.Stats.t -> ?trace:Sim.Trace.t -> table:Hw.Page_table.t ->
  ?range_table:Hw.Range_table.t ->
  ?mode:Hw.Walker.mode -> ?smp:Hw.Smp.t -> ?asid:int -> unit -> t
(** [smp]/[asid] place the address space on a shared machine with a
    unique ASID (the kernel passes [asid] = pid); omitted, the MMU gets a
    private single-core machine. *)

val page_table : t -> Hw.Page_table.t
val mmu : t -> Hw.Mmu.t
val range_table : t -> Hw.Range_table.t option

val alloc_va : t -> len:int -> align:int -> int
(** Reserve a fresh virtual range in the mmap area (bump allocation,
    charged as part of VMA setup by callers). *)

val insert_vma : t -> Vma.t -> unit
(** Add a VMA, merging with neighbours when {!Vma.can_merge} allows; one
    VMA-setup charge. Raises [Invalid_argument] on overlap. *)

val remove_range : t -> start:int -> len:int -> Vma.t list
(** Remove all VMAs fully inside the range (partial overlaps split);
    returns the removed pieces, highest first. *)

val find_vma : t -> va:int -> Vma.t option
val vma_count : t -> int
val iter_vmas : t -> (Vma.t -> unit) -> unit

val mmap_cursor : t -> int
(** Current bump-allocation cursor for {!alloc_va}. *)

val set_mmap_cursor : t -> int -> unit
(** Used by fork to give the child the parent's layout. *)
