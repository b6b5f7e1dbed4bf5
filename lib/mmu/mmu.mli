(** Per-address-space MMU front end: the address space's page/range
    tables wired to the shared {!Smp} core complex. Translations fill the
    TLBs of the core the owning process currently runs on ([core]), and a
    [cpumask] (Linux's mm_cpumask) remembers every core that may still
    cache this address space's translations.

    Translation order on an access: the current core's page TLB, then its
    range TLB, then the backing structures (range table first if present
    — a hit there covers arbitrarily large spans with one entry — then
    the radix page table).

    Invalidations are local work plus an explicit IPI round-trip to every
    {e other} core in the cpumask: send (charged at the model's [ipi]
    cost, counted in "ipi_sent" and the source core's [ipi_sent]), remote
    invalidate, ack ("ipi_acked"). A fired [tlb_ack_lost] fault drops the
    remote handler and its ack, leaving a stale entry on the victim core
    that only [Os.Check] can catch. *)

type fault = Not_mapped | Protection

type t

val create :
  clock:Sim.Clock.t -> stats:Sim.Stats.t -> ?trace:Sim.Trace.t -> table:Page_table.t ->
  ?range_table:Range_table.t -> ?mode:Walker.mode -> ?smp:Smp.t -> ?asid:int -> unit -> t
(** [smp] is the machine the address space runs on; omitted, a private
    single-core {!Smp} with the default TLB geometry is built (the
    pre-SMP behaviour, right for standalone tests and micro-benches).
    [asid] (default 0) tags this address space's entries in the shared
    per-core TLBs. [trace] (default {!Sim.Trace.disabled}) is threaded
    into the TLBs and walker so every lookup/walk/shootdown/IPI records a
    latency event. *)

val tlb : t -> Tlb.t
(** The page TLB of the core this address space currently runs on. *)

val stats : t -> Sim.Stats.t
val trace : t -> Sim.Trace.t
val asid : t -> int

val set_core : t -> int -> unit
(** Migrate the address space's execution to another core (scheduler
    use). Costs nothing here — the scheduler charges its own overhead —
    but subsequent translations fill the new core's TLBs. *)


val translate : t -> va:int -> write:bool -> exec:bool -> (int, fault) result
(** Translate one access, charging TLB probe / walk costs and maintaining
    accessed/dirty bits. *)

val access : t -> mem:Physmem.Phys_mem.t -> va:int -> write:bool -> int
(** [translate] then touch the physical byte (charging the memory
    reference). Returns the physical address, or a negative code if the
    access faults, so a fault boxes nothing. *)

val flush_tlbs : t -> unit
(** Purely local full flush of the current core's TLBs (context switch):
    zero IPIs, exactly one [tlb_shootdown]-cost charge per TLB — the
    single-core cost {!Sim.Cost_model.tlb_shootdown} now models. *)

val invalidate_page : t -> va:int -> unit
(** Invalidate one page locally, then one IPI round: every other
    cpumask core is interrupted and invalidates the page. O(cores) per
    page — the per-page shootdown tax the paper's range translations
    avoid. *)

val invalidate_range : t -> va:int -> len:int -> unit
(** Shoot down page-TLB entries in the range and any range-TLB entry
    whose base lies within it, locally and via one IPI round. *)

val invalidate_base : t -> base:int -> unit
(** Range-entry shootdown: drop the range-TLB entry with this base on
    the local core and, via one IPI round, on every other cpumask core.
    O(cores) total regardless of the range's size — the paper's O(1)
    (per core) unmap. *)

val shootdown_ranges : t -> ranges:(int * int) list -> pages:int -> unit
(** The batched exit path ({!Tlb_batch}): invalidate every [(va, len)]
    range locally, then issue ONE IPI round in which each remote core
    processes the whole list — O(cores) IPIs per batch rather than per
    page. At {!Tlb.full_flush_threshold_pages}+ total pages each involved
    core full-flushes instead, still one IPI round, and the cpumask
    resets. *)
