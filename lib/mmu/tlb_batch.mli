(** Batched TLB shootdowns, after Linux's [mmu_gather]: unmap paths that
    tear down many VMAs (or many FOM regions) accumulate the affected
    ranges here and pay for invalidation once at the end — per-page
    INVLPGs while the batch is small, a single full flush once it crosses
    {!Tlb.full_flush_threshold_pages}. This is what makes teardown cost
    O(1) in the number of VMAs rather than one shootdown per VMA. *)

type t

val create : Mmu.t -> t
(** A batch is cheap and short-lived: create one per teardown operation
    against the address space's MMU. *)

val add : t -> va:int -> len:int -> unit
(** Record a range to invalidate. Free: no cycles are charged until
    {!flush}. *)

val flush : t -> unit
(** Pay for the batch: below the threshold, per-page INVLPGs for each
    accumulated range (n shootdown charges); at or above it, one full
    flush of both TLBs. Either way remote cores are interrupted with
    exactly ONE IPI round for the whole batch
    ({!Mmu.shootdown_ranges}) — O(cores) per batch, not per page. Bumps
    "tlb_batch" and adds the page count to "tlb_batch_pages"; records a
    "tlb_batch" trace span whose outcome is ["invlpg"] or
    ["full_flush"]. Empty batches are free no-ops. The batch resets and
    may be reused. *)
