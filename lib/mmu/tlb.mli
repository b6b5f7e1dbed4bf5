(** Set-associative translation lookaside buffer.

    Tags are (ASID, virtual page number, page size); each set is a fixed
    array of ways with per-slot LRU clocks, so lookup, fill and eviction
    are O(ways) with no allocation. The default geometry approximates a
    Haswell-class L2 STLB: 128 sets, 8 ways, 1024 entries.

    One [t] models the TLB of one physical core and is shared (PCID-style)
    by every address space scheduled there; [asid] scopes lookups and
    invalidations to one address space, while {!flush} drops everything. *)

type t

val create :
  clock:Sim.Clock.t ->
  stats:Sim.Stats.t ->
  ?trace:Sim.Trace.t ->
  ?sets:int ->
  ?ways:int ->
  unit ->
  t
(** [trace] (default {!Sim.Trace.disabled}) records lookup, shootdown and
    flush events. *)

type entry
(** One slot of the TLB. *)

val miss : entry
(** The never-valid entry {!lookup} returns on a miss; compare with [==]. *)

val lookup : t -> asid:int -> va:int -> entry
(** Probe; charges the hit cost and bumps "tlb_hit" on success or
    "tlb_miss" on failure (no walk is performed — callers decide how to
    refill, see {!Mmu}). Returns the slot itself, to read before the next
    fill or invalidation, or {!miss}. [asid] is required here and in
    {!insert}, so a per-access call boxes no option. *)

val phys_addr : entry -> va:int -> int
(** The physical address [va] translates to under the entry. *)

val entry_prot : entry -> Prot.t

val insert :
  t -> asid:int -> va:int -> pfn:Physmem.Frame.t -> prot:Prot.t -> size:Page_size.t -> unit
(** Fill after a walk, evicting the set's LRU entry if full. Each
    eviction of a live entry bumps "tlb_evictions"; re-filling an
    already-resident page or taking a free slot does not. *)

val invalidate_page : t -> ?asid:int -> va:int -> unit -> unit
(** Drop any entry of [asid] covering [va] (all page sizes probed);
    charges the shootdown cost and bumps "tlb_shootdown". *)

val invalidate_range : t -> ?asid:int -> va:int -> len:int -> unit -> unit
(** Shoot down every entry of [asid] overlapping the range. For a range
    of n pages below the full-flush threshold this issues n per-page
    INVLPGs — n shootdown charges and "tlb_shootdown" += n, whether or
    not the pages are resident; at 33+ pages the whole TLB (all ASIDs) is
    flushed instead (one charge), as Linux does. *)

val flush : t -> unit
(** Full flush, all ASIDs; charges one shootdown and bumps "tlb_flush". *)

val entry_count : t -> int

val shootdowns : t -> int
(** This TLB's contribution to the global "tlb_shootdown" stat. Across
    all cores of a machine the sum must equal the stat — [Os.Check]
    enforces the reconciliation. *)

val flushes : t -> int
(** This TLB's contribution to the global "tlb_flush" stat. *)

val iter :
  t ->
  (asid:int -> va:int -> size:Page_size.t -> pfn:Physmem.Frame.t -> prot:Prot.t -> unit) ->
  unit
(** Visit every valid entry ([va] is the size-aligned tag). Host-side
    introspection for the invariant checker: no cost is charged and no
    LRU state is touched. *)

val clear : t -> unit
(** Host-side reset (crash recovery): drop every entry with no cycle
    charge and no stat bumps, keeping the occupancy gauge correct. *)

val full_flush_threshold_pages : int
(** Ranges of at least this many pages are invalidated with one full
    flush rather than per-page INVLPGs (Linux's tlb_single_page_flush
    ceiling: 33). *)
