(** Range TLB: a small fully-associative cache of range-table entries
    (Figure 4/9). One entry covers an arbitrarily large contiguous range,
    so a handful of entries can translate terabytes — the hardware half
    of the paper's O(1) story. Default 32 entries, as proposed for
    Redundant Memory Mappings. Backed by interval-ordered maps keyed by
    (ASID, base), so lookup, insert and overlap eviction are
    O(log entries) rather than O(entries).

    Like the page {!Tlb}, one [t] models one core's range TLB shared by
    every address space scheduled there, hence the ASID tag. *)

type t

val create :
  clock:Sim.Clock.t -> stats:Sim.Stats.t -> ?trace:Sim.Trace.t -> ?entries:int -> unit -> t

val lookup : t -> ?asid:int -> va:int -> unit -> Range_table.entry option
(** Probe; charges the hit cost; bumps "range_tlb_hit"/"range_tlb_miss". *)

val insert : t -> ?asid:int -> Range_table.entry -> unit
(** Fill after a range-table walk; LRU eviction. Any cached entry of the
    same ASID whose range overlaps the new one is evicted first, so a
    lookup can never return a stale overlapping translation. *)

val invalidate : t -> ?asid:int -> base:int -> unit -> unit
(** Shoot down the entry of [asid] with this base, if cached: the
    single-operation unmap the paper describes. Charges one shootdown
    and bumps "range_tlb_shootdown". *)

val flush : t -> unit
(** Drop every entry, all ASIDs; charges one shootdown. *)

val clear : t -> unit
(** Host-side reset (crash recovery): no cycle charge, gauge kept
    correct. *)

val entry_count : t -> int
