(** Hardware page-table walker cost model.

    On a TLB miss the walker issues one memory reference per radix level
    down to the leaf. Under virtualization each of those guest references
    itself requires a nested walk of the host table, giving the
    [(g+1)*(h+1) - 1] reference count the paper cites: 24 references for
    4-level-on-4-level and up to 35 for 5-level-on-5-level. *)

type mode = Native | Virtualized of int
(** [Virtualized h]: nested paging with an [h]-level host table. *)

val refs_for_walk : guest_levels:int -> leaf_depth:int -> mode:mode -> int
(** Memory references to resolve one miss whose leaf sits at [leaf_depth]
    (root = 0; a 4 KiB leaf in a 4-level table is at depth 3 and costs 4
    native references). *)

val walk :
  trace:Sim.Trace.t ->
  clock:Sim.Clock.t ->
  stats:Sim.Stats.t ->
  table:Page_table.t ->
  mode:mode ->
  va:int ->
  Page_table.leaf
(** Resolve [va]. Charges one full DRAM reference for the leaf PTE and a
    cache-hit cost for each upper-level access (modelling page-walk
    caches); bumps "walk_refs" by the raw reference count. Sets the
    leaf's accessed bit. Returns the leaf itself, or
    {!Page_table.no_leaf} for an unmapped address (the walk cost is
    still charged — the hardware walked to find the hole), and
    allocates nothing. [trace] ({!Sim.Trace.disabled} for none) records
    a "page_walk" event with the reference count as [arg]. *)
