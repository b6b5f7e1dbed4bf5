(** Range table (Figure 9): the OS-managed structure for range
    translations, after Gandhi et al.'s Redundant Memory Mappings.

    Each entry maps an arbitrarily long contiguous virtual range
    [base, base+limit) to physical memory at [base + offset], with one
    protection word — a single fixed-size entry regardless of range
    length, which is what makes map and unmap O(1). Entries live in a
    B-tree keyed by base (as in Redundant Memory Mappings), so a hardware
    refill reads one node per tree level. *)

type entry = { base : int; limit : int; offset : int; prot : Prot.t }
(** [limit] is the range length in bytes; translation of [va] is
    [va + offset]. *)

type t

val create : clock:Sim.Clock.t -> stats:Sim.Stats.t -> ?trace:Sim.Trace.t -> unit -> t
(** [trace] records "range_table_insert"/"range_table_remove"/
    "range_table_walk" events. *)

val insert : t -> base:int -> limit:int -> offset:int -> prot:Prot.t -> unit
(** O(1) table update (one ordered-map insertion); charges the
    range-table operation cost. Raises [Invalid_argument] if the range
    is empty, misaligned, or overlaps an existing entry. *)

val remove : t -> base:int -> entry
(** Remove the entry starting at [base]; O(1) table-side. Raises
    [Not_found] if absent. *)

val lookup : t -> va:int -> entry option
(** Software lookup, no cost. *)

val walk : t -> va:int -> entry option
(** Hardware refill walk: descends the B-tree, charging one memory
    reference per level (height 1 up to ~7 entries, 2 up to ~50, ...). *)

val entry_count : t -> int
val metadata_bytes : t -> int
(** 32 bytes per entry (base, limit, offset, protection). *)

val bases_in : t -> va:int -> len:int -> int list
(** Bases of the entries starting in [va, va+len), highest first; no cost. *)
