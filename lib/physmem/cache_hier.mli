(** A write-back, write-allocate cache hierarchy (L1/L2/LLC, LRU,
    64-byte lines).

    The paper notes that even with ample memory, "caches, because of
    their proximity to the processor core, will remain a precious
    resource"; the PMFS course report the camera-ready interleaves
    compares LLC misses between the malloc and PMFS allocation paths.
    Attach a hierarchy to {!Phys_mem} ({!Phys_mem.attach_cache}) and
    demand accesses are charged by the level that hits instead of flat
    memory latency. *)

type level_cfg = { name : string; size_bytes : int; ways : int; latency : int }
(** [latency] is the cycles charged when this level hits. *)

type t

val create :
  clock:Sim.Clock.t -> stats:Sim.Stats.t -> ?levels:level_cfg list -> unit -> t
(** Levels ordered nearest first; defaults to L1/L2/LLC above. *)

type outcome = Hit of int | Miss
(** [Hit i]: level index [i] (0 = nearest) supplied the line. *)

val access : t -> addr:int -> write:bool -> outcome
(** Look up the line containing [addr]. Charges the hit level's latency
    (or all levels' lookup latencies on a full miss — the caller then
    charges memory). The line is filled into every level; a dirty LRU
    victim bumps the "cache_writeback" counter (the caller of a full
    miss decides what a write-back costs). Bumps
    "l1_hit"/"l2_hit"/"llc_hit"/"llc_miss" style counters named after
    each level. *)

val flush : t -> unit
(** Drop all lines (no write-back modelling on explicit flush). *)

val line_count : t -> int
(** Lines currently resident across all levels (diagnostics). *)
