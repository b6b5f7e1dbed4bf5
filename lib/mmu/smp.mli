(** The simulated machine's core complex.

    Each core owns a private page {!Tlb} and {!Range_tlb} plus IPI and
    cycle-attribution counters; all cores share one virtual clock and one
    stats sink. The simulator is sequential, so "parallel" execution is
    modelled as per-core cycle attribution ([busy_cycles]) over a single
    timeline — fault throughput vs cores is read off as the makespan
    (max per-core busy cycles), while coherence (shootdown IPIs) is
    simulated exactly. Cores are partitioned contiguously across
    [numa_nodes] NUMA domains. *)

type core = {
  id : int;
  numa_node : int;  (** NUMA domain this core belongs to. *)
  tlb : Tlb.t;
  range_tlb : Range_tlb.t;
  mutable ipi_sent : int;  (** Shootdown IPIs this core initiated. *)
  mutable ipi_received : int;  (** Shootdown IPIs delivered to this core. *)
  mutable ipi_acked : int;  (** Acks returned; lags [ipi_received] when an ack is lost. *)
  mutable busy_cycles : int;  (** Cycles attributed to work run on this core. *)
}

type t

val create :
  clock:Sim.Clock.t ->
  stats:Sim.Stats.t ->
  ?trace:Sim.Trace.t ->
  ?cores:int ->
  ?numa_nodes:int ->
  ?tlb_sets:int ->
  ?tlb_ways:int ->
  ?range_tlb_entries:int ->
  unit ->
  t
(** Defaults: 1 core, 1 NUMA node — the pre-SMP machine. [numa_nodes]
    must not exceed [cores]. *)

val cores : t -> int
val numa_nodes : t -> int

val core : t -> int -> core
(** The core with this id; raises [Invalid_argument] out of range. *)

val iter_cores : t -> (core -> unit) -> unit
val numa_node_of_core : t -> int -> int

val add_busy : t -> int -> int -> unit
(** [add_busy t core cycles] attributes [cycles] of work to [core],
    feeds the causal plane's makespan accounting, and updates the
    [core<N>_busy] gauge (clock-sampled into the PR 4 time series). *)

val clear : t -> unit
(** Host-side reset of every core's TLBs (crash recovery): no cycles, no
    stat bumps, gauges kept correct. IPI counters are preserved — they
    are cumulative traffic, not cached state. *)
