(** Cross-core causal tracing and critical-path makespan attribution.

    A [Causal.t] collects a causal event graph over the virtual clock:
    nodes are cross-core interaction points (IPI send/deliver/ack,
    migrations, scheduler placements, remote NUMA references, reclaim
    wakeups) and edges are the happens-before arrows between them.
    Alongside the graph it accumulates per-core cycle shares (IPI-wait,
    scheduler, remote-NUMA) against per-core busy totals, a per-core-pair
    IPI latency histogram, and a NUMA node-pair traffic matrix.

    Components reach the plane through their trace handle
    ([Sim.Trace.causal trace]), the same attachment pattern as
    {!Profile} and {!Fault_inject}: the {!disabled} sentinel makes every
    emission a cheap no-op, and nothing here ever charges the clock. *)

type node = {
  id : int;  (** emission order; doubles as the graph vertex id *)
  core : int;  (** emitting core; negative = off-core service point *)
  cycle : int;  (** virtual cycle at emission *)
  op : string;  (** e.g. "ipi_send", "migrate_in", "numa_req" *)
  detail : string;  (** free-form qualifier, "" if none *)
}

type edge = { src : int; dst : int; kind : string }

type share = Ipi_wait | Sched | Numa_remote

type t

val create : clock:Clock.t -> unit -> t
val disabled : t
val enabled : t -> bool
val reset : t -> unit

val emit : t -> core:int -> op:string -> ?detail:string -> unit -> int
(** Add a node stamped with the current cycle; returns its id, or [-1]
    on {!disabled} (safe to pass straight to {!link}). *)

val link : t -> src:int -> dst:int -> kind:string -> unit
(** Add a happens-before edge between two node ids. Negative ids (from
    {!emit} on a disabled plane) are silently ignored. *)

val add_busy : t -> core:int -> cycles:int -> unit
(** Credit busy cycles to a core; the makespan is the max over cores. *)

val attribute : t -> core:int -> share:share -> cycles:int -> unit
(** Carve [cycles] of a core's busy time out into a named share. *)

val observe_ipi : t -> src:int -> dst:int -> cycles:int -> unit
(** Feed the per-core-pair IPI latency histogram. *)

val record_numa : t -> src_node:int -> dst_node:int -> lines:int -> unit
(** Feed the NUMA node-pair traffic matrix (units: cache lines). *)

val node_count : t -> int
val edge_count : t -> int

val nodes : t -> node list
(** All nodes, in emission (= id) order. *)

val edges : t -> edge list
(** All edges, in emission order. *)

(** {2 Makespan decomposition} *)

type breakdown = {
  bd_core : int;
  bd_busy : int;  (** total busy cycles credited to the core *)
  work : int;  (** busy minus the named shares, clamped at 0 *)
  ipi_wait : int;
  sched : int;
  numa_remote : int;
}

val breakdowns : t -> breakdown list
(** Per-core decompositions, sorted by core id. *)

val busy_of : t -> core:int -> int
val share_of : t -> core:int -> share -> int

val makespan : t -> int
(** Max busy cycles over all cores. *)

val makespan_core : t -> breakdown option
(** The breakdown of the core defining the makespan. *)

val attributed_fraction : t -> float
(** Fraction of the makespan core's busy cycles covered by named shares
    (work included); 1.0 when nothing was recorded. The T1 gate asserts
    this stays >= 0.95, mirroring the profile-attribution gate. *)

(** {2 Critical path} *)

type chain = {
  hops : int;  (** nodes on the longest dependent chain *)
  cycles : int;  (** cycle span from first to last node on the chain *)
  path : node list;  (** the chain itself, oldest first *)
}

val critical_path : t -> chain
(** Longest dependent chain through the graph: explicit edges plus
    implicit same-core program order (two nodes on one core are
    serialized by that core; off-core nodes with [core < 0] only chain
    through explicit edges). Ties prefer longer cycle spans. *)

(** {2 Export} *)

val chrome_events : t -> Json.t list
(** Chrome trace-event fragments: each node as a zero-duration complete
    event on its core's track, each edge as an s/f flow-event pair
    (drawn as arrows in chrome://tracing / Perfetto). *)

val to_json : t -> Json.t
(** Counts, per-core breakdowns, makespan, attributed fraction, the
    critical path summary, IPI latency histograms keyed "src->dst", the
    NUMA traffic matrix, and the node/edge lists. *)
