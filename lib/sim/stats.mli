(** Named event counters and gauges.

    Each simulated component owns (or shares) a [Stats.t]. Counters such
    as "tlb_miss" or "minor_fault" only go up between resets; experiments
    snapshot and diff them. Gauges track a current level — resident pages,
    zero-cache depth, TLB occupancy, WAL bytes — with a high watermark,
    and can be sampled periodically against the virtual clock into a
    bounded time series.

    Counters and gauges live in string-keyed tables. A bump first checks
    a small {!Name_cache} keyed by the name string's identity: a hot path
    passing a string literal finds its cell without hashing the name. An
    equal name built at run time misses and reaches the same cell through
    the table, so the cache never changes a value. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Increment a counter by one (creating it at 0 first if needed). *)

val add : t -> string -> int -> unit
(** Add [n] to a counter. *)

val get : t -> string -> int
(** Current value; 0 for a counter never touched. *)

val reset : t -> unit
(** Zero every counter and gauge (values, watermarks, and series). *)

val snapshot : t -> (string * int) list
(** All counters, sorted by name. *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-counter difference [after - before], dropping zero entries. *)

(** {1 Gauges} *)

val set_gauge : t -> string -> int -> unit
(** Set a gauge to an absolute level (creating it at 0 first if needed).
    Updates the high watermark. *)

val add_gauge : t -> string -> int -> unit
(** Adjust a gauge by a delta. Components that share one machine-wide
    [Stats.t] (e.g. per-process TLBs) use deltas so the gauge reads as an
    aggregate occupancy. *)

val gauge : t -> string -> int
(** Current level; 0 for a gauge never touched. *)

val gauge_hwm : t -> string -> int
(** Highest level the gauge ever reached (since creation or {!reset}). *)

val gauges : t -> (string * int * int) list
(** All gauges as [(name, value, hwm)], sorted by name. *)

val set_sample_interval : t -> cycles:int -> unit
(** Sample every gauge into its time series whenever {!sample} observes
    the clock having advanced [cycles] past the previous sample point.
    [cycles = 0] (the default) disables sampling. Raises
    [Invalid_argument] on a negative interval. *)

val sample : t -> now:int -> unit
(** Record a time-series point for every gauge if the sampling interval
    has elapsed; cheap no-op otherwise. Hot paths (syscall entry, fault
    handling) call this with [Clock.now]. Each series is bounded (1024
    points); older points fall off the front. *)

val series : t -> string -> (int * int) list
(** Sampled [(cycle, value)] points for one gauge, oldest first. *)

(** {1 Export} *)

val to_json : t -> Json.t
(** All counters as one flat JSON object, keys sorted by name. Gauges are
    deliberately excluded — regression diffing compares this object
    numerically — and exported via {!gauges_to_json} instead. *)

val gauges_to_json : t -> Json.t
(** All gauges as one JSON object: [{name: {value, hwm, samples}}]. *)

val pp : Format.formatter -> t -> unit
