(** Cache of pre-zeroed frames in front of {!Physmem.Zero_engine}.

    The PM file-system literature's standard fast path: keep a pool of
    frames zeroed during idle time so that allocation-time handout is one
    queue pop (the cost model's [zero_cache_pop]) instead of a linear
    memset. The fault path tries {!take} first and falls back to
    on-demand zeroing when the background engine hasn't kept up; the
    "zero_cache_hit" / "zero_cache_miss" counters expose the hit rate. *)

type t

val create : mem:Physmem.Phys_mem.t -> engine:Physmem.Zero_engine.t -> t
(** An empty cache, stocked by {!refill}. *)

val take : t -> Physmem.Frame.t option
(** Pop a pre-zeroed frame. On a hit charges [zero_cache_pop] and bumps
    "zero_cache_hit"; on a miss (empty cache) bumps "zero_cache_miss"
    and returns [None] — the caller falls back to eager zeroing. The
    ["zero_cache_empty"] fault-injection site forces a miss. *)

val refill : t -> budget_frames:int -> int
(** Run the background engine for up to [budget_frames] frames and drain
    everything it has zeroed into the cache. Returns the number of
    frames zeroed this step. Call from idle/housekeeping paths. *)

val depth : t -> int
(** Cached frames — the true level of the "zero_cache_depth" gauge,
    used to re-baseline it after a crash. *)

val iter : t -> (Physmem.Frame.t -> unit) -> unit
(** Visit every cached frame. Host-side introspection for the invariant
    checker: no charge. *)
