(** Frame zeroing service, and the one pool of pre-zeroed frames.

    Reusing memory requires erasing it for security (§4.1 of the paper).
    Three strategies are modelled:

    - {b eager}: zero the frame at reuse time — linear in size, the
      baseline behaviour;
    - {b background}: keep a pool of pre-zeroed frames filled during idle
      time, so allocation-time handout is O(1);
    - {b bulk erase}: a constant-time device-level erase of a whole
      contiguous extent (the "new technique" the paper calls for).

    Freed frames wait as {e pending} until {!background_step} zeroes them
    into the pool. {!take} is the pool's one charged handout: one pop at
    the cost model's [zero_cache_pop], counted by the "zero_cache_hit" /
    "zero_cache_miss" counters. The "zero_cache_depth" gauge moves with
    every frame that enters or leaves a pool, so on a machine whose
    engines share one [Stats] (the kernel's and each file system's) it
    is the sum of their pools. *)

type t

val create : Phys_mem.t -> t

val put_dirty : t -> first:Frame.t -> count:int -> unit
(** Hand the [count] freed frames from [first] to the engine; they become
    pending until zeroed. *)

val take : t -> Frame.t
(** Pop a pre-zeroed frame, oldest first. On a hit charges
    [zero_cache_pop] in a "zero_cache_pop" span and bumps
    "zero_cache_hit"; on a miss (empty pool) bumps "zero_cache_miss" and
    returns {!Frame.none}, and the caller falls back to eager zeroing.
    The ["zero_cache_empty"] fault-injection site forces a miss. *)

val background_step : t -> budget_frames:int -> int
(** Zero up to [budget_frames] pending frames into the pool (charging the
    full linear zeroing cost to the clock, as the work is real — just off
    the critical path). Returns the number of frames zeroed. *)

val launder : t -> Frame.t
(** The last resort of a request the buddy could not serve: zero the
    oldest pending frame now, in a one-frame "background_zero" span, and
    hand it out. With nothing pending, hand out a pooled frame instead,
    uncharged (a forced miss of {!take} can still reach clean memory);
    {!Frame.none} when the engine holds no frame at all. *)

val eager_zero : t -> Frame.t -> unit
(** Zero one frame right now, charging linear cost. *)

val bulk_erase : t -> first:Frame.t -> count:int -> unit
(** Device-level erase of [count] contiguous frames at constant simulated
    cost (one command latency), regardless of [count]. Contents are
    cleared. Bumps "bulk_erase_cmds". *)

val iter_free : t -> (Frame.t -> unit) -> unit
(** Visit every frame the engine holds, pending then pooled. Host-side
    introspection for the invariant checker: no charge. *)

val pending : t -> int
(** Frames waiting to be zeroed. *)

val available : t -> int
(** Pre-zeroed frames in the pool, ready for O(1) handout. *)
