(** Frame zeroing service.

    Reusing memory requires erasing it for security (§4.1 of the paper).
    Three strategies are modelled:

    - {b eager}: zero the frame at reuse time — linear in size, the
      baseline behaviour;
    - {b background}: keep a pool of pre-zeroed frames filled during idle
      time, so allocation-time handout is O(1);
    - {b bulk erase}: a constant-time device-level erase of a whole
      contiguous extent (the "new technique" the paper calls for). *)

type t

val create : Phys_mem.t -> t

val put_dirty : t -> first:Frame.t -> count:int -> unit
(** Hand the [count] freed frames from [first] to the engine; they become
    pending until zeroed. *)

val take_zeroed : t -> Frame.t option
(** Pop a pre-zeroed frame in O(1); [None] when the pool is empty. *)

val background_step : t -> budget_frames:int -> int
(** Zero up to [budget_frames] pending frames (charging the full linear
    zeroing cost to the clock, as the work is real — just off the critical
    path). Returns the number of frames zeroed. *)

val eager_zero : t -> Frame.t -> unit
(** Zero one frame right now, charging linear cost. *)

val bulk_erase : t -> first:Frame.t -> count:int -> unit
(** Device-level erase of [count] contiguous frames at constant simulated
    cost (one command latency), regardless of [count]. Contents are
    cleared. Bumps "bulk_erase_cmds". *)

val iter_free : t -> (Frame.t -> unit) -> unit
(** Visit every frame the engine holds, pending then zeroed. Host-side
    introspection for the invariant checker: no charge. *)

val pending : t -> int
(** Frames waiting to be zeroed. *)

val available : t -> int
(** Pre-zeroed frames ready for O(1) handout. *)
