(** Structured tracing over the virtual clock: the one instrumentation
    API.

    Every instrumented path opens a span: {!span} wraps a function, and
    the closure-free form ({!enter}, then exactly one {!leave} or
    {!leave_raised}) serves the per-page sites. A span feeds only the
    sinks its trace has attached, and {!create} attaches none, so with
    no sink a span is one branch at each end. The sinks:
    - the call-tree profiler ({!attach_profile}): a frame per span;
    - the event ring ({!attach_ring}): a bounded ring of events
      (operation name, start and end cycle, operand size, outcome
      string) and a per-operation latency {!Histogram.t}, so a reader
      can report p50/p99/max latency per operation rather than flat
      counts. Its slots are overwritten in place, so recording allocates
      nothing. An operation's histogram is found through a small
      {!Name_cache} keyed by the name string's identity, in front of the
      string-keyed table; {!reset} empties both.

    The code that reads a sink attaches it, outside any open span; the
    ring's readers are the bench [trace] section, [profile --format
    chrome] and the T1 timeline.

    Components store a trace field defaulting to {!disabled}, a shared no-op
    sentinel: recording into it does nothing, and {!span} just runs its
    function. Costs charged to the clock never depend on which sinks are
    attached. *)

type event = {
  seq : int;  (** monotonic sequence number: emission order, never reused *)
  op : string;  (** operation name, e.g. "tlb_lookup" *)
  core : int;  (** core the event was recorded on *)
  start : int;  (** virtual cycle when the op began *)
  finish : int;  (** virtual cycle when the op ended *)
  arg : int;  (** operand size (bytes, pages, refs...); 0 if n/a *)
  outcome : string;  (** "ok", "hit", "miss", "minor", "raised", ... *)
}

type t

val create : clock:Clock.t -> unit -> t
(** A live trace reading timestamps from [clock], with no sink attached. *)

val disabled : t
(** Shared no-op sentinel: never records, safe to use from any component. *)

val attach_ring : t -> ?capacity:int -> unit -> unit
(** Attach a fresh, empty event ring with its latency histograms, in
    place of any ring attached before: from now on every span, {!record}
    and injected fault records into it. [capacity] (default 4096) bounds
    the ring; older events are dropped, histograms keep every sample.
    Raises [Invalid_argument] if [capacity <= 0] or on {!disabled}. *)

val attach_profile : t -> Profile.t -> unit
(** Attach a profiler so every component sharing this trace starts
    attributing spans: every {!span} opens a frame in it. Until then the
    trace holds {!Profile.disabled}, whose frames are no-ops. Raises
    [Invalid_argument] on {!disabled} (the sentinel is shared
    machine-wide). *)

val faults : t -> Fault_inject.t
(** The fault-injection plane attached to this trace —
    {!Fault_inject.disabled} until {!attach_faults}. Components consult
    it at named sites with [Fault_inject.fires (Trace.faults trace)
    ~site]; with no plane attached that is a single always-false branch. *)

val attach_faults : t -> Fault_inject.t -> unit
(** Attach a fault plane so every component sharing this trace starts
    consulting it, and wire its reporter to record a ["fault_inject"]
    event (outcome = site name) on each injection, into the ring if one
    is attached. Raises [Invalid_argument] on {!disabled}. *)

val causal : t -> Causal.t
(** The cross-core causal plane attached to this trace —
    {!Causal.disabled} until {!attach_causal}. Components emit graph
    nodes/edges and cycle shares through it; with no plane attached
    every call is a cheap no-op. *)

val attach_causal : t -> Causal.t -> unit
(** Attach a causal plane so every component sharing this trace starts
    emitting cross-core edges. Raises [Invalid_argument] on
    {!disabled}. *)

val current_core : t -> int
(** The core currently stamped onto recorded events (default 0). *)

val set_core : t -> int -> unit
(** Set the core stamped onto subsequent events. The kernel brackets
    each syscall with this; components below it inherit the stamp.
    No-op on {!disabled} (the sentinel is shared). *)

val enabled : t -> bool

val capacity : t -> int
(** The attached ring's capacity; 0 without a ring. *)

val recorded : t -> int
(** Total events ever recorded, including ones the ring has since dropped. *)

val dropped : t -> int
(** Events evicted from the ring by wraparound. *)

val record :
  t -> op:string -> start:int -> ?arg:int -> ?outcome:string -> ?core:int -> unit -> unit
(** Record one point event ending now, into the same ring as {!span};
    latency [now - start] feeds the per-op histogram. [core] overrides
    the {!current_core} stamp (components acting on a remote core's
    behalf pass it explicitly). Instrumented paths use {!span}; this is
    for events that are not a call, such as one IPI delivery of a round
    or a fault injection. It opens no call-tree frame. A no-op without
    a ring. *)

val enter : t -> op:string -> int
(** Open a span: push frame [op] in the profiler and return the start
    cycle (0 with no sink attached). Close it, innermost first, with
    exactly one {!leave} or {!leave_raised} given the same [op] and
    start. *)

val leave : t -> op:string -> start:int -> arg:int -> outcome:string -> unit
(** Record the span's ring event and histogram sample, then pop its
    frame. Like {!enter}, a no-op with no sink attached, and it
    allocates nothing. *)

val leave_raised : t -> op:string -> start:int -> unit
(** {!leave} with operand 0 and outcome "raised"; the caller re-raises. *)

val span :
  t -> op:string -> ?arg:('a -> int) -> ?outcome:('a -> string) -> (unit -> 'a) -> 'a
(** [span t ~op f] runs [f], charging the clock with whatever [f] itself
    charges, and feeds every attached sink from one call: a call-tree
    frame named [op] in the profiler ({!attach_profile}), and one ring
    event covering [f] plus a sample in [op]'s histogram
    ({!attach_ring}). [arg] and [outcome] map the result to the event's
    operand size (default 0) and outcome string (default "ok"); they are
    called only when a ring is attached. An exception records outcome
    "raised" (operand 0), pops the frame and re-raises: {!enter}, then
    {!leave} or {!leave_raised}, around [f]. Once [op] has its histogram
    (made on its first event), recording allocates nothing: with the
    defaults and a body closed over nothing, a span allocates no words.
    With no sink attached, or on {!disabled}, it runs [f] and records
    nothing. *)

val events : t -> event list
(** Retained events, oldest first, read out of the ring ([] without
    one). *)

val latency : t -> string -> Histogram.t option
(** Latency histogram for one operation, if it ever recorded. *)

val ops : t -> (string * Histogram.t) list
(** All per-operation histograms, sorted by operation name. *)

val reset : t -> unit

val to_json : ?events_limit:int -> t -> Json.t
(** Export: capacity/recorded/dropped, per-op histogram summaries, and the
    retained events (newest [events_limit] of them, default all retained).
    Each op summary carries a [recorded] count (events ever recorded for
    that op) and an [in_ring] count (events still retained by the ring),
    so per-op dropped-event skew is visible: [recorded - in_ring] events
    of that op were evicted by wraparound. *)

val chrome_events : t -> Json.t list
(** The one span exporter: retained events as Chrome trace-event "X"
    slices in virtual cycles, one track per core. Sorted by start cycle,
    then longer slice first, then sequence number, so a parent precedes
    its children and equal-cycle events export in a deterministic order.
    [profile --format chrome] and the T1 timeline both wrap this list in
    a trace-event document. *)
