(** Nested-span call-tree profiler: one frame stack for every metric.

    A sink of the span engine ({!Trace.enter}, {!Trace.leave}): attached with
    {!Trace.attach_profile}, it gets a frame pushed on its stack for every
    span ({!enter}) and popped when the span ends, on every path out
    ({!leave}). Every frame counts its calls and the virtual cycles
    charged while it was open, producing a call tree with cumulative and
    self cycles per path. Span events and their timeline export live in
    the trace ({!Trace.chrome_events}).

    Given a host clock at {!create}, every frame also measures what the
    host pays to simulate it: monotonic host nanoseconds and allocated
    words ([Gc.minor_words], which allocates nothing to read). Words
    count minor-heap allocation only: blocks over [Max_young_wosize]
    (256 words) go straight to the major heap and are not counted. That
    is what makes the count deterministic for a fixed binary and
    workload: it depends on the allocation sequence alone, never on
    when the GC promotes or collects. Host nanoseconds are noise.

    The profiler never charges the clock: a profiled run spends exactly
    the same simulated cycles as an unprofiled one. The {!disabled}
    sentinel, which a trace holds until a profiler is attached, makes
    every operation a no-op. *)

type node = {
  name : string;
  calls : int;  (** completed spans at this path *)
  cum : int;  (** cycles charged while this span (or a child) was innermost *)
  self : int;  (** [cum] minus the children's cumulative cycles *)
  ns : int;  (** host ns under this path; 0 without a host clock *)
  self_ns : int;
  words : int;  (** words allocated under this path; 0 without a host clock *)
  self_words : int;
  children : node list;  (** sorted by name *)
}

type metric = [ `Cycles | `Ns | `Words ]

type t

val create : clock:Clock.t -> ?now_ns:(unit -> int) -> unit -> t
(** A live profiler reading the given clock. Cycles charged before
    creation are outside its scope. [now_ns] (monotonic host
    nanoseconds preferred; a clock that steps backwards is clamped)
    turns on the host metrics. *)

val disabled : t
(** Shared no-op sentinel: {!enter} and {!leave} do nothing. *)

val enabled : t -> bool

val host : t -> bool
(** Whether frames measure host ns and allocated words. *)

val depth : t -> int
(** Current span-stack depth (0 when idle). *)

val enter : t -> string -> unit
(** Push a frame named [name] under the innermost open one. Cycles
    charged (and, with a host clock, time spent and words allocated)
    until the matching {!leave} accrue to that path and, transitively,
    its ancestors. *)

val leave : t -> unit
(** Pop the innermost frame and attribute its cost. {!Trace.leave} calls
    it on every path out of a span ({!Trace.leave_raised} on a raise), so
    a partial stack never leaks. *)

val reset : t -> unit
(** Drop the tree and self samples and restart attribution now.
    The stack must be empty (spans in flight are discarded). With a host
    clock it first empties the minor heap, so the GC block's word deltas
    do not depend on what ran before. *)

val sample_self : t -> unit
(** With a host clock, sample the simulator's own state (OCaml heap
    words, GC collections, resident set size) into a running summary of
    constant size, exported by {!host_json}. Callers sample at workload
    top-of-loop. *)

(** {1 Results} *)

val tree : t -> node list
(** Call-tree roots, sorted by name. *)

val flatten : t -> (string * int * int * int) list
(** Every node as [(path, calls, self, cum)] in cycles, DFS order. *)

val top : ?k:int -> by:metric -> t -> (string * node) list
(** The [k] (default all) paths with the most self cost, descending;
    ties break by path. *)

val total : ?by:metric -> t -> int
(** Cost (default [`Cycles]) since the profiler was created or reset. *)

val attributed : ?by:metric -> t -> int
(** Cost covered by completed root spans. *)

val unattributed : ?by:metric -> t -> int
(** [total - attributed], floored at 0: cost outside every span. *)

val attributed_fraction : ?by:metric -> t -> float
(** Attributed / total; 1.0 when nothing was measured. *)

val ns_per_vcycle : node -> float
(** Host ns per simulated cycle under a path; 0.0 when it spent none. *)

(** {1 Exporters} *)

val to_json : t -> Json.t
(** Cycle attribution summary plus the full call tree (deterministic). *)

val host_json : t -> Json.t
(** Host attribution summary, GC block (word deltas since create/reset
    and current heap state), self-sample summary, and the call tree with
    per-path ns, words and vcycles. Words, calls and vcycles are
    deterministic; ns and heap state are not. *)

val to_collapsed : ?by:metric -> t -> string
(** Collapsed-stack text for flamegraph.pl / speedscope: one
    ["a;b;c self"] line per path with non-zero self cost (default
    cycles), plus an explicit ["(unattributed)"] line for cost outside
    any span. *)

val pp : Format.formatter -> t -> unit
(** Human-readable tree with the attribution summary; host columns too
    when the profiler has a host clock. *)
