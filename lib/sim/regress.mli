(** Cross-run bench regression gate.

    Compares two metrics documents (the JSON written by [bench --json] /
    [o1mem_cli metrics]) in one recursive walk over the union of their
    keys, so every section is compared: the virtual clock total, [stats]
    counters, trace latencies, complexity fits, the profile, faults,
    store, smp and causal sections, and the host-measured host section.
    A per-leaf policy, keyed by leaf name with a few section-scoped
    overrides, says whether lower is better (the default: a virtual-clock
    cost), higher is better ([*_fraction], [*_detections], [*_hit]), the
    value is only reported (fit exponents and r2, explorer coverage, host
    ns totals), or skipped (per-path host ns, GC heap gauges). Because the
    bench workload is deterministic, a self-comparison is empty; any delta
    on an unchanged workload is a real behaviour change.

    Two documents are only comparable when their schema and provenance
    (cost-model parameters, trace capacity) agree — otherwise deltas would
    reflect configuration, not code. *)

type status =
  | Within  (** changed inside the threshold, or a report-only metric *)
  | Regressed  (** moved the wrong way beyond the threshold, or a flag flipped false *)
  | Improved  (** moved the right way beyond the threshold, or a flag flipped true *)
  | Added  (** present only in the new run *)
  | Removed  (** present only in the old run *)
  | Downgraded  (** a ["class"] got worse, or is an unknown name — always fails the gate *)
  | Upgraded  (** a ["class"] got better *)

type delta = {
  section : string;  (** dotted path of the object holding the leaf, e.g. ["complexity.graft"] *)
  key : string;  (** the leaf name, e.g. ["exponent"] *)
  old_v : string;  (** ["-"] when absent; an object or list prints as its leaf count *)
  new_v : string;
  pct : float option;  (** percentage change when both sides are numeric *)
  status : status;
}

type report = {
  threshold_pct : float;
  compared : int;  (** metrics examined across both documents *)
  deltas : delta list;  (** only metrics that differ, in key order *)
}

val compare_docs :
  ?threshold_pct:float -> old_doc:Json.t -> new_doc:Json.t -> unit -> (report, string) result
(** [threshold_pct] defaults to 10. Numbers gate when they move beyond it
    in their bad direction, booleans when they flip to false, and
    ["class"] strings when their complexity rank rises. Allocated words in
    the host section gate, except words that only moved between spans: a
    span whose inclusive [words] are equal in both documents has its
    [self_words] and every descendant's [words] and [self_words] only
    reported. Host ns never gates.
    [Error reason] when the documents are incompatible: unequal schemas,
    or unequal/missing provenance. *)

val regressions : report -> delta list
(** The deltas that fail the gate: [Regressed] and [Downgraded]. *)

val render : report -> string
(** Human-readable delta table (via {!Table}) plus a one-line verdict. *)
