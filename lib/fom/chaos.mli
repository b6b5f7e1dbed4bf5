(** Crash-at-every-step exploration and named fault plans.

    {!crash_every} answers "does it survive?" exhaustively for any
    workload: it first runs the workload to completion with the
    ["durable_step"] site unarmed — the evaluation count enumerates every
    clwb/sfence boundary — then rebuilds the machine once per boundary
    with [On_nth k] armed, loses power at exactly that point, and hands
    the crashed workload to the caller's recovery-and-check step.
    Determinism (same seed, same workload) makes the k-th replay
    identical to the baseline up to the crash. The WAL, FOM file-system
    and store explorers are instances of it.

    {!run_plan} is the sustained-pressure side: probabilistic injection
    across a named set of sites while a mixed VM + FOM workload runs,
    counting typed degradations (ENOMEM / ENOSPC), reclaim retries and
    OOMs, with a final {!Os.Check} verdict. *)

type report = {
  steps : int;  (** durable-step boundaries the explored workload crosses *)
  fences : int;  (** sfence count of the baseline pass's workload *)
  crashes : int;  (** replays performed: one per boundary, plus two per damage sample *)
  detections : (string * int) list;  (** per damage arm: losses recovery detected *)
  violations : string list;  (** empty = every recovery was consistent *)
}

val crash_every :
  ?damage:(string * string * float) list ->
  ?baseline:('w -> (string -> unit) -> unit) ->
  seed:int ->
  boot:(seed:int -> Sim.Fault_inject.t * Sim.Stats.t * 'm) ->
  setup:('m -> 'w) ->
  run:('w -> unit) ->
  recover:('w -> damaged:bool -> (string -> unit) -> int) ->
  unit ->
  report
(** [crash_every ~seed ~boot ~setup ~run ~recover ()] explores [run]
    exhaustively. Each pass boots a fresh machine ([boot] returns its
    injection plane, its stats and the machine) and runs [setup] on it;
    boundaries crossed in [setup] are not crash points. Pass 0 then runs
    [run] to completion, counts its boundaries and fences, and hands the
    finished workload to [baseline] if given. Every later pass crashes
    [run] at one boundary, disarms the plane and calls [recover] with a
    reporter for violations; a boundary that never fires is a violation
    too.

    Each [damage] arm [(name, site, p)] then samples every (steps/4)-th
    boundary k with [site] also firing at probability [p] from [setup]
    on, under a fresh plane seed [seed + 997 k]. Damage [run] reads back
    can change its path, so each sample runs twice: to its end, with
    power lost there, which counts the run's own boundaries; then
    crashed at its k-th boundary, or its last if it has fewer (a run
    with none is not crashed), which must fire like every clean pass's.
    Both runs are recovered. [recover ~damaged:true]
    returns the losses it detected; an arm that detected none escalates
    once (every (steps/8)-th boundary, probability [min 0.9 (3p)], seed
    [seed + 1009 k]), and if it still detects nothing that is a
    violation. *)

val machine : seed:int -> Sim.Fault_inject.t * Sim.Stats.t * (Os.Kernel.t * Fom.t)
(** The chaos machine, shaped as {!crash_every}'s [boot]: a 4-core
    kernel with 8 MiB of DRAM and 8 MiB of NVM, a live injection plane
    seeded with [seed] attached to its trace, and a FOM on its pmfs. *)

val explore_wal : ?records:int -> ?seed:int -> unit -> report
(** Append [records] (default 6) deterministic records to a bare WAL on
    a standalone NVM machine, crashing after every durable step.
    Invariants per crash: acknowledged appends survive recovery
    (committed-prefix durability; recovery may keep one extra record
    whose post-marker fence was the crash point — durable but
    unacknowledged), the recovered log is a byte-exact prefix of the
    attempted log (no torn record), and it accepts a further append that
    the next crash keeps. *)

val explore_fs : ?files:int -> ?seed:int -> unit -> report
(** Allocate [files] (default 5) FOM regions — alternating persistent
    named files and volatile temporaries — on the {!machine}, crashing
    inside every journaled durable step. Invariants per crash:
    persistent files whose write completed survive with their data
    intact, volatile files are gone, masters are pruned iff their file
    died (kept + dropped = pre-crash count, second prune finds nothing),
    the cross-layer {!Os.Check} passes, and the recovered machine still
    allocates. *)

(** {1 Named fault plans} *)

type plan_outcome = {
  plan : string;
  seed : int;
  sites : (string * int * int) list;
      (** (site, evaluations, injected) for every consulted site *)
  injected_total : int;
  enomem : int;  (** operations that degraded to a typed ENOMEM *)
  enospc : int;  (** operations that degraded to a typed ENOSPC *)
  retried : int;  (** allocations saved by the retry pass *)
  reclaimed_frames : int;
  ooms : int;  (** allocations that still failed after reclaim *)
  checks : Os.Check.violation list;
}

val run_armed :
  ?retried:string ->
  ?eio:bool ->
  plan:string ->
  seed:int ->
  sites:(string * float) list ->
  (Os.Kernel.t -> Fom.t -> ((unit -> unit) -> unit) -> Os.Check.violation list) ->
  plan_outcome
(** The one plan runner: arm every [(site, p)] at probability [p] on a
    fresh {!machine}, then run [body kernel fom guard]. [guard f] runs
    [f] and counts a typed [ENOMEM] or [ENOSPC] escaping it (and, with
    [eio], swallows a typed [EIO]); anything else propagates. [body]
    returns the invariant violations. [retried] (default
    "alloc_retry_reclaim") names the stats counter reported as
    [retried]. *)

val plans : string list
(** ["alloc"] (frame-allocation failures + forced zero-cache misses),
    ["nvm"] (torn lines, bit flips, partial WAL flushes), ["quota"]
    (refused quota charges), ["tlb"] (lost shootdown acks), ["all"]. *)

val plan_expects_violations : string -> bool
(** The tlb-bearing plans deliberately break TLB coherence; the
    invariant checker {e finding} those stale entries is their pass
    condition. *)

val run_plan : ?seed:int -> ?rounds:int -> plan:string -> unit -> plan_outcome
(** Run the named plan over [rounds] (default 16) iterations of a mixed
    anonymous-VM + FOM workload. Operations may only fail with typed
    {!Sim.Errno.Error}s — anything else escaping is a bug and
    propagates. Raises [Invalid_argument] on an unknown plan name. *)
