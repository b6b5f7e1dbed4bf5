(** Crash-at-every-boundary exploration and the "store" fault plan for
    {!Kv}, built on {!O1mem.Chaos}. *)

val explore_store : ?keys:int -> ?txns:int -> ?seed:int -> unit -> O1mem.Chaos.report
(** An {!O1mem.Chaos.crash_every} instance. Setup preloads [keys]
    (default 6, min 4) objects and checkpoints; the explored workload is
    [txns] (default 3) mixed put/delete/grow/root transactions, so every
    clwb/sfence/WAL boundary of that burst is a crash point. Invariants
    per clean crash: the recovered state is exactly the committed prefix
    (the mirror after [acked] commits, or [acked]+1 when the crash fell
    between commit-record durability and the acknowledgement), the
    cross-layer {!Os.Check} passes, and the store still serves fresh
    writes. The baseline pass must end in the final mirror. The "torn"
    and "flip" damage arms then damage sampled boundaries: losses are
    permitted but must be {e detected} (truncation or EIO, counted in
    [detections]), and any value the store returns must be one the
    workload actually wrote. *)

val run_plan : ?seed:int -> ?rounds:int -> unit -> O1mem.Chaos.plan_outcome
(** The "store" plan: probabilistic injection at [store_alloc] /
    [store_commit] / [store_apply] while [rounds] (default 12)
    transactions run, a mid-plan crash/recover, then a commit whose record
    outgrows the WAL (two 70,000-byte roots over two fresh keys) that must
    degrade to a typed [ENOSPC] with no partial state.
    [retried] counts defragment-and-retry allocation saves
    ("store_alloc_retry"); [checks] merges {!Os.Check.run} with
    {!Kv.verify} and is empty on success. *)
