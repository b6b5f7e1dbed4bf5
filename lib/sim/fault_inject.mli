(** Seeded, deterministic fault injection.

    A plane is a set of named injection sites, each armed with a firing
    mode. Components consult the plane on their hot paths with {!fires};
    the shared {!disabled} sentinel answers in one branch with no
    allocation and no clock charge, so sites cost nothing when injection
    is off. An enabled plane is fully deterministic: same seed, same
    arming, same workload — same faults.

    Sites reach components the same way the profiler does (PR 4): the
    plane rides on {!Trace.t} via [Trace.attach_faults], so every layer
    that already holds a trace handle can be attacked without new
    plumbing. Each injected fault bumps the "fault_inject" counter (plus
    a per-site counter) in the attached {!Stats.t} and is reported as a
    ["fault_inject"] trace op through the reporter hook. *)

type mode =
  | Never  (** armed off: evaluations are counted but never fire *)
  | Always  (** fire on every evaluation *)
  | Prob of float  (** fire with this probability (seeded RNG) *)
  | On_nth of int  (** fire exactly on the n-th evaluation (1-based) *)

type t

exception Injected_crash of string
(** Raised by a component when the ["durable_step"] site fires: the
    machine "loses power" at that durable boundary. The crash explorer
    catches it, crashes the machine properly, and checks recovery. *)

val disabled : t
(** Shared no-op sentinel: {!fires} is always false, in one branch. *)

val create : ?seed:int -> ?stats:Stats.t -> unit -> t
(** A live plane. [seed] (default 1) drives the probabilistic modes;
    [stats] receives "fault_inject" counters on every injection. *)

val enabled : t -> bool
val seed : t -> int

val arm : t -> site:string -> mode -> unit
(** Arm a site. Unarmed sites behave as [Never] (evaluations still
    counted — the crash explorer uses this to enumerate durable steps).
    Raises [Invalid_argument] on {!disabled}, a probability outside
    [0,1], or [On_nth n] with [n < 1]. *)

val disarm : t -> site:string -> unit

val fires : t -> site:string -> bool
(** The hot-path question: should this site inject now? Counts the
    evaluation, decides per the armed mode, and on firing bumps counters
    and calls the reporter. Always false on {!disabled}. *)

val rand_int : t -> int -> int
(** Deterministic auxiliary randomness for a firing site (e.g. which bit
    to flip), drawn from the plane's seeded stream. *)

val set_reporter : t -> (string -> unit) -> unit
(** Called with the site name on every injection; [Trace.attach_faults]
    wires this to a ["fault_inject"] trace event. *)

val evaluations : t -> site:string -> int
(** Times the site was consulted (fired or not). *)

val injected : t -> site:string -> int
(** Times the site actually fired. *)

val totals : t -> (string * int * int) list
(** [(site, evaluations, injected)] for every consulted site, sorted. *)

val injected_total : t -> int

val reset_counts : t -> unit
(** Zero evaluation/injection counts, keeping the arming and RNG state. *)

(** {1 Canonical site names} *)

val site_nvm_torn_line : string
(** [Physmem.Phys_mem.flush]: one cache line silently not written to media. *)

val site_nvm_bit_flip : string
(** [Physmem.Phys_mem.flush]: a bit of a flushed line is flipped on the media. *)

val site_wal_partial_flush : string
(** [Memfs.Wal.append]: only a prefix of the record's lines is flushed
    before the fence (models a buggy flush loop). *)

val site_frame_alloc_fail : string
(** Kernel frame allocation: the buddy pretends to be empty. *)

val site_zero_cache_empty : string
(** [Zero_engine.take]: forced miss even when the pool holds zeroed
    frames. *)

val site_quota_enospc : string
(** [Memfs.extend]: the quota charge is refused. *)

val site_tlb_ack_lost : string
(** [Tlb_batch.flush]: one range's shootdown is dropped, leaving stale
    TLB entries for the invariant checker to find. *)

val site_durable_step : string
(** Every clwb/sfence boundary in [Physmem.Phys_mem]. Firing raises
    {!Injected_crash}; evaluating without firing counts the boundary. *)

val site_store_commit : string
(** [Store.commit], before the commit record is appended: the store
    aborts the transaction with a typed EIO instead of committing. *)

val site_store_apply : string
(** [Store.commit], while applying a committed transaction's redo
    records in place: the first durable slot write fails once and is
    retried (charged twice). *)

val site_store_alloc : string
(** [Store] slot allocation: the heap pretends to be out of arena
    space, exercising the defragment-and-retry degradation pass. *)

val all_sites : string list

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
