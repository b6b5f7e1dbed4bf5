(** A crash-consistent transactional KV/object store on the FOM heap.

    Objects live in named persistent arena files ({!Heap.Fom_heap} with a
    file prefix); durability comes from redo logging through {!Fs.Wal}
    plus a ping-pong manifest of periodic snapshots. The commit protocol
    is: log every operation and a commit record (each durable before the
    next), then apply in place with durable slot writes. A crash at any
    clwb/sfence/WAL boundary recovers to the committed prefix — exactly
    the transactions whose commit record survived — and torn or bit-flipped
    log records are {e detected} by the WAL's per-record checksums (and
    value reads by per-slot checksums), never silently replayed.

    Recovery is application-independent: {!create} registers hooks with
    the store's {!O1mem.Fom.t}, so {!O1mem.Persistence.crash} drops the
    store's unflushed lines and {!O1mem.Persistence.recover} re-attaches
    the arenas (fresh VAs, same arena-relative slots), picks the newest
    valid manifest snapshot, and replays the log — charged cost
    O(files + WAL records), independent of how many objects exist.

    The key → slot index and root table are host-side bookkeeping: the
    stand-in for a PMO-style persistent index living in the arenas, so
    rebuilding them charges nothing (see DESIGN.md). *)

type t

val create :
  O1mem.Fom.t ->
  Os.Proc.t ->
  ?wal_bytes:int ->
  ?manifest_bytes:int ->
  name:string ->
  unit ->
  t
(** [create fom proc ~name ()] opens a fresh store rooted at absolute
    path [name] on [fom]'s file system (which must be the kernel's
    persistent pmfs). Creates "<name>.wal", "<name>.manifest" and
    "<name>.arena.<n>" as named persistent files, and registers the
    crash/recovery hooks plus an {!Os.Check} rule ("store_roots") that
    validates every live root maps through a valid FOM extent.

    Arenas are {!Heap.Size_class.arena_bytes} long; the WAL and the
    manifest default to 128 KiB each. Raises [Invalid_argument] for a
    relative [name], a volatile FOM, or if store files already exist at
    [name] — create initialises blank journals and never reopens (or
    silently wipes) a prior store. *)

val detach : t -> unit
(** Unregister the store's hooks and check rule (for tests that build
    many stores on one machine). The files remain. *)

(** {1 Transactions}

    One transaction open at a time; operations buffer until {!commit}.
    Keys are 1..512 bytes, values 1..16 KiB (small-class blocks only:
    large regions have no crash-stable identity). *)

val begin_txn : t -> int
(** Returns the transaction id. Raises [Invalid_argument] if one is
    already open. *)

val put : t -> string -> string -> unit
val delete : t -> string -> unit
(** Deleting a key also clears any roots that reference it. *)

val set_root : t -> string -> string -> unit
(** [set_root t root key] durably names [key] under [root] at commit.
    [key] must be live at that point of the transaction. *)

val clear_root : t -> string -> unit
val abort : t -> unit

val commit : t -> unit
(** Allocate slots, log, apply. Raises [Invalid_argument], with the
    transaction rolled back and nothing logged, if a {!set_root} names a
    key that is not live at that point. Typed failures leave the store
    consistent: [ENOSPC] (WAL or heap exhausted after one
    checkpoint/defragment-and-retry round) rolls the transaction back;
    an injected [EIO] at the [store_commit] fault site aborts before
    anything is logged. Log records a rolled-back commit leaves behind
    are durably cut where possible and in any case carry the failed
    transaction's id, which recovery refuses to attribute to any later
    commit record — a crash after a failed commit never resurrects its
    ops. *)

val checkpoint : t -> unit
(** Snapshot the live index into the inactive manifest half (durably),
    flip halves, and cut the redo log. Crash-safe at every step: recovery
    picks the newest valid half and replays the log on top, which is
    idempotent. Raises [Invalid_argument] while a transaction is open. *)

(** {1 Reads} *)

val get : t -> string -> string option
(** Charged media read; raises [EIO] (and bumps "store_eio") if the
    stored bytes no longer match the slot checksum — this is how torn
    lines and bit flips surface as detections rather than bad data. *)

val mem : t -> string -> bool
val root : t -> string -> string option
val roots : t -> (string * string) list
val keys : t -> string list

(** {1 Introspection} *)

val object_count : t -> int
val txn_live : t -> bool
val wal_used_bytes : t -> int
val wal_record_count : t -> int
val arena_count : t -> int
val generation : t -> int
(** Manifest snapshot generation (bumps on every checkpoint). *)

val recovery_truncations : t -> int
(** Cumulative damaged-record detections across recoveries (WAL and
    manifest halves). *)

val last_replayed : t -> int
(** Records replayed by the most recent recovery. *)

val name : t -> string
val proc : t -> Os.Proc.t
(** The owning process — replaced by recovery with a fresh one. *)

val verify : t -> Os.Check.violation list
(** Full self-check: the root rule plus a checksum sweep of every live
    object (host-side, uncharged). *)
