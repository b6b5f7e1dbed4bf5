(** A crash-consistent transactional KV/object store on the FOM heap.

    Objects live in named persistent arena files ({!Heap.Fom_heap} with a
    file prefix), each block holding its key beside its value under one
    checksum. The index ("<name>.manifest") is a fixed-bucket hash table
    in NVM, updated in place: 64-byte lines of four (key tag, slot)
    entries, a count of the entries placed past the line (deletes lower
    it) and a checksum. Roots are internal objects in it.

    Commit folds the transaction into each key's final write, writes each
    new block to a fresh slot, logs one durable record over the last,
    applied one ({!Fs.Wal}) that names each write's slot and carries no
    value, then points the index at the blocks in place under one fence:
    each value reaches NVM once. A crash at any clwb/sfence/WAL boundary
    recovers to the committed prefix; torn or bit-flipped records, index
    lines and blocks are {e detected} by checksums, never served.

    {!create} registers a recovery hook with the store's {!O1mem.Fom.t}:
    {!O1mem.Persistence.recover} re-attaches the arenas (fresh VAs, same
    arena-relative slots) and, if the log's one record is intact, redoes
    it through the commit's own index-only apply — charged cost O(files),
    however many objects and transactions there were. Freeing the blocks
    of a commit that never reached its record walks the index uncharged:
    the heap's allocation state is host-side, the one stand-in left
    (DESIGN.md S23). *)

type t

val create :
  O1mem.Fom.t ->
  Os.Proc.t ->
  ?manifest_bytes:int ->
  name:string ->
  unit ->
  t
(** [create fom proc ~name ()] opens a fresh store rooted at absolute
    path [name] on [fom]'s file system (which must be the kernel's
    persistent pmfs). Creates "<name>.wal", "<name>.manifest" and
    "<name>.arena.<n>" as named persistent files, and registers the
    recovery hook.

    Arenas are {!Heap.Size_class.arena_bytes} long. The 128 KiB WAL caps
    one transaction's record, which names each write at about 17 bytes
    plus the key and carries no value: it caps the keys of a transaction,
    not its value bytes. The index (default 128 KiB) has
    [manifest_bytes / 64] bucket lines of four entries, at most three
    quarters in use. Raises [Invalid_argument] for a relative [name], a
    volatile FOM, an index under one line, or if store files already
    exist at [name] — create never reopens (or silently wipes) a prior store. *)

val detach : t -> unit
(** Unregister the store's recovery hook (for tests that build many
    stores on one machine). The files remain. *)

(** {1 Transactions}

    One transaction open at a time; operations buffer until {!commit}.
    Keys are 1..512 bytes not starting with a NUL or \001 byte (internal
    keys do), values 1..16 KiB (small-class blocks only: large regions
    have no crash-stable identity), root names non-empty without NUL. *)

val begin_txn : t -> unit
(** Raises [Invalid_argument] if a transaction is already open. *)

val put : t -> string -> string -> unit
val delete : t -> string -> unit
(** Deleting a key also clears any roots that reference it. *)

val set_root : t -> string -> string -> unit
(** [set_root t root key] durably names [key] under [root] at commit.
    [key] must be live at that point of the transaction. *)

val clear_root : t -> string -> unit
val abort : t -> unit

val commit : t -> unit
(** Fold, allocate every block, write each to its fresh slot, log one
    record naming the slots over the last (applied) one, then apply it to
    the index. Raises [Invalid_argument], rolled back with nothing
    logged, if a {!set_root} names a key not live at that point. Typed
    failures roll back and log nothing: [ENOSPC] if the puts could
    overfill the index, a block would reach
    {!Heap.Size_class.large_threshold} (a long root name, or a long list
    of the roots naming one key; refused before anything is written), the
    record would outgrow the WAL (refused before anything is allocated:
    the log, its record and {!generation} stay as they were), or the
    heap stays exhausted after one defragment-and-retry round; [EIO] if
    it must read damage (a root, a key's roots) or deletes a key whose
    chain crosses a damaged line (a put inserts past it); an injected
    [EIO] at the [store_commit] site. *)

val checkpoint : t -> unit
(** Empty the redo log — its record is already applied in place — with a
    WAL reset and a {!generation} bump: O(1), and the next recovery
    redoes nothing. Raises [Invalid_argument] while a transaction is open. *)

(** {1 Reads} *)

val get : t -> string -> string option
(** Charged: a line read per index line probed, then the block read,
    which confirms the key. Raises [EIO] (and bumps "store_eio") if the
    block fails its checksum or a damaged line on the key's probe chain
    might have held it: damage surfaces as a detection, not bad data.
    {!mem} and {!root} are charged the same way. *)

val mem : t -> string -> bool
val root : t -> string -> string option

val roots : t -> (string * string) list
val keys : t -> string list
(** [roots] and [keys] walk the index host-side, uncharged; a key whose
    value is damaged is still listed. *)

(** {1 Introspection} *)

val object_count : t -> int
val txn_live : t -> bool
val wal_used_bytes : t -> int
val wal_record_count : t -> int
val arena_count : t -> int
val generation : t -> int
(** Moves each time the log restarts: at every commit that logs a record
    and at every {!checkpoint}. Host-side, not persisted. *)

val recovery_truncations : t -> int
(** Cumulative damage detections across recoveries (a bad WAL record,
    damaged index lines, a root left naming a lost key). *)

val last_replayed : t -> int
(** Records redone by the most recent recovery: 1, the newest
    transaction's, or 0 after a {!checkpoint} or a damaged record. *)

val name : t -> string
val proc : t -> Os.Proc.t
(** The owning process — replaced by recovery with a fresh one. *)

val check_roots : t -> Os.Check.violation list
(** The "store_roots" check, host-side and uncharged: every entry maps
    through a live FOM extent, every root names a key. The store's half
    of {!Os.Check.run}, which checks the machine under it. *)

val verify : t -> Os.Check.violation list
(** Full self-check, host-side and uncharged: {!check_roots}, every
    index line's checksum, every block's checksum and every entry's
    place on its key's probe chain. *)
