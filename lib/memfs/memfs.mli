(** The memory file system: tmpfs / PMFS stand-in.

    An extent-based file system living entirely in (simulated) physical
    memory. Free space is a bitmap; files are extent lists; metadata is
    per-file. In [Pmfs] mode the file system is placed in NVM: its
    metadata and [Persistent] file contents survive {!crash}, while
    [Volatile] files are cleared during {!recover} — the paper's
    separation of memory management from persistence. *)

type mode = Tmpfs | Pmfs

type erase_policy =
  | Eager_zero  (** memset new frames at [extend] time — linear, baseline *)
  | Background_zero  (** serve pre-zeroed frames; zero freed frames off the critical path *)
  | Device_erase  (** constant-time bulk erase of freed extents *)

type t

val create :
  mem:Physmem.Phys_mem.t -> first:Physmem.Frame.t -> count:int -> mode:mode ->
  ?quota_frames:int -> ?erase:erase_policy -> unit -> t
(** Manage frames [first, first+count). In [Pmfs] mode the range should
    lie in the NVM region (asserted), and the first 16 frames host a
    metadata {!Wal}: every namespace/extent operation appends a journal
    record with the clwb/sfence discipline, so metadata updates carry
    their true durability cost and recovery is verifiable. [erase]
    (default [Eager_zero]) selects how the security-mandated zeroing of
    reused frames is paid for — the paper's §4.1 "constant-time erase"
    question. *)

val journal_records : t -> string list
(** The metadata journal's committed records ([Pmfs] only; empty for
    tmpfs). Each record is one line: "create PATH P|V", "extend INO
    PAGES", "truncate INO PAGES", "unlink PATH", "link PATH PATH",
    "rename PATH PATH", "persist INO P|V", "checkpoint". *)

val journal_checkpoints : t -> int
(** Times the journal filled and was checkpointed (compacted). *)

val background_zero_step : t -> budget_frames:int -> int
(** Let the background zeroer run (only meaningful under
    [Background_zero]); returns frames zeroed. Idle-loop work: call it
    off any measured critical path. *)

val zero_pool_available : t -> int
(** Pre-zeroed frames ready for O(1) handout. *)

val mem : t -> Physmem.Phys_mem.t

(** {1 Namespace} *)

val mkdir : t -> string -> unit
(** Create a directory; parents must exist. Raises
    [Sim.Errno.Error (EEXIST, _)] if the name exists and [ENOENT] if the
    parent is missing. *)

val create_file : t -> string -> persistence:Inode.persistence -> int
(** Create an empty regular file and return its inode number. Charges one
    FS lookup. Raises [Sim.Errno.Error (EEXIST, _)] if the name exists and
    [ENOENT] if the parent is missing. *)

val lookup : t -> string -> int option
(** Resolve a path to an inode number; charges one FS lookup. *)

val unlink : t -> string -> unit
(** Remove a name. The file's frames are freed once the link and
    reference counts reach zero. Raises [Sim.Errno.Error (ENOENT, _)]
    for a missing path and [ENOTEMPTY] for a non-empty directory. *)

val link : t -> existing:string -> new_path:string -> unit
(** Hard link: a second name for the same inode (bumps [nlink]). Frames
    are freed only when every name and reference is gone. Directories
    cannot be linked. Raises [Sim.Errno.Error (ENOENT, _)] for a missing
    file or parent and [EEXIST] for a taken name. *)

val rename : t -> old_path:string -> new_path:string -> unit
(** Move a name (file or directory) to a new location; a metadata-only
    operation, O(1) regardless of file size. The destination must not
    exist: [Sim.Errno.Error (EEXIST, _)]; a missing source or parent
    raises [ENOENT]. *)

val readdir : t -> string -> string list
(** Sorted entries of a directory. *)

val inode : t -> int -> Inode.t
(** Raises [Not_found] for a dead inode. *)

val exists : t -> int -> bool
(** Whether the inode is live. No cost. *)

(** {1 File contents} *)

val extend : t -> int -> bytes_wanted:int -> unit
(** Grow a file by [bytes_wanted] (rounded up to whole pages). Allocates
    the fewest contiguous extents the free bitmap allows — one, in the
    common far-from-full case — and zeroes the new frames.
    Raises [Sim.Errno.Error (ENOSPC, _)] when space or quota is exhausted
    (or the ["quota_enospc"] fault-injection site fires); the file and
    quota are left unchanged. *)

val truncate : t -> int -> bytes:int -> unit
(** Shrink (or no-op if already smaller); freed frames return to the
    bitmap. *)

val write_file : t -> int -> off:int -> string -> unit
(** Write through the file API (extending as needed): one FS lookup plus
    per-extent address resolution plus the memory traffic. Each run is
    written from [data] in place. *)

val read_file : t -> int -> off:int -> len:int -> bytes
(** Read through the file API into one fresh buffer that only the caller
    holds. Short reads at EOF return fewer bytes. *)

val file_extents : t -> int -> Extent.t list
(** The file's extents (for mapping it). *)

val open_file : t -> int -> unit
(** Bump the reference count and the coarse access time. *)

val close_file : t -> int -> unit
(** Drop a reference; frees the file if fully dead. *)

(** {1 Whole-file attributes} *)

val set_prot : t -> int -> Hw.Prot.t -> unit
(** One metadata write — permission is per file, never per page. *)

val set_persistence : t -> int -> Inode.persistence -> unit
val set_discardable : t -> int -> bool -> unit

val defragment : t -> unit -> int
(** Compaction pass: files that are split across several extents and are
    not currently open or mapped ([refs] = 0) are relocated into a single
    contiguous run when the free bitmap has one, restoring the contiguity
    O(1) mapping depends on ("O(1) operation is only possible if most
    memory can be allocated contiguously"). Copies data at memory
    bandwidth. Returns the number of files compacted. *)

val average_extents_per_file : t -> float
(** Fragmentation indicator: extents per regular file (1.0 = perfect). *)

(** {1 Reclamation and persistence} *)

val reclaim_discardable : t -> target_bytes:int -> int
(** Delete the coldest unreferenced discardable files until
    [target_bytes] are freed (or none remain); returns bytes freed.
    O(files), not O(pages): transcendent-memory-style reclaim. *)

val crash : t -> unit
(** Machine crash. [Tmpfs]: the whole FS is lost, and its files' frames
    go back to the space bitmap and the quota (uncharged: the machine is
    off). [Pmfs]: metadata survives; call {!recover} before further use. *)

val recover : t -> int
(** Post-crash recovery ([Pmfs] only): open references are cleared and
    [Volatile] files are deleted (their frames bulk-erased). Returns the
    number of files scanned — the cost is O(files), not O(bytes). *)

(** {1 Introspection} *)

val used_bytes : t -> int
val free_bytes : t -> int
val utilization : t -> float
val metadata_bytes : t -> int
(** Bitmap + inodes + extent records. *)

val file_count : t -> int
val iter_files : t -> (string -> Inode.t -> unit) -> unit
(** Iterate (path, inode) over all regular files. *)

val quota_used_frames : t -> int
(** Frames the quota believes are charged. The invariant checker cross
    checks this against {!data_pages} and the space bitmap. *)

val data_pages : t -> int
(** Pages held by every inode's extent tree. *)

val journal_bytes : t -> int
(** Bytes used in the metadata WAL (0 without a journal) — the true level
    of the "wal_bytes" gauge. *)
