(** File-only memory — the paper's primary proposal (§4.1).

    All user memory is allocated as files in a memory file system and
    mapped {e whole-file}: no demand paging, no per-page metadata, no
    page-granular permissions. Four mapping strategies are provided so
    experiments can compare them:

    - [Per_page]: classic 4 KiB PTEs for every page (linear; here for
      comparison only);
    - [Huge_pages]: largest page size alignment allows (paper §3: ample
      memory makes wasting space inside a 2 MiB page acceptable);
    - [Shared_subtree]: graft pre-created master page-table subtrees, one
      pointer per 2 MiB window (Figure 3);
    - [Range_translation]: one range-table entry per file extent
      (Figure 4/9) — O(extents) map and unmap, independent of size.

    Regions are whole files: protection, pinning, persistence and
    reclamation all operate at file granularity. A caller's mistake raises
    [Sim.Errno.Error] (ENOENT, EACCES, EINVAL), a broken invariant [Invalid_argument]. *)

type strategy = Per_page | Huge_pages | Shared_subtree | Range_translation

val strategy_name : strategy -> string

type region = {
  va : int;
  len : int;  (** bytes, page-rounded *)
  ino : int;
  path : string;
  temp : bool;  (** created by {!alloc} without a name: deleted on free *)
  strategy : strategy;
  prot : Hw.Prot.t;  (** protection this mapping was installed with *)
  master : Shared_pt.master option;  (** [Shared_subtree]: the master grafted
      from, which outlives its registry entry for as long as a region
      holds it (e.g. after {!grow} rebuilt the file's master). *)
}

type t

val create : Os.Kernel.t -> ?fs:Fs.Memfs.t -> ?strategy:strategy -> unit -> t
(** [fs] defaults to the kernel's PMFS when present, else its tmpfs.
    [strategy] defaults to [Shared_subtree]. *)

val kernel : t -> Os.Kernel.t
val fs : t -> Fs.Memfs.t
val shared_pt : t -> Shared_pt.t

(** {1 The O(1) allocation API} *)

val alloc :
  t -> Os.Proc.t -> ?name:string -> ?persistence:Fs.Inode.persistence ->
  ?strategy:strategy -> ?guard:bool -> len:int -> prot:Hw.Prot.t -> unit -> region
(** Allocate memory as a file and map it whole. Unnamed allocations are
    volatile temporary files. The file is a single extent whenever the
    file system's free space allows. With [guard:true] an unmapped guard
    page is reserved after the region, so an overflow faults instead of
    silently entering the next mapping — the file-granular stand-in for
    the per-page guard pages the paper notes FOM cannot easily provide. *)

val map_path : t -> Os.Proc.t -> ?prot:Hw.Prot.t -> ?strategy:strategy -> string -> region
(** Map an existing file ([prot] defaults to the file's whole-file
    protection). Two processes mapping the same file under
    [Shared_subtree] share the master's page-table nodes. *)

val unmap : ?batch:Hw.Tlb_batch.t -> t -> Os.Proc.t -> region -> unit
(** Whole-file unmap: drop grafts / range entries / PTEs and the file
    reference. Memory is reclaimed only here or at process exit — there
    is no background reclaim to pay for. With [batch] the final TLB
    invalidation is gathered into it instead of issued immediately, so a
    caller tearing down many regions flushes once. *)

val free : ?batch:Hw.Tlb_batch.t -> t -> Os.Proc.t -> region -> unit
(** {!unmap}, then delete the file if it was a temporary. *)

val access : t -> Os.Proc.t -> va:int -> write:bool -> unit
(** Touch one byte. FOM mappings are always fully populated, so this
    never takes a demand fault; it raises {!Os.Fault.Segfault} outside
    any region or on a protection violation. *)

val access_range : t -> Os.Proc.t -> va:int -> len:int -> write:bool -> stride:int -> int

val protect : t -> Os.Proc.t -> region -> prot:Hw.Prot.t -> region
(** Whole-file permission change: updates the file's protection and
    remaps at the region's VA through the same install code as {!alloc}
    (O(windows) or O(extents), never O(pages) except under [Per_page]),
    in a ["fom_protect"] span. A file that grew since the region was
    mapped no longer fits there, so it is remapped whole at a fresh base
    VA. Returns the updated region. *)

val grow : t -> Os.Proc.t -> region -> new_len:int -> region
(** mremap, file-only style: extend the backing file and remap it whole
    at a fresh base VA (the returned region's [va] changes). Because a
    whole-file map is O(windows)/O(extents) under FOM, growing is cheap
    without the in-place VMA-merging contortions the paper mentions —
    the data never moves, only translations do. *)

val copy_region : t -> Os.Proc.t -> region -> ?name:string -> unit -> region
(** Eagerly duplicate a region into a fresh file and map it. This is the
    file-only substitute for copy-on-write, which the paper concedes
    "cannot easily be supported" without page-granular mappings: you pay
    the copy up front, at memory bandwidth, instead of per-page faults
    later. *)

val persist : t -> region -> unit
(** Mark the backing file persistent (survives crashes). *)

val region_of : t -> Os.Proc.t -> va:int -> region option
val regions_of : t -> Os.Proc.t -> region list

val smaps : t -> Os.Proc.t -> string
(** /proc-style rollup of the process's file-only regions: one line per
    region (va, length, protection, strategy, backing path), plus totals
    including the master page tables shared across processes. *)

(** {1 Process launch (E16)} *)

val launch :
  t -> code_bytes:int -> heap_bytes:int -> stack_bytes:int ->
  Os.Proc.t * region list
(** Launch a process whose code, heap and stack segments are three files
    ("code segments, heap segments, and stack segments can all be
    represented as separate files"). Code maps from a shared named file
    (created on first launch — later launches reuse its master table);
    heap and stack are fresh volatile files. *)

val exit_process : t -> Os.Proc.t -> unit
(** Unmap all the process's regions (freeing temporaries) and tear the
    process down. All the regions' shootdowns are gathered into a single
    {!Hw.Tlb_batch} flushed once. *)

(** {1 Recovery hooks}

    Components layered above Fom (e.g. the object store) register here
    so {!Persistence.recover} can drive their recovery
    {e application-independently}: the hooks run inside
    [Persistence.recover], before any process remaps the recovered
    data. Hooks are keyed by name (re-registering a name replaces the
    old hook) and run in name order. A crash has no hooks: the machine's
    memory is its one persistence domain, and {!Physmem.Phys_mem.crash}
    reverts every unflushed NVM line, whoever wrote it. *)

val on_recover : t -> name:string -> (unit -> int) -> unit
(** Run at the end of {!Persistence.recover}, after the file system is
    recovered. Returns the number of records the hook replayed, surfaced
    in the report's [hook_records]. *)

val remove_hooks : t -> name:string -> unit

(**/**)

val run_recovery_hooks : t -> (string * int) list
(** Internal (used by {!Persistence}). *)

val reset_after_crash : t -> unit
(** Internal (used by {!Persistence}): forget all live regions — the
    processes holding them died with the machine. *)
