(** Simulated physical address space.

    The space is split into a DRAM region (frames [0 .. dram_frames-1]) and
    an NVM region above it, mirroring a machine with both DIMM types. Byte
    contents are stored sparsely and indexed by frame number: an address
    never written reads as zero. Frames are grouped into chunks of 512
    (2 MiB); a chunk's per-frame slots are made on the first non-zero
    write into it, so an untouched chunk costs one word of the directory
    made with the machine (32 KiB for 8 GiB). A frame holding a non-zero
    byte owns a 4 KiB host buffer. When it becomes all-zero again (zeroed,
    discarded, lost in a crash or overwritten with zeros) the buffer is
    scrubbed over the span that was written and goes on a free list, and
    the next frame written takes it from there: a page fault's write
    marker reuses memory instead of allocating it.

    Every access charges the shared {!Sim.Clock} one cache-line-granular
    memory reference priced by the region (DRAM vs NVM read/write), and
    bumps the "dram_read" / "nvm_write" / ... counters in the shared
    {!Sim.Stats}. *)

type t

type region = Dram | Nvm

val create :
  clock:Sim.Clock.t ->
  stats:Sim.Stats.t ->
  ?trace:Sim.Trace.t ->
  dram_bytes:int ->
  nvm_bytes:int ->
  ?numa_nodes:int ->
  unit ->
  t
(** Both sizes must be page-aligned and >= 0; total must be > 0. [trace]
    (default {!Sim.Trace.disabled}) is carried for components built on
    top of this memory (file system, fault handler) to record into.
    [numa_nodes] (default 1) partitions each medium's frames contiguously
    across that many NUMA domains; accesses from a different domain
    (see {!set_accessor_node}) pay the model's remote reference costs. *)

val clock : t -> Sim.Clock.t
val stats : t -> Sim.Stats.t

val trace : t -> Sim.Trace.t
(** The trace passed at creation; {!Sim.Trace.disabled} if none was. *)

val attach_cache : t -> Cache_hier.t -> unit
(** Route demand (single-line) accesses through a cache hierarchy: hits
    are charged at cache latency, misses at cache lookup + memory
    latency. Bulk {!read}/{!write} streaming bypasses the cache
    (non-temporal), as hardware streaming stores do. *)

val detach_cache : t -> unit

val total_frames : t -> int
val dram_frames : t -> int
val nvm_frames : t -> int

val region_of_frame : t -> Frame.t -> region
(** Raises [Invalid_argument] for an out-of-range frame. *)

val numa_nodes : t -> int

val node_of_frame : t -> Frame.t -> int
(** NUMA domain owning this frame (DRAM and NVM are each split
    contiguously across the domains). Raises [Invalid_argument] for an
    out-of-range frame. *)

val accessor_node : t -> int

val set_accessor_node : t -> int -> unit
(** Set the NUMA domain subsequent accesses originate from (the kernel
    points this at the running process's core before each access).
    References to frames owned by another domain charge the remote
    DRAM/NVM costs and bump "numa_remote_ref". *)

val valid_frame : t -> Frame.t -> bool

val read_byte : t -> int -> char
(** [read_byte t addr] charges one memory reference. *)

val write_byte : t -> int -> char -> unit

val read : t -> addr:int -> len:int -> bytes
(** Bulk read; charges one reference per 64-byte cache line covered. *)

val peek : t -> addr:int -> len:int -> bytes
(** Like {!read} but charges nothing. Only for host-side introspection
    (invariant checkers) and for stand-ins whose real implementation
    would not stream the bytes through the CPU — e.g. re-mapping a
    persistent index at recovery, where the data is reachable after
    O(extents) mapping work without being read. Workloads must never
    model data access with [peek]. *)

val write : t -> addr:int -> string -> unit
(** Bulk write; same charging rule as {!read}. *)

val touch : t -> int -> unit
(** Model a one-off access to [addr] (charges one reference) without
    reading or writing content. Used by workloads that only care about
    translation and access cost, not data. *)

val zero_frame : t -> Frame.t -> unit
(** Clear the frame's content and charge the model's zeroing cost for one
    page. Bumps "bytes_zeroed". *)

val zero_range : t -> addr:int -> len:int -> unit
(** Clear an arbitrary byte range, charging linear zeroing cost. *)

val frame_is_zero : t -> Frame.t -> bool
(** True iff no nonzero byte is currently stored in the frame. *)

val discard_frame : t -> Frame.t -> unit
(** Drop the frame's contents without charging any CPU cost. Only for
    modelling device-internal erasure (see {!Zero_engine.bulk_erase});
    ordinary zeroing must use {!zero_frame}. *)

val discard_range : t -> addr:int -> len:int -> unit
(** Drop a byte range's contents without charging any CPU cost. Only for
    modelling crash-time loss (torn cache lines). *)

val restore_range : t -> addr:int -> string -> unit
(** Overwrite a byte range without charging any CPU cost. Only for
    modelling crash-time media state (reverting torn lines to their last
    durable image). *)

val crash : t -> unit
(** Power failure: all DRAM contents vanish; NVM contents survive.
    Charges nothing (the machine is off). *)

val resident_bytes : t -> int
(** Number of distinct bytes currently stored (host-side bookkeeping, used
    by tests; not a simulated quantity). *)
