(** Simulated physical address space.

    The space is split into a DRAM region (frames [0 .. dram_frames-1]) and
    an NVM region above it, mirroring a machine with both DIMM types. Byte
    contents are stored sparsely and indexed by frame number: an address
    never written reads as zero. Frames are grouped into chunks of 512
    (2 MiB); a chunk's per-frame slots are made on the first non-zero
    write into it, so an untouched chunk costs one word of the directory
    made with the machine (32 KiB for 8 GiB). A frame whose one non-zero
    byte came from {!write_byte} (a page fault's write marker) keeps it
    inline in an int; a second non-zero byte, a bulk or persistent write
    gives it a 4 KiB host buffer. When it becomes all-zero again (zeroed,
    discarded, lost in a crash or overwritten with zeros) the buffer is
    scrubbed and goes on a free list, where the next frame takes it.

    Every access charges the shared {!Sim.Clock} one cache-line-granular
    memory reference priced by the region (DRAM vs NVM read/write), and
    bumps the "dram_read" / "nvm_write" / ... counters in the shared
    {!Sim.Stats}.

    The memory is also the machine's one persistence domain, modelling
    the clwb/sfence discipline of persistent-memory file systems such as
    PMFS: a store through {!write_persistent} reaches the media only once
    its line is flushed, whoever wrote it. A line's first such write since
    its last flush saves the 64 bytes the line held just before it (its
    undo image: for a line written only through {!write_persistent}, its
    last flushed contents); {!flush} drops the image, and {!crash} puts
    every image still held back. A frame with unflushed lines keeps their
    images in an undo page, a scrubbed 4 KiB buffer from the same free
    list, at the lines' own offsets, and its chunk keeps a bitmask of
    which lines are unflushed; a chunk makes these on its first
    persistent write, so a DRAM-only chunk never has them. Flushing a
    frame's last unflushed line gives its undo page back, and so does
    {!zero_frame} or {!discard_frame}: a scrubbed frame drops its lines'
    images, so a crash never puts a former owner's bytes back over the
    frame's next owner. Nothing here allocates per line. *)

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

val read_into : t -> addr:int -> len:int -> bytes -> pos:int -> unit
(** [read_into t ~addr ~len dst ~pos] copies [len] bytes from [addr] into
    [dst] at [pos]. Bulk accesses stream: the first 64-byte cache line
    pays a full reference and the rest the model's copy bandwidth.
    Raises [Invalid_argument] if either range is out of bounds. *)

val read : t -> addr:int -> len:int -> bytes
(** {!read_into} a fresh buffer. *)

val write_sub : t -> addr:int -> bytes -> pos:int -> len:int -> unit
(** [write_sub t ~addr src ~pos ~len] copies [len] bytes of [src] from
    [pos] to [addr], charged as {!read_into}. [src] is only read. *)

val write : t -> addr:int -> string -> unit
(** {!write_sub} of a whole string. *)

val copy : t -> src:int -> dst:int -> len:int -> unit
(** [copy t ~src ~dst ~len] copies [len] bytes from [src] to [dst] once,
    charged as a {!read_into} of the source, then a {!write_sub}. Raises
    [Invalid_argument] if either range is out of bounds or they overlap. *)

val touch : t -> int -> unit
(** Model a one-off access to [addr] (charges one reference) without
    reading or writing content. Used by workloads that only care about
    translation and access cost, not data. *)

val zero_frame : t -> Frame.t -> unit
(** Clear the frame's content and charge the model's zeroing cost for one
    page. Bumps "bytes_zeroed". The frame's unflushed lines drop their
    undo images and stop counting as unflushed. *)

val zero_range : t -> addr:int -> len:int -> unit
(** Clear an arbitrary byte range, charging linear zeroing cost. *)

val frame_is_zero : t -> Frame.t -> bool
(** True iff no nonzero byte is currently stored in the frame. *)

val discard_frame : t -> Frame.t -> unit
(** Drop the frame's contents, and its unflushed lines' undo images, as
    {!zero_frame} does but without charging any CPU cost. Only for
    modelling device-internal erasure (see {!Zero_engine.bulk_erase});
    ordinary zeroing must use {!zero_frame}. *)

val restore_range : t -> addr:int -> string -> unit
(** Overwrite a byte range without charging any CPU cost, outside the
    persistence domain. Only for modelling media state: {!crash} puts
    undo images back with it, and tests plant damage with it. *)

val write_persistent_sub : t -> addr:int -> bytes -> pos:int -> len:int -> unit
(** {!write_sub}, and the covered lines become unflushed: each one not
    already unflushed first saves its current bytes as its undo image. *)

val write_persistent : t -> addr:int -> string -> unit
(** {!write_persistent_sub} of a whole string. *)

val flush : t -> addr:int -> len:int -> unit
(** Flush the covered cache lines (clwb): each unflushed line drops its
    undo image, charges one NVM write and bumps "clwb". Consults the
    fault plane attached to the memory's trace: ["nvm_torn_line"] (once
    per call) leaves the first line unflushed, ["nvm_bit_flip"] (once per
    flushed line) corrupts one bit of that line on the media, and
    ["durable_step"] raises {!Sim.Fault_inject.Injected_crash} after the
    batch (one durable-step boundary per call). *)

val fence : t -> unit
(** Store fence (sfence): charges a small fixed cost and bumps "sfence";
    lines flushed before it are durable. Each fence is a ["durable_step"]
    boundary for the crash explorer. *)

val unflushed_lines : t -> int
(** Lines written through {!write_persistent} and not flushed since. *)

val crash : t -> unit
(** Power failure: every unflushed line gets its undo image back (the
    stores still in the volatile cache hierarchy are lost, whoever made
    them), then all DRAM contents vanish; NVM contents survive. Charges
    nothing (the machine is off). *)

val resident_bytes : t -> int
(** Number of distinct bytes currently stored (host-side bookkeeping, used
    by tests; not a simulated quantity). *)
