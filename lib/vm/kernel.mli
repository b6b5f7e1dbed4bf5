(** The baseline operating system: a Linux-like VM over the simulated
    machine. This is the system the paper criticises — every operation
    below does per-page work — and the comparison point for the
    file-only-memory library ({!Fom}).

    One [Kernel.t] owns the machine: physical memory, the buddy
    allocator, per-page metadata, a tmpfs (DRAM) and optionally a PMFS
    (NVM), the swap device, the reclaim lists, and all processes. *)

type config = {
  dram_bytes : int;
  nvm_bytes : int;
  levels : int;  (** page-table levels: 4 or 5 *)
  walk_mode : Hw.Walker.mode;
  reclaim_policy : Reclaim.policy;
  cores : int;  (** simulated cores, each with its own TLB + range TLB *)
  numa_nodes : int;  (** NUMA domains; cores and frames are partitioned contiguously *)
  tlb_sets : int;
  tlb_ways : int;
  range_tlb_entries : int;  (** capacity given to processes created with range translations *)
  fs_erase : Fs.Memfs.erase_policy;  (** zeroing discipline of tmpfs and PMFS *)
  swap_backing : [ `Device | `Pmfs ];  (** where swapped pages go: NVMe-class device, or a swapfile in PMFS *)
}

val default_config : config
(** 1 GiB DRAM + 4 GiB NVM, 4 levels, native walks, CLOCK reclaim, 1 core
    on 1 NUMA node, 1024-entry TLB, 32-entry range TLB. *)

type t

val create : ?config:config -> unit -> t

(** {1 Machine access} *)

val config : t -> config

val smp : t -> Hw.Smp.t
(** The machine's core complex: per-core TLBs, IPI counters, busy-cycle
    attribution. *)

val clock : t -> Sim.Clock.t
val stats : t -> Sim.Stats.t

val trace : t -> Sim.Trace.t
(** The machine-wide trace: every component (TLBs, walker, range tables,
    fault handler, file systems, FOM) records latency events into it. *)

val mem : t -> Physmem.Phys_mem.t
val page_meta : t -> Page_meta.t
val buddy : t -> Alloc.Buddy.t
val zero_engine : t -> Physmem.Zero_engine.t
(** The anonymous pool's zero engine: frames freed from the buddy's pool
    wait there, pending, until {!background_zero} zeroes them into its
    pool of pre-zeroed frames. Anonymous faults and populate paths take
    from that pool first ({!Physmem.Zero_engine.take}). *)

val swap : t -> Swap.t
val reclaim : t -> Reclaim.t
val tmpfs : t -> Fs.Memfs.t
val pmfs : t -> Fs.Memfs.t option

val background_zero : t -> budget_frames:int -> int
(** Housekeeping step: the {!zero_engine}'s
    {!Physmem.Zero_engine.background_step}, which zeroes up to
    [budget_frames] pending frames into its pool for O(1) handout.
    Returns frames zeroed. *)

val create_page_table : t -> Hw.Page_table.t
(** A table over the kernel's one page-table frame source (a fault's
    path: the ["frame_alloc_fail"] site and the reclaim retry) and sink
    (the buddy). Every process table, FOM master and PBM table is one. *)

val pt_frames : t -> int
(** Page-table frames handed out minus given back, over every such table. *)

(** {1 Processes} *)

val create_process : t -> ?range_translations:bool -> unit -> Proc.t
(** A fresh process, placed on a core by the round-robin scheduler; its
    pid doubles as the ASID tagging its entries in the shared per-core
    TLBs. With [range_translations] it gets a range table (and the use of
    each core's range TLB) in addition to its radix page table. *)

val migrate : t -> Proc.t -> core:int -> unit
(** Move a process to another core (must be inside its affinity mask):
    charges one scheduler slice, bumps "migration", and repoints the
    MMU so subsequent translations fill the new core's TLBs. Entries
    left on the old core stay in the address space's cpumask and are
    shot down by the next invalidation — exactly the cross-core
    coherence traffic the complexity sweeps measure. No-op if already
    there. *)

val exit_process : t -> Proc.t -> unit
(** Tear down every mapping, release the page table and mark the process
    dead. Per-page PTE and frame release still happen, but all TLB
    invalidation is gathered into one {!Hw.Tlb_batch} flushed at the end
    — one shootdown pass (or one full flush) regardless of how many VMAs
    the process had. *)

val reset_after_crash : t -> unit
(** Power failure, kernel side: drop every process, userfault
    registration, swap slot, reclaim list, struct-page record (all DRAM
    state, or pages of processes that died with it) and
    every core's TLB contents, and re-baseline the "resident_pages" /
    "tlb_entries" / "range_tlb_entries" gauges, and "zero_cache_depth" to
    the pools of the kernel's and the file systems' zero engines, so
    post-crash observability doesn't report pre-crash occupancy. Every
    dead process's page table is released and its pages go to the zero
    engine. Host-side only — the machine is off, so no cycles are
    charged. Persistent structures (FOM masters, file extents) stay. *)

val process_count : t -> int

val processes : t -> (int, Proc.t) Hashtbl.t
(** The live process table (pid -> process). Treat as read-only; used by
    the invariant checker and diagnostics. *)

(** {1 Syscalls} *)

val syscall : t -> Proc.t -> string -> (unit -> 'a) -> 'a
(** [syscall t proc name f] runs [f] as one system call of [proc]: a
    [name] span on [proc]'s core with the entry cost charged inside it,
    counted in "syscall", its cycles billed to the core. Every syscall
    below enters through it, and so does {!Fork.fork}. *)

val mmap_anon : t -> Proc.t -> len:int -> prot:Hw.Prot.t -> populate:bool -> int
(** mmap(MAP_ANONYMOUS | MAP_PRIVATE [| MAP_POPULATE]): returns the
    mapping's base VA. *)

val mmap_file :
  t -> Proc.t -> fs:Fs.Memfs.t -> path:string -> prot:Hw.Prot.t -> share:Vma.share ->
  populate:bool -> ?len:int -> ?offset:int -> unit -> int
(** Map a file (whole file by default). Takes a reference on the file. *)

val munmap : t -> Proc.t -> va:int -> len:int -> unit
(** Unmap a range: per-page PTE teardown and frame release — the
    baseline's linear unmap — but shootdowns for all removed VMAs are
    batched into a single flush ({!Hw.Tlb_batch}). Swap slots go too. *)

val mprotect : t -> Proc.t -> va:int -> len:int -> prot:Hw.Prot.t -> unit

val mlock : t -> Proc.t -> va:int -> len:int -> unit
(** Pin pages for DMA: per-page flag updates and refcounts, after first
    faulting everything in — the cost the paper contrasts with files'
    implicit pinning. A frame holds one pin however often it is locked;
    its last unmap drops it. *)

val access : t -> Proc.t -> va:int -> write:bool -> unit
(** One user-level memory access: MMU translate, taking and resolving
    page faults as needed. Raises {!Fault.Segfault} on invalid access. *)

val access_range : t -> Proc.t -> va:int -> len:int -> write:bool -> stride:int -> int
(** Touch [va + k*stride] for every multiple inside the range; returns
    the number of accesses. Convenience for the benchmarks. *)

val read_syscall : t -> Proc.t -> fs:Fs.Memfs.t -> ino:int -> off:int -> len:int -> int
(** The read() path: trap + file-system read + copy to the user buffer.
    Returns bytes read. *)

val context_switch : t -> from_:Proc.t -> to_:Proc.t -> asids:bool -> unit
(** Switch the CPU between processes: charges the scheduler cost, and —
    without address-space identifiers ([asids:false], the old-x86
    behaviour) — flushes the incoming process's TLBs, since its entries
    could not have been kept alongside another process's. With ASIDs the
    entries survive, which is also what makes globally shared mappings
    (FOM masters, PBM) pay off across switches. *)

val madvise_dontneed : t -> Proc.t -> va:int -> len:int -> int
(** MADV_DONTNEED on an anonymous range: per-page unmap + frame release +
    shootdown; the VMA stays, later touches refault zero pages. Returns
    pages released. This is the per-page release path the paper says the
    heap "need not" use under file-only memory. *)

(** {1 User-level paging (userfaultfd)} *)

val userfault : t -> Userfault.t
(** The machine-wide userfault registry. Faults on unmapped pages inside
    a registered range are delivered to the user handler (charging the
    trap, two context switches and the UFFDIO_COPY syscall) instead of
    the kernel fault path. *)

val user_page_release : t -> Proc.t -> va:int -> Physmem.Frame.t option
(** Evict one handler-installed page: unmap it, shoot down its TLB entry
    and free the frame unless another address space still maps it.
    Returns the frame it occupied, or [None] if the page was not mapped.
    The user pager's half of user-level swapping. *)
