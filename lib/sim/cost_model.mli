(** The one table of what the simulator charges.

    Every cost is in CPU cycles of a virtual core running at [freq_ghz],
    and every charge site names its constant here; only inputs are
    charged from elsewhere (a cache level's configured latency, a
    workload's compute steps). The values are
    calibrated so that the headline constants of the paper come out right
    on the baseline system: an `mmap` fast path of about 8 us on tmpfs, a
    minor page fault of about 2 us, and a pre-populated PTE write of about
    0.4 us per page (see DESIGN.md §5). *)

val freq_ghz : float (* Virtual core frequency used to convert cycles to time. *)
val syscall : int (* Kernel entry + exit (trap, register save/restore). *)
val vma_setup : int (* Creating a VMA / region descriptor and FS lookup. *)
val pte_write : int (* Allocating + writing one last-level PTE (populate path). *)
val pt_node_alloc : int (* Allocating one page-table node (any level). *)
val fault_trap : int (* Page-fault trap + kernel fault-path dispatch. *)
val mem_ref_dram : int (* One cache-missing memory reference to NUMA-local DRAM. *)
val mem_ref_nvm_read : int (* One read reference to NUMA-local NVM. *)
val mem_ref_nvm_write : int (* One write reference to NUMA-local NVM. *)
val mem_ref_dram_remote : int (* DRAM reference crossing a NUMA interconnect hop. *)
val mem_ref_nvm_read_remote : int (* NVM read from a remote NUMA domain. *)
val mem_ref_nvm_write_remote : int (* NVM write to a remote NUMA domain. *)
val cache_ref : int (* One cache-hitting reference. *)
val tlb_hit : int (* TLB lookup that hits. *)

val tlb_shootdown : int
(** Local TLB invalidation of one entry or range (INVLPG-class). Remote
    cores are not folded in: the MMU sends explicit IPIs, charged at
    [ipi] per remote core actually interrupted, so the O(cores) tax
    shows up as measured IPI traffic. *)

val ipi : int (* One IPI round-trip to a remote core (send + remote handler + ack). *)
val zero_byte_num : int (* Zeroing cost numerator: cycles per... *)
val zero_byte_den : int (* ...this many bytes (1 cycle / 4 B). *)
val zero_cache_pop : int (* Popping one frame off the pre-zeroed cache (the O(1) handout). *)
val frame_alloc : int (* Buddy/physical allocator work per frame. *)
val struct_page_init : int (* Initialising per-page kernel metadata. *)
val fs_lookup : int (* Path / inode lookup in the memory FS. *)
val fs_extent_op : int (* Allocating or freeing one extent in the FS. *)
val range_table_op : int (* Inserting/removing one range-table entry. *)
val scheduler : int (* Context-switch slice charged by swap waits. *)
val copy_byte_num : int (* memcpy cost numerator: cycles per... *)
val copy_byte_den : int (* ...this many bytes (1 cycle / 8 B). *)
val sfence : int (* One sfence: the persistence barrier after clwb flushes. *)

val bulk_erase : int
(** One device erase command, ~1 us whatever the extent size (E9): the
    device clears contents internally, so no per-byte cost is charged. *)

val buddy_split_merge : int (* Splitting one buddy block in two, or merging two buddies. *)
val slab_op : int (* A slab object alloc or free off its cache's free list. *)
val log_alloc_op : int (* A log-structured allocator's bump allocation or free. *)
val struct_page_update : int (* One write to a frame's struct page: a flag or a count. *)
val reclaim_examine : int (* The reclaim scan examining one page on the LRU. *)
val swap_device_op : int (* One 4 KiB swap-device read or write: NVMe-ish, ~10 us. *)
val erase_enqueue : int (* Queueing an extent for the background eraser. *)
val fs_extent_resolve : int (* Resolving one extent of a file range to its frames. *)
val fs_attr_write : int (* Writing one inode attribute (protection, persistence, discard). *)
val fs_recovery_scan : int (* Scanning one file during PMFS recovery. *)
val tcmalloc_thread_cache_op : int (* A thread-cache push or pop: lock-free by design. *)
val tcmalloc_central_lock : int (* The central list lock, to refill or drain a thread cache. *)

val zero_cost : bytes:int -> int
(** Cycles to zero [bytes] bytes at the zeroing bandwidth. *)

val copy_cost : bytes:int -> int
(** Cycles to copy [bytes] bytes. *)

val bitmap_scan_cost : frames:int -> int
(** A bitmap search or update over [frames]: 2 cycles plus one per
    64-frame word, fast but not free. *)

val pp : Format.formatter -> unit -> unit
(** Print the key constants, for bench headers. *)

val to_json : unit -> Json.t
(** The 27 calibration parameters from [freq_ghz] to [copy_byte_den] as a
    flat JSON object, recorded as provenance in bench exports so
    regression comparisons refuse to diff runs taken under different
    calibrations. The costs after them are not listed: the virtual
    numbers they move are gated instead. *)
