(** Cycle-cost model for simulated memory-management operations.

    Every cost is in CPU cycles of a virtual core running at [freq_ghz].
    The defaults are calibrated so that the headline constants of the
    paper come out right on the baseline system: an `mmap` fast path of
    about 8 us on tmpfs, a minor page fault of about 2 us, and a
    pre-populated PTE write of about 0.4 us per page (see DESIGN.md §5). *)

type t = {
  freq_ghz : float;  (** Virtual core frequency used to convert cycles to time. *)
  syscall : int;  (** Kernel entry + exit (trap, register save/restore). *)
  vma_setup : int;  (** Creating a VMA / region descriptor and FS lookup. *)
  pte_write : int;  (** Allocating + writing one last-level PTE (populate path). *)
  pt_node_alloc : int;  (** Allocating one page-table node (any level). *)
  fault_trap : int;  (** Page-fault trap + kernel fault-path dispatch. *)
  mem_ref_dram : int;  (** One cache-missing memory reference to NUMA-local DRAM. *)
  mem_ref_nvm_read : int;  (** One read reference to NUMA-local NVM. *)
  mem_ref_nvm_write : int;  (** One write reference to NUMA-local NVM. *)
  mem_ref_dram_remote : int;  (** DRAM reference crossing a NUMA interconnect hop. *)
  mem_ref_nvm_read_remote : int;  (** NVM read from a remote NUMA domain. *)
  mem_ref_nvm_write_remote : int;  (** NVM write to a remote NUMA domain. *)
  cache_ref : int;  (** One cache-hitting reference. *)
  tlb_hit : int;  (** TLB lookup that hits. *)
  tlb_shootdown : int;  (** Local TLB invalidation of one entry or range (INVLPG-class). *)
  ipi : int;  (** Cost of one IPI round-trip to a remote core (send + remote handler + ack). *)
  zero_byte_num : int;  (** Zeroing cost numerator: cycles per... *)
  zero_byte_den : int;  (** ...this many bytes (default 1 cycle / 4 B). *)
  zero_cache_pop : int;  (** Popping one frame off the pre-zeroed cache (the O(1) handout). *)
  frame_alloc : int;  (** Buddy/physical allocator work per frame. *)
  struct_page_init : int;  (** Initialising per-page kernel metadata. *)
  fs_lookup : int;  (** Path / inode lookup in the memory FS. *)
  fs_extent_op : int;  (** Allocating or freeing one extent in the FS. *)
  range_table_op : int;  (** Inserting/removing one range-table entry. *)
  scheduler : int;  (** Context-switch slice charged by swap waits. *)
  copy_byte_num : int;  (** memcpy cost numerator: cycles per... *)
  copy_byte_den : int;  (** ...this many bytes (default 1 cycle / 8 B). *)
}

val default : t
(** Calibrated defaults (2 GHz core). *)

val cycles_to_us : t -> int -> float
(** Convert a cycle count to microseconds under this model. *)

val cycles_to_ms : t -> int -> float

val shootdown_cost : t -> int
(** Cost of one {e local} TLB invalidation (INVLPG-class), i.e. exactly
    [tlb_shootdown]. Remote cores are not folded in analytically: the MMU
    layer sends explicit IPIs, charged at [ipi] per remote core actually
    interrupted, so the O(cores) tax shows up as measured IPI traffic. *)

val zero_cost : t -> bytes:int -> int
(** Cycles to zero [bytes] bytes with the model's zeroing bandwidth. *)

val copy_cost : t -> bytes:int -> int
(** Cycles to copy [bytes] bytes. *)

val pp : Format.formatter -> t -> unit
(** Print the key constants of the model, for bench headers. *)

val to_json : t -> Json.t
(** Every parameter of the model as a flat JSON object — recorded as
    provenance in bench exports so regression comparisons can refuse to
    diff runs taken under different models. *)
