(** Page-fault handling for the baseline VM: the per-page work the paper
    wants to eliminate. Demand-paged anonymous and file mappings,
    copy-on-write for private file mappings, and swap-in. *)

exception Segfault of int
(** Raised for an access with no VMA or insufficient VMA protection;
    carries the faulting address. *)

type ctx = {
  mem : Physmem.Phys_mem.t;
  meta : Page_meta.t;
  buddy : Alloc.Buddy.t;  (** DRAM frame source for anonymous pages / CoW *)
  swap : Swap.t;
  zero : Physmem.Zero_engine.t;  (** the pre-zeroed pool, tried first on anon faults *)
  reclaim : Reclaim.t option;
      (** when present, a failed allocation gets one reclaim-then-retry
          pass before [Sim.Errno.Error (ENOMEM, _)] surfaces *)
}

type kind = Minor | Major
(** Major = the page had to come back from the swap device. *)

val handle : ctx -> aspace:Address_space.t -> pid:int -> va:int -> write:bool -> kind
(** Resolve one fault: find the VMA, then demand-allocate (anon),
    demand-map (file), copy-on-write, or swap in, updating the page table
    and per-page metadata exactly as the baseline must. Charges the trap
    cost plus all per-page work. Raises {!Segfault} when the access is
    invalid, and [Sim.Errno.Error (ENOMEM, _)] when no frame can be found
    even after the reclaim-retry pass. The ["frame_alloc_fail"] site
    injects buddy failures in front of every allocation here. *)

val fresh_zero_frame : ctx -> Physmem.Frame.t
(** A zeroed frame, asking each source once: the engine's pool
    ({!Physmem.Zero_engine.take}), the buddy plus an eager zero, then
    {!Physmem.Zero_engine.launder}; the reclaim-retry pass on exhaustion.
    Raises [Sim.Errno.Error (ENOMEM, _)] if nothing can be found. *)

val raw_frame_exn : ?what:string -> ctx -> Physmem.Frame.t
(** A frame with unspecified contents (buddy, then
    {!Physmem.Zero_engine.launder}), with the reclaim-retry pass; [what]
    names the consumer in the ENOMEM error. *)

val populate_anon_page : ctx -> aspace:Address_space.t -> va:int -> prot:Hw.Prot.t -> unit
(** The MAP_POPULATE path for one anonymous page: allocate, zero, map —
    without the trap cost (no fault is taken). *)

val populate_file_page :
  ctx -> aspace:Address_space.t -> vma:Vma.t -> va:int -> unit
(** The MAP_POPULATE path for one file-backed page. *)
