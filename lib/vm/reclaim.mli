(** Page reclamation for the baseline VM: CLOCK (second chance) and a
    2Q-style active/inactive scheme.

    This is the linear machinery the paper says ample memory makes
    unnecessary: to find a few cold pages the kernel examines page after
    page, checking and clearing accessed bits. Reclaim cost is charged
    per page examined; experiment E12 compares it against file-granular
    discard. The lists are {!Page_meta}'s, whose {!Page_meta.unmap}
    takes a mapping off: a scan meets live mappings only. *)

type policy = Clock | Two_q

type t

val create :
  mem:Physmem.Phys_mem.t -> meta:Page_meta.t -> swap:Swap.t -> zero:Physmem.Zero_engine.t ->
  policy:policy -> t

val scan : t -> target_frames:int -> int
(** Scan until [target_frames] frames have been reclaimed or the lists
    are exhausted. Clean cold pages are dropped; dirty cold pages are
    swapped out. Returns frames actually reclaimed. *)

val tracked : t -> int
(** Mappings currently on the lists. *)

val pages_examined : t -> int
(** Cumulative pages examined by all scans (the linear work). *)
