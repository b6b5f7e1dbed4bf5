(** Cross-layer invariant checker.

    Verifies, after any scenario, that independently maintained views of
    the machine still agree:

    - {b vma_pt_prot} — no page-table leaf grants an access its covering
      VMA forbids (write-protected CoW leaves below a writable VMA are
      fine; the reverse is not).
    - {b mapcount / refcount} — per frame, the number of page-table
      references reachable through VMAs and userfault registrations
      equals [Page_meta.mapcount], and no mapcount exceeds its refcount.
      FOM mappings (grafts, range translations) are file-owned and
      deliberately outside struct-page accounting, so they are excluded.
    - {b free_mapped} — no frame a VM-owned leaf maps is in the buddy
      or the zero engine (pending or in its pool of zeroed frames); no
      frame sits in those places twice; and no free frame holds a
      reference. A frame recycled while still in use is caught here.
    - {b conservation} — every frame of the buddy's pool is in exactly
      one place: the buddy, the zero engine (pending or pooled), a
      page-table node (counted by the kernel's one page-table frame
      source and sink, so FOM masters and the PBM table count too) or a
      VM-owned page (covered by a VM leaf or holding a reference); the
      places' counts sum to the pool size. A frame nothing gave back is
      caught here.
    - {b tlb_coherence} — on every core, every valid TLB entry still
      belongs to a live address space (ASID = pid) and matches its page
      table (existence, frame, page size, protection): a lost shootdown
      ack surfaces here, on whichever core kept the stale entry.
    - {b tlb_accounting} — the per-core [Hw.Tlb] shootdown and flush
      counters sum exactly to the machine-wide "tlb_shootdown" /
      "tlb_flush" stats, whichever invalidation branch did the bumping.
    - {b lru} — every reclaim-list node maps its VA to its frame; the
      chains hold {!Reclaim.tracked} nodes. {b swap} — every swap slot
      keys a page of a live process's anonymous VMA that no leaf maps.
    - {b fs_accounting} — per file system, quota charge == extent-tree
      pages == space-bitmap usage.

    The checker is pure host-side introspection: it charges no cycles
    and moves no counters, so running it never perturbs an experiment. *)

type violation = { check : string; detail : string }

val run : Kernel.t -> violation list
(** Empty list = all invariants hold. Violations are ordered by check. *)

val violation_to_string : violation -> string
