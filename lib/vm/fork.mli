(** fork(): duplicate a process with copy-on-write memory.

    Part of the baseline's page-granular machinery: every resident
    private page must be visited to write-protect the parent's PTE and
    install a mirrored one in the child — per-page work the paper wants
    gone. (File-only memory processes share whole files instead: see
    {!O1mem.Fom.map_path} and the shared-subtree experiments.) *)

val fork : Kernel.t -> Proc.t -> Proc.t
(** Clone the process, as one ["fork"] syscall of the parent: VMAs are
    duplicated; private resident pages are write-protected in both
    parent and child and shared until one side writes (CoW fault); shared
    file mappings alias the same frames; each child leaf keeps the
    parent's dirty bit; huge anonymous pages are split first (as Linux
    does); swapped-out pages are brought back in before sharing.
    Returns the child. *)

val cow_shared_pages : Kernel.t -> Proc.t -> int
(** Diagnostic: resident private pages currently mapped read-only under
    a writable VMA (i.e. still shared, waiting for a CoW break). *)
