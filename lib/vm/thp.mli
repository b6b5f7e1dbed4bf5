(** Transparent huge-page management (khugepaged / Ingens style).

    The paper (§3) notes that O(1) OS memory management "may enable
    better utilizing" the few page sizes processors support, and cites
    coordinated huge-page management [18, 24]. This module is the
    baseline's version of that machinery: a scanner that {e collapses}
    2 MiB-aligned windows of anonymous base pages into one huge page
    (copying the data into a freshly allocated aligned block, as Linux
    must), and a splitter that shatters a huge page back into base pages
    (what Linux does before swapping one out).

    Collapse is itself linear per window — 512 PTE teardowns plus a 2 MiB
    copy — which is the contrast with file-only memory, where extents are
    born contiguous and need no fix-up pass. *)

type stats = { collapsed : int; pages_copied : int; bytes_copied : int }

val scan_process : Kernel.t -> Proc.t -> ?threshold:float -> unit -> stats
(** One khugepaged pass over the process's anonymous VMAs: every 2 MiB
    window with at least [threshold] (default 0.9) of its 512 base pages
    populated — and no huge leaf or swapped-out page — is collapsed.
    Absent pages materialize as zeroes, trading space for TLB reach. *)

val collapse_window : Kernel.t -> Proc.t -> va:int -> bool
(** Force-collapse the 2 MiB window containing [va] (no threshold check;
    still requires at least one mapped base page, no huge leaf and no
    swapped-out page).
    Returns [false] if nothing was done. *)

val split_huge : Kernel.t -> Proc.t -> va:int -> bool
(** Shatter the huge page covering [va] into 512 base PTEs over the same
    physical block — the pre-swap fragmentation the paper mentions
    ("2MB pages are expensive to swap and Linux instead fragments them").
    Each base page takes its own reference and mapcount and the huge
    leaf's dirty bit, and goes back on the reclaim lists. Returns
    [false] if [va] is not under a huge leaf. *)
