(** Pre-created, shared page tables for file mappings (paper Figure 3).

    For every (file, protection) pair a {e master} page-table subtree is
    built once, mapping the file's extents starting at a fixed
    2 MiB-aligned base. Mapping the file into a process then reduces to
    grafting one pointer per 2 MiB window — and unmapping to removing
    those pointers — instead of writing one PTE per page. Masters for
    persistent files can be kept across (simulated) crashes, so even a
    first-time map after reboot reuses an existing table. *)

type t

val create : Os.Kernel.t -> t

type master

val master_for : t -> fs:Fs.Memfs.t -> ino:int -> prot:Hw.Prot.t -> master
(** Build (or fetch from the registry) the master subtree for a file at
    this protection. Building walks the file's extents once — the cost is
    paid a single time, not per process. *)

val graft : t -> master -> dst:Hw.Page_table.t -> dst_va:int -> int
(** Map the whole file into [dst] at [dst_va] (aligned to
    {!window_bytes}) by grafting the master's subtree windows: one
    pointer write per window, counted by the master. Returns the number
    of grafts. *)

val ungraft : t -> master -> dst:Hw.Page_table.t -> dst_va:int -> int
(** Remove the grafted pointers; O(windows), not O(pages). The last
    ungraft of a dropped master gives its table back to the kernel. *)

val forget_graft : t -> master -> unit
(** Count a graft gone whose table the kernel released in a crash. *)

val windows : master -> int
(** Number of graft windows the file occupies. *)

val window_bytes : master -> int
(** Graft granularity: 2 MiB, or 1 GiB for files of a GiB or more (one
    pointer then maps a full GiB). *)

val drop : t -> ino:int -> int
(** Take a file's masters out of the registry (unlink, grow, protect or
    crash); each is freed at its last ungraft, or at once. Returns how many. *)

val inodes : t -> int list
(** The files that have masters in the registry. *)

val master_count : t -> int
val metadata_bytes : t -> int
(** Page-table bytes held by all masters: the shared tables each process
    would otherwise replicate. *)
