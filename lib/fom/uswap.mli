(** User-level swapping over file-only memory.

    The kernel under file-only memory never swaps (§4.1); an application
    whose working set exceeds the memory it wants resident implements
    paging itself (§3.1, "userfaultd"). [Uswap] keeps a bounded window of
    a large backing file resident: faults outside the window are
    delivered by {!Os.Userfault}; the pager reads the page from the
    backing file, evicting the least-recently-installed page (writing it
    back if dirty) when the window is full.

    This is exactly the machinery the paper wants *out* of the kernel:
    here it costs only the applications that opt in. *)

type t

val create :
  Fom.t -> Os.Proc.t -> backing_path:string -> window_pages:int -> t
(** Manage the file at [backing_path] (in the FOM file system; must
    exist and be non-empty). Reserves a virtual range the size of the
    file and registers the fault handler. At most [window_pages] pages
    are resident at once. *)

val read_byte : t -> off:int -> char
(** Read through the managed window, faulting/paging as needed. *)

val write_byte : t -> off:int -> char -> unit
(** Write through the managed window; the page is written back to the
    backing file when evicted. *)

val resident_pages : t -> int
val faults : t -> int
(** Pages the handler supplied so far. *)

val evictions : t -> int
val writebacks : t -> int

val destroy : t -> unit
(** Evict everything (writing dirty pages back) and unregister. *)
