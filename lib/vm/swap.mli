(** Swap backing store: the place the baseline VM pushes cold dirty
    pages. Two flavours:

    - [Device]: an NVMe-class block device (~10 us per 4 KiB op);
    - [Swapfile]: a file in the persistent-memory FS — on an
      NVM machine even the baseline's swap traffic lands in memory,
      which is the paper's point that the whole mechanism is vestigial.

    The paper's position is that ample persistent memory removes the
    need for any of this; it exists here to price the baseline. *)

type backing = Device | Swapfile of Fs.Memfs.t

type t

val create : mem:Physmem.Phys_mem.t -> ?backing:backing -> unit -> t
(** [backing] defaults to [Device]. With [Swapfile fs] a "/swapfile" is
    created in [fs] and extended on demand. *)

val swap_out : t -> key:int * int -> pfn:Physmem.Frame.t -> unit
(** Copy the frame out to the backing store (charging the transfer). The
    frame is left as it was, to its owner: another address space may
    still map it, and a freed frame is scrubbed by the zero engine. [key]
    identifies the page, conventionally (pid, va). *)

val swap_in : t -> key:int * int -> pfn:Physmem.Frame.t -> bool
(** Restore a page into [pfn]. [false] if the key was never swapped
    out. *)

val contains : t -> pid:int -> va:int -> bool
(** Whether [pid]'s page at [va] has a slot. While no slot is used it
    builds no key. *)

val slots_used : t -> int
val iter : t -> (pid:int -> va:int -> unit) -> unit

val discard : t -> pid:int -> va:int -> len:int -> unit
(** Drop the slots of [pid]'s pages in [va, va+len). No device I/O, no charge. *)

val clear : t -> unit
(** Drop every slot and forget the swapfile (a crash's; no charge). *)
