(** Physical frame numbers.

    A frame is one base page (4 KiB) of physical memory, identified by its
    index in the physical address space. *)

type t = int
(** Frame number; frame [n] covers physical bytes
    [n * page_size .. (n+1) * page_size - 1]. *)

val none : t
(** [-1], the never-valid frame: what a frame source returns when it has
    no frame to hand out, so a handout boxes no option. *)

val to_addr : t -> int
(** Physical byte address of the first byte of the frame. *)

val of_addr : int -> t
(** Frame containing the given physical byte address. *)

val offset_in_frame : int -> int
(** Byte offset of a physical address within its frame. *)
