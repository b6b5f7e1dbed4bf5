(** A file extent: a run of contiguous physical frames backing a run of
    contiguous logical file pages. The paper's key observation is that
    one such record can describe gigabytes, where page-granular systems
    need millions of PTE-like records. *)

type t = { logical : int; start : Physmem.Frame.t; count : int }
(** [logical] is the first file page covered; [start] the first physical
    frame; [count] the number of pages/frames. *)

val bytes : t -> int
val logical_end : t -> int
(** First file page after the extent. *)

val frame_of_logical : t -> int -> Physmem.Frame.t option
(** Physical frame backing a given file page, if this extent covers it. *)

val mergeable : t -> t -> bool
(** [mergeable a b]: [b] continues [a] both logically and physically. *)

val merge : t -> t -> t
(** Requires [mergeable a b]. *)
