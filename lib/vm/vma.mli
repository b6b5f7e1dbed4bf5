(** Virtual memory areas: the kernel's per-region descriptors.

    A VMA describes a contiguous virtual range with one backing kind and
    one protection. Adjacent anonymous VMAs with equal attributes merge,
    as in Linux (an optimisation the paper notes is lost when every
    region is a separate file). *)

type backing =
  | Anon
  | File of { fs : Fs.Memfs.t; ino : int; file_offset : int }
      (** [file_offset]: offset in bytes of the mapping's start within
          the file. *)

type share = Private | Shared
(** [Private] file mappings copy-on-write; [Shared] write through. *)

type t = {
  mutable start : int;
  mutable len : int;
  mutable prot : Hw.Prot.t;
  backing : backing;
  share : share;
  mutable populated : bool;  (** Was the mapping pre-populated? *)
}

val make : start:int -> len:int -> prot:Hw.Prot.t -> backing:backing -> share:share -> t

val end_ : t -> int
(** One past the last byte. *)

val contains : t -> int -> bool

val can_merge : t -> t -> bool
(** [can_merge a b]: [b] starts exactly at [end_ a] with identical
    attributes and anonymous backing (file VMAs never merge here: their
    offsets would need to chain, which Linux checks but our experiments
    never exercise). *)

val file_page_of_va : t -> va:int -> int
(** For file-backed VMAs: logical file page backing [va]. *)
