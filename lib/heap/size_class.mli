(** The one size-class allocator behind every simulated heap.

    {!Malloc_sim} (demand-paged anonymous memory), {!Fom_heap} (FOM
    files) and {!Tcmalloc_sim} (thread caches over anonymous memory) are
    backends of this engine, so the heaps Figure 7 and ablation A6
    compare differ only in the memory under them.

    A request below {!large_threshold} rounds up to one of {!classes}
    power-of-two size classes, 16 B to 128 KiB. It is served LIFO from
    that class's free list, or else bump-carved from the current arena;
    when a block does not fit, the rest of the arena is abandoned and a
    new one is mapped. A larger request gets a region of its own,
    unmapped by its free. *)

type 'r backend = {
  name : string;  (** error prefix, e.g. ["Malloc_sim"] *)
  map_arena : int -> 'r;  (** arena [n] (creation order), {!arena_bytes} long *)
  map_large : int -> 'r;  (** a region of at least this many bytes *)
  unmap : 'r -> unit;
  va : 'r -> int;
  len : 'r -> int;
}
(** How a heap gets memory; ['r] is the backend's region. *)

type 'r t

val classes : int
val large_threshold : int
val arena_bytes : int

val class_of : int -> int
(** Smallest class holding a request of this many bytes. *)

val class_size : int -> int
val create : 'r backend -> 'r t

val malloc : 'r t -> bytes:int -> int
(** Returns the block's VA. Raises [Invalid_argument] for [bytes <= 0]. *)

val free : 'r t -> int -> unit
(** Raises [Invalid_argument] for an unknown or already-freed VA. *)

val size_of : 'r t -> int -> int option
val live_bytes : 'r t -> int

val footprint_bytes : 'r t -> int
(** Bytes mapped from the backend: arenas and large regions. *)

val arena_count : 'r t -> int
val region_count : 'r t -> int
val iter_live : 'r t -> (int -> int -> unit) -> unit

(** {1 For a backend's own small-block path} *)

val carve : 'r t -> int -> int
(** Bump this many bytes off the current arena, mapping a new one if
    they do not fit. *)

val track : 'r t -> int -> int -> unit
(** [track t va size] makes a block live. *)

val untrack : 'r t -> int -> int
(** Retire a live block and return its size. Raises like {!free}. *)

val is_large : 'r t -> int -> bool
(** Whether a VA is a live large block. *)

val free_lists : 'r t -> int list array
(** [free_lists.(k)] holds free blocks of [class_size k] bytes. *)

(** {1 Arena-relative addressing}

    An (arena index, byte offset) pair names a location across
    {!relocate}, which a raw VA does not. *)

val arena : 'r t -> int -> 'r
(** Arena [i]. Raises [Invalid_argument] out of range. *)

val locate : 'r t -> int -> (int * int) option
(** [(arena index, byte offset)] of a VA, by a scan of the arenas;
    [None] outside every arena (e.g. in a large block). *)

val address : 'r t -> arena:int -> off:int -> int
(** Current VA of an arena-relative location (inverse of {!locate}). *)

val relocate : 'r t -> 'r array -> unit
(** Replace the arenas by the same arenas mapped at new VAs (same count
    and order), and rebase the live table, the free lists and the bump
    cursor onto them. Raises [Invalid_argument] if a live block lies
    outside every arena. *)

val destroy : 'r t -> unit
(** Unmap every arena and large region and forget every block. *)
