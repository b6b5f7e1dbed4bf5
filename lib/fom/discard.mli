(** File-granularity memory reclamation (paper §4.1): applications put
    non-critical data (caches) in files marked discardable; under memory
    pressure the OS simply deletes cold files — O(files) work that frees
    arbitrary amounts of memory, the transcendent-memory benefit without
    per-page scanning. *)

type t

val create : fs:Fs.Memfs.t -> t

val register_cache_file :
  t -> path:string -> size:int -> unit
(** Create a discardable volatile file of [size] bytes — an application
    cache. *)

val touch : t -> path:string -> unit
(** Record a use of the cache file (coarse, per-file access tracking). *)

val still_present : t -> path:string -> bool
(** Has the file survived reclamation so far? *)

val pressure : t -> needed_bytes:int -> int
(** Reclaim at least [needed_bytes] by deleting the coldest discardable
    files; returns bytes freed. *)

