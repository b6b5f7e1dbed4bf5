(** Frame quotas — the file-system control the paper notes tmpfs already
    provides over memory allocation. *)

type t

val create : ?limit_frames:int -> unit -> t
(** No limit when [limit_frames] is omitted. *)

val set_limit : t -> int option -> unit

val try_charge : t -> frames:int -> bool
(** Reserve [frames]; [false] (and no change) if it would exceed the
    limit. *)

val release : t -> frames:int -> unit
val used : t -> int
