(** A small direct-mapped cache in front of a string-keyed [Hashtbl].

    Hot paths name their counter, gauge or span with a string literal,
    and a literal is the same block on every call. A slot matches only
    the physically identical string ([==]), so a hit costs a few byte
    reads and one pointer compare instead of hashing and comparing the
    whole name. A miss, such as an equal name built at run time, falls
    back to the table, which alone owns the values: the cache never
    changes what a name maps to. *)

type 'a t

val create : 'a -> 'a t
(** An empty cache. The value only fills empty slots and is never
    returned. *)

val find : 'a t -> (string, 'a) Hashtbl.t -> make:(unit -> 'a) -> string -> 'a
(** [find c tbl ~make name] is [name]'s value in [tbl], added as
    [make ()] when absent. The slot [name] maps to then holds it. *)

val clear : 'a t -> unit
(** Empty every slot. Call it whenever the table drops entries. *)
