(** A simulated process: a pid bound to an address space, scheduled on a
    core. *)

type t = {
  pid : int;
  aspace : Address_space.t;
  mutable alive : bool;
  mutable core : int;  (** Core the process currently runs on. *)
  mutable affinity : int;
      (** Bitmask of cores the scheduler may place it on; -1 = any. *)
}

val create : pid:int -> aspace:Address_space.t -> ?core:int -> ?affinity:int -> unit -> t
