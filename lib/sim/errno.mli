(** Typed kernel error codes.

    Resource exhaustion is a legal outcome, not a simulator bug: allocation
    and file-growth paths raise [Error (ENOMEM | ENOSPC, context)] instead
    of a bare [Failure], so callers (and the fault-injection harness) can
    distinguish graceful degradation from programming errors and react —
    retry after reclaim, surface the errno, or kill a victim — rather than
    aborting the run. A request the caller got wrong (a missing file, an
    existing name, a protection the file does not grant, an empty or
    unknown operand) raises one of the last five codes; [Invalid_argument]
    stays for a broken invariant, i.e. a simulator bug. *)

type t =
  | ENOMEM  (** no frame available, even after one reclaim pass *)
  | ENOSPC  (** file system out of space / quota exhausted / WAL full *)
  | EIO  (** media error (checksum mismatch surfaced to a caller) *)
  | EAGAIN  (** transient failure; caller may retry *)
  | ENOENT  (** no such file or directory *)
  | EEXIST  (** the name already exists *)
  | EACCES  (** the file does not grant the requested protection *)
  | EINVAL  (** an empty, unknown or non-growing operand *)
  | ENOTEMPTY  (** the directory still has entries *)

exception Error of t * string
(** The second component says which operation failed, for diagnostics. *)

val fail : t -> string -> 'a
(** [fail errno what] raises {!Error}. *)

val to_string : t -> string
