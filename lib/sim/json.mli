(** Minimal JSON support (printer and parser), kept dependency-free so the
    simulator can export machine-readable results anywhere.

    Integers are printed exactly; floats use a shortest-ish decimal form and
    non-finite floats print as [null] (JSON has no encoding for them). The
    parser accepts standard JSON; [\u] escapes outside the BMP are not
    combined into surrogate pairs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize. [pretty] (default false) adds newlines and 2-space indent. *)

val of_string : ?max_depth:int -> string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an error.
    Containers nested deeper than [max_depth] (default 512) are rejected
    with a ["nesting too deep"] error instead of risking stack overflow
    on adversarial input. *)

val member : t -> string -> t option
(** [member (Obj fields) key] looks up [key]; [None] on non-objects. *)
