(** Allocation-churn traces: a randomized sequence of variable-size
    allocations with bounded lifetimes, replayable against either heap
    (baseline malloc vs file-only memory) for the end-to-end and
    space-overhead experiments (E14/E15). *)

type op = Alloc of { id : int; bytes : int } | Touch of { id : int } | Free of { id : int }

val generate :
  rng:Sim.Rng.t -> ops:int -> ?max_bytes:int -> unit -> op list
(** A trace of [ops] operations. Sizes are log-uniform in
    [64 B, max_bytes] (default 4 MiB); each allocation is freed after an
    exponentially distributed number of subsequent operations (mean 50);
    every allocation is touched (one byte per page) once while live. All
    allocations are eventually freed. *)

type heap_driver = {
  h_malloc : bytes:int -> int;
  h_free : int -> unit;
  h_touch : va:int -> bytes:int -> unit;
}

val run : op list -> heap_driver -> int
(** Replay a trace; returns the number of operations executed. *)
