(** Round-robin-with-affinity core placement.

    The simulator runs on one virtual timeline, so the scheduler decides
    {e where} work happens — which core's TLBs a process warms and where
    its cycles are attributed — rather than preempting anything. *)

type t

val create : cores:int -> t

val pick : t -> affinity:int -> int
(** Next core in round-robin rotation whose bit is set in [affinity]
    (-1 = any core). Advances the rotation. Raises [Invalid_argument] if
    the mask excludes every core. *)
