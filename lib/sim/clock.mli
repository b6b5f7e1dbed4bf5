(** Virtual cycle clock shared by all simulated components.

    Components charge cycles for the work they do; experiments read the
    clock before and after an operation to obtain its simulated latency. *)

type t

val create : unit -> t
(** Fresh clock at cycle 0. *)

val now : t -> int
(** Current cycle count. *)

val charge : t -> int -> unit
(** [charge t c] advances the clock by [c] cycles. [c] must be >= 0. *)

val reset : t -> unit
(** Reset the clock to cycle 0 (counters are independent, see {!Stats}). *)

val elapsed : t -> since:int -> int
(** [elapsed t ~since] is [now t - since]. *)

val off : t -> (unit -> 'a) -> 'a
(** [off t f] runs [f ()] as host-side work while the simulated machine is
    off (e.g. tearing down state a power failure destroyed): the clock
    reads the same after it as before, whatever [f] charged. *)

val time : t -> (unit -> 'a) -> 'a * int
(** [time t f] runs [f ()] and returns its result with the cycles charged
    during the call. *)

val us : int -> float
(** Convert cycles to microseconds at {!Cost_model.freq_ghz}. *)
