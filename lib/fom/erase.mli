(** Memory-erasure strategies (paper §4.1).

    Reused memory must be zeroed for security. Zeroing is the last
    inherently linear operation in file-only memory, so the paper calls
    for "new techniques to efficiently erase memory in constant time".
    Three strategies are modelled for experiment E9:

    - [Eager]: synchronous memset at free/alloc time — linear, on the
      critical path (the baseline).
    - [Background]: frames enter a dirty queue and are zeroed off the
      critical path; allocation takes pre-zeroed frames in O(1). The
      linear work still happens, but latency-critical operations don't
      wait for it.
    - [Bulk_device]: a constant-time device-level erase per extent
      (e.g. dropping a media encryption key). *)

type strategy = Eager | Background | Bulk_device

type t

val create : mem:Physmem.Phys_mem.t -> strategy:strategy -> t

val erase_extent : t -> first:Physmem.Frame.t -> count:int -> unit
(** Erase a physical extent under the configured strategy. [Eager]
    charges the full linear cost now; [Background] enqueues (charge one
    constant enqueue cost now); [Bulk_device] issues one erase command. *)

val drain_background : t -> budget_frames:int -> int
(** Let the background zeroer run (charges the real zeroing cost, off
    any measured critical path). Returns frames zeroed. *)

val critical_path_cycles : t -> (unit -> unit) -> int
(** Run a thunk and return the cycles it charged — convenience for
    benchmarking the on-critical-path cost of each strategy. *)
