type strategy = Eager | Background | Bulk_device

type t = { mem : Physmem.Phys_mem.t; strategy : strategy; zero : Physmem.Zero_engine.t }

let enqueue_cycles = 60

let create ~mem ~strategy = { mem; strategy; zero = Physmem.Zero_engine.create mem }

let engine t = t.zero

(* The body returns [count] for the event's operand, so the span needs
   no operand closure of its own. *)
let erase_extent t ~first ~count =
  ignore @@ Sim.Trace.span (Physmem.Phys_mem.trace t.mem) ~op:"erase_extent" ~arg:Fun.id
  @@ fun () ->
  (match t.strategy with
  | Eager ->
    for pfn = first to first + count - 1 do
      Physmem.Zero_engine.eager_zero t.zero pfn
    done
  | Background ->
    Physmem.Zero_engine.put_dirty t.zero (List.init count (fun i -> first + i));
    Sim.Clock.charge (Physmem.Phys_mem.clock t.mem) enqueue_cycles
  | Bulk_device -> Physmem.Zero_engine.bulk_erase t.zero ~first ~count);
  count

let drain_background t ~budget_frames =
  Physmem.Zero_engine.background_step t.zero ~budget_frames

let critical_path_cycles t f =
  let clock = Physmem.Phys_mem.clock t.mem in
  let before = Sim.Clock.now clock in
  f ();
  Sim.Clock.elapsed clock ~since:before
