(* The simulated machine's core complex: each core owns a page TLB and a
   range TLB plus IPI and occupancy counters. All cores share one virtual
   clock and one stats sink — the simulator is sequential, so "parallel"
   cores are modelled as per-core cycle attribution ([busy_cycles]) over
   a single timeline. *)

type core = {
  id : int;
  numa_node : int;
  tlb : Tlb.t;
  range_tlb : Range_tlb.t;
  mutable ipi_sent : int;
  mutable ipi_received : int;
  mutable ipi_acked : int;
  mutable busy_cycles : int;
}

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  cores : core array;
  busy_gauges : string array; (* "core<N>_busy", named once *)
  numa_nodes : int;
}

let node_of ~cores ~numa_nodes id = id * numa_nodes / cores

let create ~clock ~stats ?(trace = Sim.Trace.disabled) ?(cores = 1) ?(numa_nodes = 1) ?tlb_sets
    ?tlb_ways ?range_tlb_entries () =
  if cores <= 0 then invalid_arg "Smp.create: cores must be positive";
  if numa_nodes <= 0 || numa_nodes > cores then
    invalid_arg "Smp.create: numa_nodes must be in [1, cores]";
  let mk_core id =
    {
      id;
      numa_node = node_of ~cores ~numa_nodes id;
      tlb = Tlb.create ~clock ~stats ~trace ?sets:tlb_sets ?ways:tlb_ways ();
      range_tlb = Range_tlb.create ~clock ~stats ~trace ?entries:range_tlb_entries ();
      ipi_sent = 0;
      ipi_received = 0;
      ipi_acked = 0;
      busy_cycles = 0;
    }
  in
  {
    clock;
    stats;
    trace;
    cores = Array.init cores mk_core;
    busy_gauges = Array.init cores (Printf.sprintf "core%d_busy");
    numa_nodes;
  }

let cores t = Array.length t.cores
let numa_nodes t = t.numa_nodes

let core t i =
  if i < 0 || i >= Array.length t.cores then invalid_arg "Smp.core: no such core";
  t.cores.(i)

let iter_cores t f = Array.iter f t.cores
let numa_node_of_core t i = (core t i).numa_node
(* Besides the raw counter, each attribution feeds the causal plane's
   makespan accounting and a [core<N>_busy] gauge whose clock-sampled
   series gives per-core utilization over time, not just final totals. *)
let add_busy t i cycles =
  let c = core t i in
  c.busy_cycles <- c.busy_cycles + cycles;
  Sim.Causal.add_busy (Sim.Trace.causal t.trace) ~core:i ~cycles;
  Sim.Stats.set_gauge t.stats t.busy_gauges.(i) c.busy_cycles;
  Sim.Stats.sample t.stats ~now:(Sim.Clock.now t.clock)

let clear t =
  Array.iter
    (fun c ->
      Tlb.clear c.tlb;
      Range_tlb.clear c.range_tlb)
    t.cores
