(* T1 — where does the makespan go?

   The 4-core migration workload from the SMP section, re-run with the
   causal plane attached: every process touches its pages, migrates to
   the next core, touches them again (now partly remote in NUMA terms)
   and unmaps — each teardown a cross-core shootdown. The causal graph
   collected along the way decomposes the makespan (max per-core busy
   cycles) into work / IPI-wait / scheduler / remote-NUMA shares, and
   the critical-path engine reports the longest dependent chain.

   The paper's claim about batching is machine-checked on the *graph*
   rather than on cycles by two C1 sweeps on the same causal plane
   (critical_path_per_page_hops and critical_path_batched_hops): the
   critical path of a per-page shootdown grows one send→deliver→ack hop
   group per page (O(pages)), while a batched shootdown keeps one IPI
   round whatever the batch size (O(1) hops).

   Everything runs on the virtual clock: identical output across runs
   and hosts. *)

module K = Os.Kernel
open Bench_env

(* Gauge series cadence for the per-core busy counters: fine enough to
   see per-process phases on a ~1M-cycle workload, coarse enough to stay
   far from the 1024-point series bound. *)
let sample_interval = 20_000

(* The causal plane, and the event ring the timeline's slices come from. *)
let attach k =
  let causal = Sim.Causal.create ~clock:(K.clock k) () in
  Sim.Trace.attach_causal (K.trace k) causal;
  Sim.Trace.attach_ring (K.trace k) ();
  Sim.Stats.set_sample_interval (K.stats k) ~cycles:sample_interval;
  causal

(* The SMP bench workload (exp_metrics) plus a post-migration read pass:
   after the hop, the process's frames live on its old core's NUMA node,
   so the second pass generates the remote references T1 attributes. *)
let run_migration ?(cores = 4) ?(numa_nodes = 2) () =
  let k = kernel ~cores ~numa_nodes () in
  let causal = attach k in
  let procs = List.init cores (fun _ -> K.create_process k ()) in
  List.iteri
    (fun i p ->
      let len = Sim.Units.kib 64 in
      let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
      ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
      K.migrate k p ~core:((i + 1) mod cores);
      ignore (K.access_range k p ~va ~len ~write:false ~stride:Sim.Units.page_size);
      K.munmap k p ~va ~len)
    procs;
  (k, causal)

(* Deterministic, so one run per process serves the JSON exporter, the
   console report, and the timeline alike. *)
let results = lazy (run_migration ())

(* ------------------------------ export ----------------------------- *)

let to_json () =
  let k, cau = Lazy.force results in
  let frac = Sim.Causal.attributed_fraction cau in
  let cp = Sim.Causal.critical_path cau in
  let mk =
    match Sim.Causal.makespan_core cau with Some b -> b.Sim.Causal.bd_core | None -> -1
  in
  Sim.Json.Obj
    [
      ("workload", Sim.Json.String "smp_migration");
      ("cores", Sim.Json.Int (Hw.Smp.cores (K.smp k)));
      ("numa_nodes", Sim.Json.Int (Hw.Smp.numa_nodes (K.smp k)));
      ("nodes", Sim.Json.Int (Sim.Causal.node_count cau));
      ("edges", Sim.Json.Int (Sim.Causal.edge_count cau));
      ("makespan_cycles", Sim.Json.Int (Sim.Causal.makespan cau));
      ("makespan_core", Sim.Json.Int mk);
      ("attributed_fraction", Sim.Json.Float frac);
      ("attributed", Sim.Json.Bool (frac >= 0.95));
      ( "per_core",
        Sim.Json.Obj
          (List.map
             (fun b ->
               ( Printf.sprintf "core%d" b.Sim.Causal.bd_core,
                 Sim.Json.Obj
                   [
                     ("busy", Sim.Json.Int b.Sim.Causal.bd_busy);
                     ("work", Sim.Json.Int b.Sim.Causal.work);
                     ("ipi_wait", Sim.Json.Int b.Sim.Causal.ipi_wait);
                     ("sched", Sim.Json.Int b.Sim.Causal.sched);
                     ("numa_remote", Sim.Json.Int b.Sim.Causal.numa_remote);
                   ] ))
             (Sim.Causal.breakdowns cau)) );
      ( "critical_path",
        Sim.Json.Obj
          [
            ("hops", Sim.Json.Int cp.Sim.Causal.hops);
            ("cycles", Sim.Json.Int cp.Sim.Causal.cycles);
          ] );
      ( "ipi_latency",
        match Sim.Causal.to_json cau with
        | Sim.Json.Obj fields ->
          Option.value (List.assoc_opt "ipi_latency" fields) ~default:Sim.Json.Null
        | _ -> Sim.Json.Null );
      ( "numa_traffic",
        match Sim.Causal.to_json cau with
        | Sim.Json.Obj fields ->
          Option.value (List.assoc_opt "numa_traffic" fields) ~default:Sim.Json.Null
        | _ -> Sim.Json.Null );
    ]

(* ------------------------- Chrome timeline ------------------------- *)

(* One self-contained trace-event document: the trace ring as per-core
   slices, the causal graph as flow arrows between them, the sampled
   core<N>_busy gauges as counter tracks, and thread-name metadata so
   chrome://tracing labels each core's track. *)
let timeline_json () =
  let k, cau = Lazy.force results in
  let cores = Hw.Smp.cores (K.smp k) in
  let thread_meta =
    List.init cores (fun i ->
        Sim.Json.Obj
          [
            ("name", Sim.Json.String "thread_name");
            ("ph", Sim.Json.String "M");
            ("pid", Sim.Json.Int 1);
            ("tid", Sim.Json.Int i);
            ( "args",
              Sim.Json.Obj [ ("name", Sim.Json.String (Printf.sprintf "core %d" i)) ] );
          ])
  in
  let counters =
    List.concat
      (List.init cores (fun i ->
           let name = Printf.sprintf "core%d_busy" i in
           List.map
             (fun (ts, v) ->
               Sim.Json.Obj
                 [
                   ("name", Sim.Json.String name);
                   ("ph", Sim.Json.String "C");
                   ("ts", Sim.Json.Int ts);
                   ("pid", Sim.Json.Int 1);
                   ("args", Sim.Json.Obj [ ("busy", Sim.Json.Int v) ]);
                 ])
             (Sim.Stats.series (K.stats k) name)))
  in
  Sim.Json.Obj
    [
      ( "traceEvents",
        Sim.Json.List
          (thread_meta
          @ Sim.Trace.chrome_events (K.trace k)
          @ Sim.Causal.chrome_events cau
          @ counters) );
      ("displayTimeUnit", Sim.Json.String "ns");
      ( "otherData",
        Sim.Json.Obj
          [
            ("workload", Sim.Json.String "smp_migration");
            ("time_unit", Sim.Json.String "virtual cycles as microseconds");
          ] );
    ]

(* ------------------------------ report ----------------------------- *)

let run () =
  print_header "T1" "Where does the makespan go? Causal critical-path decomposition.";
  let _, cau = Lazy.force results in
  let t =
    Sim.Table.create ~title:"T1 - per-core makespan decomposition (cycles)"
      ~columns:[ "core"; "busy"; "work"; "ipi_wait"; "sched"; "numa_remote" ]
  in
  List.iter
    (fun b ->
      Sim.Table.add_row t
        [
          string_of_int b.Sim.Causal.bd_core;
          string_of_int b.Sim.Causal.bd_busy;
          string_of_int b.Sim.Causal.work;
          string_of_int b.Sim.Causal.ipi_wait;
          string_of_int b.Sim.Causal.sched;
          string_of_int b.Sim.Causal.numa_remote;
        ])
    (Sim.Causal.breakdowns cau);
  Sim.Table.print t;
  let cp = Sim.Causal.critical_path cau in
  Printf.printf "makespan: %d cycles (core %d), %.1f%% attributed to named shares\n"
    (Sim.Causal.makespan cau)
    (match Sim.Causal.makespan_core cau with Some b -> b.Sim.Causal.bd_core | None -> -1)
    (100.0 *. Sim.Causal.attributed_fraction cau);
  Printf.printf "critical path: %d hops spanning %d cycles\n" cp.Sim.Causal.hops
    cp.Sim.Causal.cycles
