(* The cross-core causal plane: sequence numbers, core stamping, the
   IPI/migrate/sched/NUMA/reclaim edge emission, lost-ack visibility,
   the critical-path engine, and the makespan decomposition. *)

open Helpers
module K = Os.Kernel
module Ca = Sim.Causal
module FI = Sim.Fault_inject

let page = Sim.Units.page_size

let smp_config ?(cores = 2) ?(numa_nodes = 1) () =
  { small_config with Os.Kernel.cores; numa_nodes }

let attach_causal k =
  let causal = Ca.create ~clock:(K.clock k) () in
  Sim.Trace.attach_causal (K.trace k) causal;
  causal

(* The migration round-trip from the SMP suite: touch, hop, touch,
   unmap — every interaction kind except reclaim. *)
let migration_workload ?(cores = 2) ?numa_nodes () =
  let k = mk_kernel ~config:(smp_config ~cores ?numa_nodes ()) () in
  let causal = attach_causal k in
  let p = K.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
  K.migrate k p ~core:1;
  ignore (K.access_range k p ~va ~len ~write:false ~stride:page);
  K.munmap k p ~va ~len;
  (k, causal)

let ops_named name causal = List.filter (fun n -> n.Ca.op = name) (Ca.nodes causal)

(* ------------------- satellite: sequence numbers --------------------- *)

(* Zero-cost ops stamp the same virtual cycle; the monotonic [seq] keeps
   their export order deterministic anyway. *)
let test_seq_monotonic () =
  let clock = Sim.Clock.create () in
  let trace = Sim.Trace.create ~clock () in
  for _ = 1 to 5 do
    (* No clock charge: all five events land on cycle 0. *)
    Sim.Trace.record trace ~op:"zero_cost" ~start:(Sim.Clock.now clock) ()
  done;
  let evs = Sim.Trace.events trace in
  check_int "five events" 5 (List.length evs);
  List.iteri (fun i e -> check_int "seq is emission order" i e.Sim.Trace.seq) evs;
  let chrome = Sim.Trace.chrome_events trace in
  let seqs =
    List.map
      (fun j ->
        match Option.bind (Sim.Json.member j "args") (fun a -> Sim.Json.member a "seq") with
        | Some (Sim.Json.Int s) -> s
        | _ -> Alcotest.fail "chrome event without seq")
      chrome
  in
  Alcotest.(check (list int)) "equal-cycle events export in seq order" [ 0; 1; 2; 3; 4 ] seqs

let test_core_stamp_and_disabled () =
  let clock = Sim.Clock.create () in
  let trace = Sim.Trace.create ~clock () in
  check_int "default core 0" 0 (Sim.Trace.current_core trace);
  Sim.Trace.set_core trace 3;
  Sim.Trace.record trace ~op:"stamped" ~start:0 ();
  Sim.Trace.record trace ~op:"explicit" ~start:0 ~core:7 ();
  (match Sim.Trace.events trace with
  | [ a; b ] ->
    check_int "stamped with current core" 3 a.Sim.Trace.core;
    check_int "explicit core wins" 7 b.Sim.Trace.core
  | _ -> Alcotest.fail "expected two events");
  (* The shared disabled sentinel must not accumulate core state. *)
  Sim.Trace.set_core Sim.Trace.disabled 5;
  check_int "disabled sentinel ignores set_core" 0
    (Sim.Trace.current_core Sim.Trace.disabled);
  (* And the disabled causal plane swallows everything. *)
  check_int "disabled emit returns -1" (-1) (Ca.emit Ca.disabled ~core:0 ~op:"x" ());
  Ca.link Ca.disabled ~src:(-1) ~dst:(-1) ~kind:"x";
  Ca.add_busy Ca.disabled ~core:0 ~cycles:10;
  check_int "disabled stays empty" 0 (Ca.node_count Ca.disabled);
  check_int "disabled busy stays zero" 0 (Ca.busy_of Ca.disabled ~core:0)

(* --------------------- IPI send -> deliver -> ack --------------------- *)

let test_ipi_edges_and_histogram () =
  let _, causal = migration_workload () in
  let sends = ops_named "ipi_send" causal in
  let delivers = ops_named "ipi_deliver" causal in
  let acks = ops_named "ipi_ack" causal in
  check_bool "IPIs happened" true (sends <> []);
  check_int "every send delivered" (List.length sends) (List.length delivers);
  check_int "every deliver acked" (List.length delivers) (List.length acks);
  let edges = Ca.edges causal in
  List.iter
    (fun (d : Ca.node) ->
      check_bool "deliver has an incoming ipi edge" true
        (List.exists (fun e -> e.Ca.dst = d.Ca.id && e.Ca.kind = "ipi") edges);
      check_bool "deliver has an outgoing ack edge" true
        (List.exists (fun e -> e.Ca.src = d.Ca.id && e.Ca.kind = "ack") edges))
    delivers;
  (* The per-core-pair latency histogram saw exactly the send count. *)
  match Ca.to_json causal with
  | Sim.Json.Obj fields -> (
    match List.assoc "ipi_latency" fields with
    | Sim.Json.Obj pairs ->
      check_bool "at least one core pair" true (pairs <> []);
      let total =
        List.fold_left
          (fun acc (_, h) ->
            match Sim.Json.member h "count" with Some (Sim.Json.Int c) -> acc + c | _ -> acc)
          0 pairs
      in
      check_int "histogram samples = IPIs sent" (List.length sends) total
    | _ -> Alcotest.fail "ipi_latency not an object")
  | _ -> Alcotest.fail "to_json not an object"

(* -------------------- satellite: lost-ack visibility ------------------ *)

let test_lost_ack_visible_in_graph_and_timeline () =
  let k = mk_kernel ~config:(smp_config ()) () in
  let causal = attach_causal k in
  let fi = FI.create ~stats:(K.stats k) () in
  Sim.Trace.attach_faults (K.trace k) fi;
  let p = K.create_process k () in
  let len = Sim.Units.kib 32 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
  K.migrate k p ~core:1;
  FI.arm fi ~site:FI.site_tlb_ack_lost FI.Always;
  K.munmap k p ~va ~len;
  FI.disarm fi ~site:FI.site_tlb_ack_lost;
  let delivers = ops_named "ipi_deliver" causal in
  check_bool "a deliver edge reached the victim core" true (delivers <> []);
  check_int "no ack node anywhere" 0 (List.length (ops_named "ipi_ack" causal));
  let edges = Ca.edges causal in
  List.iter
    (fun (d : Ca.node) ->
      check_bool "deliver has NO outgoing ack edge" false
        (List.exists (fun e -> e.Ca.src = d.Ca.id && e.Ca.kind = "ack") edges))
    delivers;
  (* Reconcile ipi_acked < ipi_received from the exported timeline alone:
     count the flow-arrow kinds in the Chrome document. *)
  let chrome = Ca.chrome_events causal in
  let count_flows kind =
    List.length
      (List.filter
         (fun j ->
           Sim.Json.member j "ph" = Some (Sim.Json.String "s")
           && Sim.Json.member j "name" = Some (Sim.Json.String kind))
         chrome)
  in
  let received = count_flows "ipi" and acked = count_flows "ack" in
  check_bool "timeline shows deliveries" true (received > 0);
  check_bool "timeline reconciles acked < received" true (acked < received);
  let lost = ref 0 in
  Hw.Smp.iter_cores (K.smp k) (fun c ->
      lost := !lost + c.Hw.Smp.ipi_received - c.Hw.Smp.ipi_acked);
  check_int "graph matches the victims' counters" !lost (received - acked)

(* ----------------------- critical-path engine ------------------------ *)

(* A hand-built diamond: the longest chain must follow the explicit
   edges, and same-core program order must chain implicitly. *)
let test_critical_path_on_synthetic_graph () =
  let clock = Sim.Clock.create () in
  let c = Ca.create ~clock () in
  let a = Ca.emit c ~core:0 ~op:"a" () in
  let b = Ca.emit c ~core:1 ~op:"b" () in
  let d = Ca.emit c ~core:2 ~op:"d" () in
  Ca.link c ~src:a ~dst:b ~kind:"x";
  Ca.link c ~src:b ~dst:d ~kind:"x";
  let cp = Ca.critical_path c in
  check_int "explicit chain a->b->d" 3 cp.Ca.hops;
  (* Two more nodes on core 2: program order extends the chain. *)
  ignore (Ca.emit c ~core:2 ~op:"e" ());
  ignore (Ca.emit c ~core:2 ~op:"f" ());
  check_int "program order chains same-core nodes" 5 (Ca.critical_path c).Ca.hops;
  (* Off-core service nodes (core -1) never program-order chain. *)
  ignore (Ca.emit c ~core:(-1) ~op:"serve1" ());
  ignore (Ca.emit c ~core:(-1) ~op:"serve2" ());
  check_int "negative cores don't chain" 5 (Ca.critical_path c).Ca.hops

(* The tentpole claim on the graph: a batched shootdown's longest chain
   is flat in the page count, the per-page path grows with it. *)
let test_batched_critical_path_o1 () =
  let hops ~batched pages =
    let k = mk_kernel ~config:(smp_config ()) () in
    let causal = attach_causal k in
    let p = K.create_process k () in
    let len = pages * page in
    let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
    ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
    K.migrate k p ~core:1;
    Ca.reset causal;
    if batched then K.munmap k p ~va ~len
    else
      for i = 0 to pages - 1 do
        Hw.Mmu.invalidate_page (Os.Address_space.mmu p.Os.Proc.aspace) ~va:(va + (i * page))
      done;
    (Ca.critical_path causal).Ca.hops
  in
  check_int "batched unmap: same chain at 4x the pages" (hops ~batched:true 4)
    (hops ~batched:true 16);
  check_bool "per-page chain grows with the pages" true
    (hops ~batched:false 16 >= 4 * hops ~batched:false 4)

(* --------------------- makespan decomposition ------------------------ *)

let test_makespan_breakdown_attributes () =
  let k, causal = migration_workload () in
  let smp_makespan = ref 0 in
  Hw.Smp.iter_cores (K.smp k) (fun c ->
      smp_makespan := max !smp_makespan c.Hw.Smp.busy_cycles);
  check_int "causal makespan = max per-core busy" !smp_makespan (Ca.makespan causal);
  check_bool ">= 95% of makespan cycles attributed" true
    (Ca.attributed_fraction causal >= 0.95);
  (match Ca.makespan_core causal with
  | None -> Alcotest.fail "no makespan core"
  | Some b ->
    check_int "shares partition busy" b.Ca.bd_busy
      (b.Ca.work + b.Ca.ipi_wait + b.Ca.sched + b.Ca.numa_remote);
    check_bool "IPI wait share is real" true (Ca.share_of causal ~core:b.Ca.bd_core Ca.Ipi_wait >= 0));
  (* The migration handoff is an edge in the graph. *)
  let edges = Ca.edges causal in
  let out = ops_named "migrate_out" causal and in_ = ops_named "migrate_in" causal in
  check_int "one migrate_out" 1 (List.length out);
  check_int "one migrate_in" 1 (List.length in_);
  check_bool "migrate edge links them" true
    (List.exists
       (fun e ->
         e.Ca.kind = "migrate"
         && e.Ca.src = (List.hd out).Ca.id
         && e.Ca.dst = (List.hd in_).Ca.id)
       edges);
  (* And the spawn -> placement handoff is too. *)
  check_bool "sched placement edge exists" true
    (List.exists (fun e -> e.Ca.kind = "sched") edges)

(* ------------- satellite: per-core busy gauge time series ------------- *)

let test_busy_gauge_series () =
  let k = mk_kernel ~config:(smp_config ()) () in
  ignore (attach_causal k);
  Sim.Stats.set_sample_interval (K.stats k) ~cycles:100;
  let p = K.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
  let c0 = Hw.Smp.core (K.smp k) 0 in
  check_int "gauge mirrors the core counter" c0.Hw.Smp.busy_cycles
    (Sim.Stats.gauge (K.stats k) "core0_busy");
  let series = Sim.Stats.series (K.stats k) "core0_busy" in
  check_bool "busy series sampled over time" true (List.length series >= 2);
  let values = List.map snd series in
  check_bool "series is monotone" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length values - 1) values)
       (List.tl values))

(* ------------------------------- NUMA -------------------------------- *)

let test_numa_matrix_and_share () =
  let k, causal = migration_workload ~numa_nodes:2 () in
  ignore k;
  (* Post-migration reads from core 1 hit frames homed by the old node:
     the traffic matrix and the numa_remote share must both see it. *)
  match Ca.to_json causal with
  | Sim.Json.Obj fields -> (
    match List.assoc "numa_traffic" fields with
    | Sim.Json.Obj cells ->
      let total =
        List.fold_left
          (fun acc (_, v) -> match v with Sim.Json.Int n -> acc + n | _ -> acc)
          0 cells
      in
      check_bool "remote traffic recorded" true (total > 0);
      List.iter
        (fun (key, _) ->
          check_bool "matrix keys are src->dst" true (String.contains key '>'))
        cells;
      let reqs = ops_named "numa_req" causal and serves = ops_named "numa_serve" causal in
      check_int "every request served" (List.length reqs) (List.length serves);
      List.iter
        (fun (s : Ca.node) -> check_int "service point is off-core" (-1) s.Ca.core)
        serves;
      check_bool "some core carries a numa_remote share" true
        (List.exists (fun b -> b.Ca.numa_remote > 0) (Ca.breakdowns causal))
    | _ -> Alcotest.fail "numa_traffic not an object")
  | _ -> Alcotest.fail "to_json not an object"

(* --------------------------- reclaim wake ---------------------------- *)

let test_reclaim_wake_edge () =
  let k = mk_kernel () in
  let causal = attach_causal k in
  let fi = FI.create ~stats:(K.stats k) () in
  Sim.Trace.attach_faults (K.trace k) fi;
  let p = K.create_process k () in
  (* Populate some reclaimable pages first, then choke the allocator. *)
  let va = K.mmap_anon k p ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ~populate:true in
  ignore va;
  FI.arm fi ~site:FI.site_frame_alloc_fail FI.Always;
  (try ignore (K.mmap_anon k p ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~populate:true)
   with Sim.Errno.Error _ -> ());
  FI.disarm fi ~site:FI.site_frame_alloc_fail;
  let stalls = ops_named "alloc_stall" causal and wakes = ops_named "reclaim_wake" causal in
  check_bool "allocation stalled" true (stalls <> []);
  check_int "every stall woke reclaim" (List.length stalls) (List.length wakes);
  check_bool "stall -> wake edge recorded" true
    (List.exists (fun e -> e.Ca.kind = "reclaim") (Ca.edges causal))

(* Like the profiler, the causal plane does its bookkeeping off the
   virtual clock: an attached run spends exactly the same simulated
   cycles as a detached one. *)
let test_zero_cost_when_attached () =
  let run ~attach =
    let k = mk_kernel ~config:(smp_config ~cores:2 ~numa_nodes:2 ()) () in
    if attach then ignore (attach_causal k);
    let p = K.create_process k () in
    let len = Sim.Units.kib 64 in
    let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
    ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
    K.migrate k p ~core:1;
    ignore (K.access_range k p ~va ~len ~write:false ~stride:page);
    K.munmap k p ~va ~len;
    Sim.Clock.now (K.clock k)
  in
  check_int "attached run spends the same cycles" (run ~attach:false) (run ~attach:true)

(* The 4-core migration timeline: only slice, flow, counter and
   metadata phases; every flow start pairs with a finish by id; every
   interaction kind shows up as a flow; busy counters are sampled. *)
let test_timeline_export () =
  let evs = trace_events (Experiments.Exp_causal.timeline_json ()) in
  let phase ph = List.filter (fun e -> event_field e "ph" = ph) evs in
  List.iter
    (fun e ->
      check_bool "known phase" true (List.mem (event_field e "ph") [ "X"; "s"; "f"; "C"; "M" ]))
    evs;
  let starts = phase "s" and finishes = phase "f" in
  let ids es = List.sort_uniq compare (List.map (fun e -> event_field e "id") es) in
  check_bool "flows exported" true (starts <> []);
  check_int "every flow start has a finish" (List.length starts) (List.length finishes);
  Alcotest.(check (list string)) "flows pair by id" (ids starts) (ids finishes);
  let kinds = List.map (fun e -> event_field e "name") starts in
  List.iter
    (fun kind -> check_bool (kind ^ " flows present") true (List.mem kind kinds))
    [ "ipi"; "ack"; "sched"; "migrate"; "numa" ];
  check_bool "busy counters sampled" true (phase "C" <> [])

let suite =
  [
    Alcotest.test_case "trace: seq numbers order equal-cycle events" `Quick test_seq_monotonic;
    Alcotest.test_case "trace: core stamping, disabled sentinel safe" `Quick
      test_core_stamp_and_disabled;
    Alcotest.test_case "ipi: send->deliver->ack edges + histogram" `Quick
      test_ipi_edges_and_histogram;
    Alcotest.test_case "ipi: lost ack visible in graph and timeline" `Quick
      test_lost_ack_visible_in_graph_and_timeline;
    Alcotest.test_case "critical path: explicit + program-order edges" `Quick
      test_critical_path_on_synthetic_graph;
    Alcotest.test_case "critical path: batched O(1) vs per-page" `Quick
      test_batched_critical_path_o1;
    Alcotest.test_case "makespan: decomposition attributes >= 95%" `Quick
      test_makespan_breakdown_attributes;
    Alcotest.test_case "gauges: core busy sampled over time" `Quick test_busy_gauge_series;
    Alcotest.test_case "numa: traffic matrix and remote share" `Quick test_numa_matrix_and_share;
    Alcotest.test_case "reclaim: stall -> wake edge" `Quick test_reclaim_wake_edge;
    Alcotest.test_case "overhead: zero virtual cycles when attached" `Quick
      test_zero_cost_when_attached;
    Alcotest.test_case "timeline: chrome export with paired flows" `Quick test_timeline_export;
  ]
