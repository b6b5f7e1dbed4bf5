(* SMP: per-core TLBs, the round-robin scheduler, IPI shootdown rounds,
   per-core counter reconciliation, and NUMA-aware memory costs. *)

open Helpers
module K = Os.Kernel

let page = Sim.Units.page_size

let smp_config ?(cores = 2) ?(numa_nodes = 1) () =
  { small_config with Os.Kernel.cores; numa_nodes }

let no_violations msg k =
  Alcotest.(check (list string)) msg []
    (List.map Os.Check.violation_to_string (Os.Check.run k))

(* Count TLB entries a given core holds for one address space. *)
let entries_for ~asid (core : Hw.Smp.core) =
  let n = ref 0 in
  Hw.Tlb.iter core.Hw.Smp.tlb (fun ~asid:a ~va:_ ~size:_ ~pfn:_ ~prot:_ ->
      if a = asid then incr n);
  !n

(* ------------------- satellite: local flushes are IPI-free ----------- *)

(* The old analytic model charged (cores-1)*ipi on every flush, even a
   purely local one. Regression: a context-switch flush on a 4-core
   machine costs exactly [tlb_shootdown] and moves no IPI counter. *)
let test_local_flush_costs_no_ipi () =
  let table, clock, stats = mk_page_table () in
  let smp = Hw.Smp.create ~clock ~stats ~cores:4 () in
  let mmu = Hw.Mmu.create ~clock ~stats ~table ~smp ~asid:1 () in
  for i = 0 to 3 do
    Hw.Page_table.map_page table ~va:(i * page) ~pfn:(100 + i) ~prot:Hw.Prot.rw
      ~size:Hw.Page_size.Small
  done;
  for i = 0 to 3 do
    match Hw.Mmu.translate mmu ~va:(i * page) ~write:false ~exec:false with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "translate failed"
  done;
  check_bool "translations cached" true (Hw.Tlb.entry_count (Hw.Mmu.tlb mmu) > 0);
  let before = Sim.Clock.now clock in
  Hw.Mmu.flush_tlbs mmu;
  check_int "local flush costs exactly tlb_shootdown" Sim.Cost_model.tlb_shootdown
    (Sim.Clock.now clock - before);
  check_int "no IPIs recorded" 0 (Sim.Stats.get stats "ipi_sent");
  Hw.Smp.iter_cores smp (fun c ->
      check_int "core sent no IPI" 0 c.Hw.Smp.ipi_sent;
      check_int "core received no IPI" 0 c.Hw.Smp.ipi_received);
  check_int "local TLB empty" 0 (Hw.Tlb.entry_count (Hw.Mmu.tlb mmu))

(* --------------------------- the scheduler --------------------------- *)

let test_sched_round_robin_affinity () =
  let s = Os.Sched.create ~cores:4 in
  Alcotest.(check (list int))
    "free procs rotate over all cores" [ 0; 1; 2; 3; 0 ]
    (List.init 5 (fun _ -> Os.Sched.pick s ~affinity:(-1)));
  Alcotest.(check (list int))
    "affinity pins the rotation" [ 2; 2; 2 ]
    (List.init 3 (fun _ -> Os.Sched.pick s ~affinity:(1 lsl 2)));
  Alcotest.check_raises "empty affinity rejected"
    (Invalid_argument "Sched.pick: affinity excludes every core") (fun () ->
      ignore (Os.Sched.pick s ~affinity:0))

(* ----------------- migration keeps per-core state sane --------------- *)

let test_migration_keeps_coherence () =
  let k = mk_kernel ~config:(smp_config ()) () in
  let p = K.create_process k () in
  let len = Sim.Units.kib 32 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
  K.migrate k p ~core:1;
  check_int "proc now on core 1" 1 p.Os.Proc.core;
  check_int "migration counted" 1 (Sim.Stats.get (K.stats k) "migration");
  ignore (K.access_range k p ~va ~len ~write:false ~stride:page);
  no_violations "coherent after migration" k;
  (* Unmap from core 1: the pages are cached on core 0, so the teardown
     must cross cores. *)
  K.munmap k p ~va ~len;
  check_bool "cross-core unmap sent IPIs" true
    (Sim.Stats.get (K.stats k) "ipi_sent" > 0);
  no_violations "coherent after cross-core unmap" k

let test_exit_on_a_flushes_b () =
  let k = mk_kernel ~config:(smp_config ()) () in
  let p = K.create_process k () in
  let len = Sim.Units.kib 16 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  ignore (K.access_range k p ~va ~len ~write:false ~stride:page);
  let core0 = Hw.Smp.core (K.smp k) 0 in
  let asid = p.Os.Proc.pid in
  check_bool "core 0 caches the pages" true (entries_for ~asid core0 > 0);
  K.migrate k p ~core:1;
  K.exit_process k p;
  check_int "exit on core 1 flushed core 0" 0 (entries_for ~asid core0);
  no_violations "no stale state after exit" k

(* ------------- Tlb_batch: one IPI round per flush, not per page ------ *)

let test_batch_single_ipi_round () =
  let ipis_for pages =
    let k = mk_kernel ~config:(smp_config ()) () in
    let p = K.create_process k () in
    let len = pages * page in
    let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
    ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
    K.migrate k p ~core:1;
    let before = Sim.Stats.get (K.stats k) "ipi_sent" in
    K.munmap k p ~va ~len;
    Sim.Stats.get (K.stats k) "ipi_sent" - before
  in
  check_int "4-page unmap: one IPI" 1 (ipis_for 4);
  check_int "16-page unmap: one IPI" 1 (ipis_for 16);
  check_int "64-page unmap: one IPI (full-flush branch)" 1 (ipis_for 64)

(* ------------- per-core counters reconcile with the stats ------------ *)

let test_tlb_accounting_reconciles () =
  let k = mk_kernel ~config:(smp_config ()) () in
  let p = K.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
  K.migrate k p ~core:1;
  K.munmap k p ~va ~len;
  (* Exercise the full-flush branch too. *)
  let q = K.create_process k () in
  K.context_switch k ~from_:p ~to_:q ~asids:false;
  no_violations "per-core counters sum to the global stats" k;
  (* Skew the global stat: the reconciliation rule must notice. *)
  Sim.Stats.incr (K.stats k) "tlb_shootdown";
  check_bool "skew detected" true
    (List.exists
       (fun v -> v.Os.Check.check = "tlb_accounting")
       (Os.Check.run k))

(* ------------------------------- NUMA -------------------------------- *)

let test_numa_remote_ref_costs_more () =
  let clock, stats = mk_env () in
  let mem =
    Physmem.Phys_mem.create ~clock ~stats ~dram_bytes:(Sim.Units.mib 1)
      ~nvm_bytes:(Sim.Units.mib 1) ~numa_nodes:2 ()
  in
  check_int "two nodes" 2 (Physmem.Phys_mem.numa_nodes mem);
  let frames = Physmem.Phys_mem.dram_frames mem in
  check_int "first frame on node 0" 0 (Physmem.Phys_mem.node_of_frame mem 0);
  check_int "last frame on node 1" 1
    (Physmem.Phys_mem.node_of_frame mem (frames - 1));
  Physmem.Phys_mem.set_accessor_node mem 0;
  let cost addr =
    let t0 = Sim.Clock.now clock in
    ignore (Physmem.Phys_mem.read mem ~addr ~len:8);
    Sim.Clock.now clock - t0
  in
  check_int "local read at DRAM latency" Sim.Cost_model.mem_ref_dram (cost 0);
  check_int "remote read at remote latency" Sim.Cost_model.mem_ref_dram_remote
    (cost (Physmem.Frame.to_addr (frames - 1)));
  check_int "remote line counted" 1 (Sim.Stats.get stats "numa_remote_ref")

let test_numa_alloc_attribution () =
  let k = mk_kernel ~config:(smp_config ~numa_nodes:2 ()) () in
  let p = K.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
  let local = Sim.Stats.get (K.stats k) "numa_local_alloc" in
  let remote = Sim.Stats.get (K.stats k) "numa_remote_alloc" in
  check_int "every demand-installed frame attributed to a node" 16
    (local + remote)

let suite =
  [
    Alcotest.test_case "flush: local-only, zero IPIs" `Quick
      test_local_flush_costs_no_ipi;
    Alcotest.test_case "sched: round robin + affinity" `Quick
      test_sched_round_robin_affinity;
    Alcotest.test_case "migrate: coherence preserved" `Quick
      test_migration_keeps_coherence;
    Alcotest.test_case "exit on core A flushes core B" `Quick
      test_exit_on_a_flushes_b;
    Alcotest.test_case "batch: one IPI round per flush" `Quick
      test_batch_single_ipi_round;
    Alcotest.test_case "accounting: per-core sums reconcile" `Quick
      test_tlb_accounting_reconciles;
    Alcotest.test_case "numa: remote refs cost more" `Quick
      test_numa_remote_ref_costs_more;
    Alcotest.test_case "numa: allocations attributed" `Quick
      test_numa_alloc_attribution;
  ]
