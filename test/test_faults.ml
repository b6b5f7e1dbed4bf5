(* Fault injection, crash exploration, invariant checking, graceful
   degradation. *)

open Helpers
module K = Os.Kernel
module F = O1mem.Fom
module FI = Sim.Fault_inject

let chaos_config =
  {
    Os.Kernel.default_config with
    Os.Kernel.dram_bytes = Sim.Units.mib 16;
    nvm_bytes = Sim.Units.mib 16;
  }

let mk_faulted_kernel ?(config = chaos_config) ?(seed = 1) () =
  let k = K.create ~config () in
  let plane = FI.create ~seed ~stats:(K.stats k) () in
  Sim.Trace.attach_faults (K.trace k) plane;
  (k, plane)

(* ------------------------------ the plane --------------------------- *)

let test_plane_deterministic () =
  let pattern seed =
    let plane = FI.create ~seed () in
    FI.arm plane ~site:"s" (FI.Prob 0.3);
    List.init 64 (fun _ -> FI.fires plane ~site:"s")
  in
  check_bool "same seed, same faults" true (pattern 9 = pattern 9);
  check_bool "different seed, different faults" true (pattern 9 <> pattern 10)

let test_plane_modes_and_counts () =
  let plane = FI.create ~seed:1 () in
  FI.arm plane ~site:"s" (FI.On_nth 2);
  Alcotest.(check (list bool)) "on_nth fires exactly once"
    [ false; true; false; false ]
    (List.init 4 (fun _ -> FI.fires plane ~site:"s"));
  check_int "evaluations counted" 4 (FI.evaluations plane ~site:"s");
  check_int "injections counted" 1 (FI.injected plane ~site:"s");
  (* Unarmed sites count evaluations but never fire — the crash explorer
     relies on this to enumerate durable steps. *)
  check_bool "unarmed never fires" false (FI.fires plane ~site:"quiet");
  check_int "unarmed still counted" 1 (FI.evaluations plane ~site:"quiet");
  check_int "total" 1 (FI.injected_total plane);
  Alcotest.check_raises "bad probability rejected"
    (Invalid_argument "Fault_inject.arm: probability not in [0,1]") (fun () ->
      FI.arm plane ~site:"s" (FI.Prob 1.5))

let test_disabled_plane_inert () =
  check_bool "disabled never fires" false (FI.fires FI.disabled ~site:"s");
  check_bool "disabled not enabled" false (FI.enabled FI.disabled);
  Alcotest.check_raises "arming the sentinel rejected"
    (Invalid_argument "Fault_inject.arm: disabled plane") (fun () ->
      FI.arm FI.disabled ~site:"s" FI.Always)

let test_injection_traced_and_counted () =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create ~clock () in
  let plane = FI.create ~seed:1 ~stats () in
  Sim.Trace.attach_faults trace plane;
  FI.arm plane ~site:FI.site_zero_cache_empty FI.Always;
  check_bool "fires" true (FI.fires plane ~site:FI.site_zero_cache_empty);
  check_int "global counter" 1 (Sim.Stats.get stats "fault_inject");
  check_int "per-site counter" 1
    (Sim.Stats.get stats ("fault_inject:" ^ FI.site_zero_cache_empty));
  match Sim.Trace.events trace with
  | [ e ] ->
    check_string "trace op" "fault_inject" e.Sim.Trace.op;
    check_string "trace outcome" FI.site_zero_cache_empty e.Sim.Trace.outcome
  | es -> Alcotest.failf "expected one trace event, got %d" (List.length es)

(* --------------------------- WAL under crash ------------------------- *)

let mk_wal ?(capacity = Sim.Units.kib 16) () =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create ~clock () in
  let mem =
    Physmem.Phys_mem.create ~clock ~stats ~trace ~dram_bytes:(Sim.Units.mib 4)
      ~nvm_bytes:(Sim.Units.mib 4) ()
  in
  let base = Physmem.Frame.to_addr (Physmem.Phys_mem.dram_frames mem) in
  (Fs.Wal.create ~mem ~base ~capacity, mem, base, capacity)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

(* Satellite 3: power failure at a uniformly random byte offset — model
   it by zeroing the media from that offset on — always recovers a
   checksum-valid committed prefix, never a torn record. *)
let prop_wal_random_tear =
  qtest "crash at any byte offset leaves a clean prefix" ~count:60
    QCheck2.Gen.(
      pair (list_size (int_range 1 12) (string_size ~gen:printable (int_range 1 60)))
        (int_bound 10_000))
    (fun (records, x) ->
      let wal, mem, base, capacity = mk_wal ~capacity:(Sim.Units.kib 32) () in
      List.iter (Fs.Wal.append_exn wal) records;
      let used = Fs.Wal.used_bytes wal in
      let cut = x mod (used + 1) in
      if used > cut then Physmem.Phys_mem.write mem ~addr:(base + cut) (String.make (used - cut) '\000');
      let recovered = Fs.Wal.entries (Fs.Wal.recover ~mem ~base ~capacity) in
      is_prefix recovered records
      && (cut < used || recovered = records))

let test_wal_partial_flush_torn_by_crash () =
  let wal, mem, base, capacity = mk_wal () in
  let plane = FI.create ~seed:1 () in
  Sim.Trace.attach_faults (Physmem.Phys_mem.trace mem) plane;
  Fs.Wal.append_exn wal "durable";
  (* A buggy flush loop writes only half the record's lines; the crash
     tears the rest, and recovery must reject the half-written record.
     The record spans several cache lines so the marker's own line flush
     cannot accidentally heal the hole. *)
  FI.arm plane ~site:FI.site_wal_partial_flush FI.Always;
  Fs.Wal.append_exn wal (String.make 300 'y');
  Physmem.Phys_mem.crash mem;
  Alcotest.(check (list string)) "torn record rejected" [ "durable" ]
    (Fs.Wal.entries (Fs.Wal.recover ~mem ~base ~capacity))

(* PMFS's journal is in the machine's one persistence domain: with every
   flush's first line torn, the alloc's journal records never reach the
   media, and the crash reverts the journal's first line. *)
let test_crash_reverts_pmfs_journal () =
  let k, plane = mk_faulted_kernel () in
  let fom = F.create k () in
  let mem = K.mem k in
  let base = Physmem.Frame.to_addr (Physmem.Phys_mem.dram_frames mem) in
  let first_line () = Bytes.to_string (Physmem.Phys_mem.read mem ~addr:base ~len:64) in
  let before = first_line () in
  let proc = K.create_process k () in
  FI.arm plane ~site:FI.site_nvm_torn_line FI.Always;
  ignore
    (F.alloc fom proc ~name:"/torn" ~persistence:Fs.Inode.Persistent ~len:(Sim.Units.kib 16)
       ~prot:Hw.Prot.rw ());
  FI.disarm plane ~site:FI.site_nvm_torn_line;
  check_bool "the alloc journaled" true (first_line () <> before);
  O1mem.Persistence.crash fom;
  check_string "journal's first line reverted" before (first_line ());
  (* The journal is PMFS's first 16 frames. *)
  let back = Fs.Wal.recover ~mem ~base ~capacity:(16 * Sim.Units.page_size) in
  check_int "no journal record survives" 0 (Fs.Wal.entry_count back)

(* --------------------------- crash explorers ------------------------- *)

let test_explore_wal_every_step () =
  let r = O1mem.Chaos.explore_wal ~records:3 ~seed:5 () in
  (* Each append crosses exactly five durable boundaries: flush(blank
     next header), flush(record), fence, flush(marker), fence — the
     explorer must enumerate all of them, i.e. every clwb batch and
     every sfence of the workload. *)
  check_int "steps = 5 per record" 15 r.O1mem.Chaos.steps;
  check_int "fences = 2 per record" 6 r.O1mem.Chaos.fences;
  check_int "one crash per step" r.O1mem.Chaos.steps r.O1mem.Chaos.crashes;
  Alcotest.(check (list string)) "no violations" [] r.O1mem.Chaos.violations

let test_explore_fs_every_step () =
  let r = O1mem.Chaos.explore_fs ~files:2 ~seed:3 () in
  check_bool "durable steps found" true (r.O1mem.Chaos.steps > 0);
  check_int "one crash per step" r.O1mem.Chaos.steps r.O1mem.Chaos.crashes;
  Alcotest.(check (list string)) "no violations" [] r.O1mem.Chaos.violations

(* -------------------------- invariant checker ------------------------ *)

let test_check_clean_after_fork_and_fom () =
  let k, fom = mk_fom () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 16) ~write:true ~stride:Sim.Units.page_size);
  let child = Os.Fork.fork k p in
  (* CoW break in the child, FOM region, then an unmap — a little of
     every mapping flavour. *)
  K.access k child ~va ~write:true;
  let r = F.alloc fom p ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
  ignore (F.access_range fom p ~va:r.F.va ~len:r.F.len ~write:true ~stride:Sim.Units.page_size);
  K.munmap k child ~va ~len:(Sim.Units.kib 16);
  Alcotest.(check (list string)) "all invariants hold" []
    (List.map Os.Check.violation_to_string (Os.Check.run k))

let test_check_clean_after_reclaim () =
  let k = mk_kernel ~config:chaos_config () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 64) ~write:true ~stride:Sim.Units.page_size);
  check_bool "something evicted" true (Os.Reclaim.scan (K.reclaim k) ~target_frames:4 > 0);
  Alcotest.(check (list string)) "consistent after eviction" []
    (List.map Os.Check.violation_to_string (Os.Check.run k))

let test_check_detects_planted_bug () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:Sim.Units.page_size ~prot:Hw.Prot.rw ~populate:true in
  check_int "clean before tampering" 0 (List.length (Os.Check.run k));
  (* Corrupt struct-page accounting behind the checker's back. *)
  (match Hw.Page_table.lookup (Os.Address_space.page_table p.Os.Proc.aspace) ~va with
  | Some (pa, _) -> Os.Page_meta.inc_mapcount (K.page_meta k) (Physmem.Frame.of_addr pa)
  | None -> Alcotest.fail "page not mapped");
  let vs = Os.Check.run k in
  check_bool "tampering detected" true
    (List.exists (fun v -> v.Os.Check.check = "mapcount") vs)

let test_check_detects_free_mapped () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:Sim.Units.page_size ~prot:Hw.Prot.rw ~populate:true in
  check_int "clean before tampering" 0 (List.length (Os.Check.run k));
  (* Free a frame that is still mapped, behind the VM's back. *)
  (match Hw.Page_table.lookup (Os.Address_space.page_table p.Os.Proc.aspace) ~va with
  | Some (pa, _) -> Physmem.Zero_engine.put_dirty (K.zero_engine k) ~first:(Physmem.Frame.of_addr pa) ~count:1
  | None -> Alcotest.fail "page not mapped");
  let vs = List.filter (fun v -> v.Os.Check.check = "free_mapped") (Os.Check.run k) in
  check_int "mapped frame and its reference flagged" 2 (List.length vs)

let test_check_detects_lost_shootdown () =
  (* A lost ack only matters on a REMOTE core: fill core 0's TLB, migrate
     to core 1, and unmap from there. The IPI back to core 0 drops its
     ack, so core 0 skips the invalidate and keeps the stale entries. *)
  let config = { chaos_config with Os.Kernel.cores = 2 } in
  let k, plane = mk_faulted_kernel ~config () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~populate:true in
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 16) ~write:false ~stride:Sim.Units.page_size);
  K.migrate k p ~core:1;
  FI.arm plane ~site:FI.site_tlb_ack_lost FI.Always;
  K.munmap k p ~va ~len:(Sim.Units.kib 16);
  let vs = Os.Check.run k in
  check_bool "stale TLB entries found" true
    (List.exists (fun v -> v.Os.Check.check = "tlb_coherence") vs)

(* ------------------------- graceful degradation ---------------------- *)

let test_alloc_retry_survives_failure () =
  let k, plane = mk_faulted_kernel () in
  let p = K.create_process k () in
  (* Residency to reclaim: 16 touched pages. *)
  let va0 = K.mmap_anon k p ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va:va0 ~len:(Sim.Units.kib 64) ~write:true ~stride:Sim.Units.page_size);
  (* From here on the buddy refuses every request. The next fault can
     only be served by the reclaim-then-retry pass evicting pages and
     recirculating their frames — which must happen, with no OOM. *)
  FI.arm plane ~site:FI.site_frame_alloc_fail FI.Always;
  let va = K.mmap_anon k p ~len:Sim.Units.page_size ~prot:Hw.Prot.rw ~populate:false in
  K.access k p ~va ~write:true;
  check_bool "reclaim-then-retry pass taken" true
    (Sim.Stats.get (K.stats k) "alloc_retry_reclaim" >= 1);
  check_bool "frames reclaimed" true
    (Sim.Stats.get (K.stats k) "alloc_reclaimed_frames" >= 1);
  check_int "no OOM" 0 (Sim.Stats.get (K.stats k) "alloc_oom");
  check_bool "faults injected" true (FI.injected plane ~site:FI.site_frame_alloc_fail >= 1)

let test_alloc_exhaustion_is_typed_enomem () =
  let k, plane = mk_faulted_kernel () in
  let p = K.create_process k () in
  (* Nothing is resident yet, so reclaim has nothing to give back: a
     buddy that always refuses must surface as a typed ENOMEM. *)
  FI.arm plane ~site:FI.site_frame_alloc_fail FI.Always;
  let va = K.mmap_anon k p ~len:Sim.Units.page_size ~prot:Hw.Prot.rw ~populate:false in
  let oomed = try K.access k p ~va ~write:true; false
    with Sim.Errno.Error (Sim.Errno.ENOMEM, _) -> true
  in
  check_bool "typed ENOMEM" true oomed;
  check_bool "OOM counted" true (Sim.Stats.get (K.stats k) "alloc_oom" >= 1)

let test_forced_zero_cache_miss_still_allocates () =
  let k, plane = mk_faulted_kernel () in
  let p = K.create_process k () in
  (* Stock the pool, then force misses: allocation must fall back to
     the slower path, not fail. *)
  let va0 = K.mmap_anon k p ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~populate:true in
  K.munmap k p ~va:va0 ~len:(Sim.Units.kib 16);
  ignore (K.background_zero k ~budget_frames:8);
  check_bool "pool stocked" true (Physmem.Zero_engine.available (K.zero_engine k) > 0);
  FI.arm plane ~site:FI.site_zero_cache_empty FI.Always;
  let misses0 = Sim.Stats.get (K.stats k) "zero_cache_miss" in
  let va = K.mmap_anon k p ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 16) ~write:true ~stride:Sim.Units.page_size);
  check_bool "misses forced" true (Sim.Stats.get (K.stats k) "zero_cache_miss" > misses0)

(* Once the buddy is dry, an anonymous fault asks it once and then
   launders a pending frame: on an enabled plane the "frame_alloc_fail"
   site is evaluated once per such fault (a second ask before laundering
   would evaluate it twice). *)
let test_dry_buddy_asked_once () =
  let k, plane = mk_faulted_kernel () in
  let p = K.create_process k () in
  let page = Sim.Units.page_size and pages = 16 in
  let va = K.mmap_anon k p ~len:((pages + 1) * page) ~prot:Hw.Prot.rw ~populate:true in
  (* The first page stays, and with it the page table's nodes. *)
  let above = va + page in
  check_int "released" pages (K.madvise_dontneed k p ~va:above ~len:(pages * page));
  while Alloc.Buddy.alloc (K.buddy k) ~order:0 <> None do () done;
  let zero = K.zero_engine k in
  check_int "pending" pages (Physmem.Zero_engine.pending zero);
  let asks () = FI.evaluations plane ~site:FI.site_frame_alloc_fail in
  let asks0 = asks () in
  check_int "faults" pages (K.access_range k p ~va:above ~len:(pages * page) ~write:true ~stride:page);
  check_int "every frame laundered" 0 (Physmem.Zero_engine.pending zero);
  check_int "one buddy ask per laundered fault" pages (asks () - asks0)

let test_quota_enospc_typed_and_cleaned () =
  let k, plane = mk_faulted_kernel () in
  let fom = F.create k () in
  let p = K.create_process k () in
  FI.arm plane ~site:FI.site_quota_enospc FI.Always;
  let refused =
    try ignore (F.alloc fom p ~name:"/refused" ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ()); false
    with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> true
  in
  check_bool "typed ENOSPC" true refused;
  check_bool "no empty husk left behind" true (Fs.Memfs.lookup (F.fs fom) "/refused" = None);
  check_int "degradation counted" 1 (Sim.Stats.get (K.stats k) "fom_alloc_enospc")

let test_run_plan_outcomes () =
  let o = O1mem.Chaos.run_plan ~seed:42 ~plan:"alloc" () in
  check_bool "faults were injected" true (o.O1mem.Chaos.injected_total > 0);
  check_bool "reclaim retries happened" true (o.O1mem.Chaos.retried > 0);
  Alcotest.(check (list string)) "invariants hold under the alloc plan" []
    (List.map Os.Check.violation_to_string o.O1mem.Chaos.checks);
  let t = O1mem.Chaos.run_plan ~seed:42 ~plan:"tlb" () in
  check_bool "tlb plan plants detectable damage" true (t.O1mem.Chaos.checks <> []);
  check_bool "tlb plan expects violations" true (O1mem.Chaos.plan_expects_violations "tlb");
  Alcotest.check_raises "unknown plan rejected"
    (Invalid_argument
       "Chaos.run_plan: unknown plan \"bogus\" (expected one of alloc, nvm, quota, tlb, all)")
    (fun () -> ignore (O1mem.Chaos.run_plan ~plan:"bogus" ()))

(* ------------------------- zero cost when off ------------------------ *)

let test_injection_zero_cost_when_off () =
  let workload attach =
    let k = mk_kernel ~config:chaos_config () in
    if attach then begin
      let plane = FI.create ~seed:2 ~stats:(K.stats k) () in
      Sim.Trace.attach_faults (K.trace k) plane;
      List.iter (fun site -> FI.arm plane ~site (FI.Prob 0.0)) FI.all_sites
    end;
    let fom = F.create k () in
    let p = K.create_process k () in
    let va = K.mmap_anon k p ~len:(Sim.Units.kib 32) ~prot:Hw.Prot.rw ~populate:false in
    ignore (K.access_range k p ~va ~len:(Sim.Units.kib 32) ~write:true ~stride:Sim.Units.page_size);
    K.munmap k p ~va ~len:(Sim.Units.kib 32);
    let r = F.alloc fom p ~name:"/z" ~persistence:Fs.Inode.Persistent ~len:(Sim.Units.kib 16)
        ~prot:Hw.Prot.rw () in
    F.free fom p r;
    Sim.Clock.now (K.clock k)
  in
  check_int "identical cycles with the plane attached but never firing"
    (workload false) (workload true)

(* --------------------------- crash recovery -------------------------- *)

(* Under [Background_zero] a freed file's frames fill its file system's
   pool, and the depth gauge counts that pool with the kernel's. *)
let test_crash_rebaselines_gauges () =
  let crash fs_erase =
    let k, fom = mk_fom ~config:{ small_config with Os.Kernel.fs_erase } () in
    let p = K.create_process k () in
    let va = K.mmap_anon k p ~len:(Sim.Units.kib 32) ~prot:Hw.Prot.rw ~populate:false in
    ignore (K.access_range k p ~va ~len:(Sim.Units.kib 32) ~write:true ~stride:Sim.Units.page_size);
    F.free fom p (F.alloc fom p ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ());
    ignore (Fs.Memfs.background_zero_step (F.fs fom) ~budget_frames:8);
    let stock = K.mmap_anon k p ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~populate:true in
    K.munmap k p ~va:stock ~len:(Sim.Units.kib 16);
    check_int "kernel pool stocked" 4 (K.background_zero k ~budget_frames:8);
    check_bool "pages resident before crash" true (Sim.Stats.gauge (K.stats k) "resident_pages" > 0);
    ignore (O1mem.Persistence.crash_and_recover fom);
    check_int "resident gauge re-baselined" 0 (Sim.Stats.gauge (K.stats k) "resident_pages");
    check_int "tlb gauge re-baselined" 0 (Sim.Stats.gauge (K.stats k) "tlb_entries");
    let fs_pool = Fs.Memfs.zero_pool_available (F.fs fom) in
    check_int "file system pool" (if fs_erase = Fs.Memfs.Background_zero then 4 else 0) fs_pool;
    check_int "zero-cache gauge tracks reality"
      (Physmem.Zero_engine.available (K.zero_engine k) + fs_pool)
      (Sim.Stats.gauge (K.stats k) "zero_cache_depth");
    check_int "dead processes dropped" 0 (K.process_count k);
    Alcotest.(check (list string)) "post-crash machine consistent" []
      (List.map Os.Check.violation_to_string (Os.Check.run k))
  in
  crash Fs.Memfs.Eager_zero;
  crash Fs.Memfs.Background_zero

let suite =
  [
    Alcotest.test_case "plane: deterministic" `Quick test_plane_deterministic;
    Alcotest.test_case "plane: modes and counts" `Quick test_plane_modes_and_counts;
    Alcotest.test_case "plane: disabled sentinel inert" `Quick test_disabled_plane_inert;
    Alcotest.test_case "plane: injection traced + counted" `Quick test_injection_traced_and_counted;
    prop_wal_random_tear;
    Alcotest.test_case "wal: partial flush torn by crash" `Quick test_wal_partial_flush_torn_by_crash;
    Alcotest.test_case "crash reverts PMFS's unflushed journal" `Quick test_crash_reverts_pmfs_journal;
    Alcotest.test_case "explorer: WAL crash at every step" `Quick test_explore_wal_every_step;
    Alcotest.test_case "explorer: FS crash at every step" `Slow test_explore_fs_every_step;
    Alcotest.test_case "check: clean after fork + FOM" `Quick test_check_clean_after_fork_and_fom;
    Alcotest.test_case "check: clean after reclaim" `Quick test_check_clean_after_reclaim;
    Alcotest.test_case "check: planted bug detected" `Quick test_check_detects_planted_bug;
    Alcotest.test_case "check: planted free mapped frame detected" `Quick
      test_check_detects_free_mapped;
    Alcotest.test_case "check: lost shootdown detected" `Quick test_check_detects_lost_shootdown;
    Alcotest.test_case "degrade: buddy refusal, reclaimed" `Quick test_alloc_retry_survives_failure;
    Alcotest.test_case "degrade: exhaustion is typed ENOMEM" `Quick test_alloc_exhaustion_is_typed_enomem;
    Alcotest.test_case "degrade: forced cache miss survives" `Quick test_forced_zero_cache_miss_still_allocates;
    Alcotest.test_case "degrade: a dry buddy is asked once per fault" `Quick test_dry_buddy_asked_once;
    Alcotest.test_case "degrade: quota ENOSPC typed + cleaned" `Quick test_quota_enospc_typed_and_cleaned;
    Alcotest.test_case "plans: outcomes and verdicts" `Slow test_run_plan_outcomes;
    Alcotest.test_case "plane: zero cost when off" `Quick test_injection_zero_cost_when_off;
    Alcotest.test_case "crash: gauges re-baselined" `Quick test_crash_rebaselines_gauges;
  ]
