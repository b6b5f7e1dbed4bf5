(* A small deterministic workload that exercises every traced hot path —
   TLB lookups and shootdowns, page walks, fault handling, range-table
   ops, file create/extend/truncate, FOM map/graft/erase — and exports the
   machine's stats and per-operation latency distributions as JSON.

   Everything here runs on the virtual clock, so the output is identical
   across runs and hosts: the bench harness writes it to BENCH_<date>.json
   to give the repo a perf trajectory across PRs. *)

module K = Os.Kernel

let run_workload k =
  (* Anonymous VM: demand faults on first touch, TLB hits on the second
     pass, per-page teardown on munmap. *)
  let p = K.create_process k () in
  let len = Sim.Units.kib 256 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  ignore (K.access_range k p ~va ~len ~write:false ~stride:Sim.Units.page_size);
  K.munmap k p ~va ~len;
  (* A small mapping whose unmap stays below the full-flush threshold:
     exercises the per-page INVLPG shootdown path. *)
  let small = Sim.Units.kib 32 in
  let va2 = K.mmap_anon k p ~len:small ~prot:Hw.Prot.rw ~populate:true in
  K.munmap k p ~va:va2 ~len:small;
  (* The frames freed above are dirty: launder some in "idle time", then
     re-populate so the fault path hits the pre-zeroed cache. *)
  ignore (K.background_zero k ~budget_frames:32);
  let va3 = K.mmap_anon k p ~len:small ~prot:Hw.Prot.rw ~populate:true in
  K.munmap k p ~va:va3 ~len:small;
  (* File metadata: create/extend/truncate/unlink a batch of files. *)
  let fs = K.tmpfs k in
  for i = 0 to 7 do
    let path = Printf.sprintf "/metrics.%d" i in
    let ino = Fs.Memfs.create_file fs path ~persistence:Fs.Inode.Volatile in
    Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.kib (16 * (i + 1)));
    Fs.Memfs.truncate fs ino ~bytes:(Sim.Units.kib 4);
    Fs.Memfs.unlink fs path
  done;
  (* FOM: range translations (range-table insert/walk/remove + range-TLB
     traffic) and shared-subtree grafts. *)
  let fom = O1mem.Fom.create k () in
  let p2 = K.create_process k ~range_translations:true () in
  let r =
    O1mem.Fom.alloc fom p2 ~strategy:O1mem.Fom.Range_translation ~len:(Sim.Units.mib 2)
      ~prot:Hw.Prot.rw ()
  in
  ignore
    (O1mem.Fom.access_range fom p2 ~va:r.O1mem.Fom.va ~len:r.O1mem.Fom.len ~write:true
       ~stride:Sim.Units.page_size);
  O1mem.Fom.free fom p2 r;
  let g =
    O1mem.Fom.alloc fom p2 ~strategy:O1mem.Fom.Shared_subtree ~len:(Sim.Units.mib 4)
      ~prot:Hw.Prot.rw ()
  in
  ignore
    (O1mem.Fom.access_range fom p2 ~va:g.O1mem.Fom.va ~len:g.O1mem.Fom.len ~write:false
       ~stride:Sim.Units.huge_2m);
  O1mem.Fom.free fom p2 g;
  k

(* SMP: a 4-core, 2-node machine where every process migrates between
   touching its pages and unmapping them, so each teardown is a
   cross-core shootdown. Exports per-core IPI/TLB/busy counters — the
   measured traffic that replaced the analytic (cores-1)*ipi term. *)
let run_smp_workload () =
  let k = Bench_env.kernel ~cores:4 ~numa_nodes:2 () in
  let procs = List.init 4 (fun _ -> K.create_process k ()) in
  List.iteri
    (fun i p ->
      let len = Sim.Units.kib 64 in
      let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
      ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
      K.migrate k p ~core:((i + 1) mod 4);
      K.munmap k p ~va ~len)
    procs;
  k

let smp_to_json () =
  let k = run_smp_workload () in
  let smp = K.smp k in
  let stats = K.stats k in
  let stat n = Sim.Json.Int (Sim.Stats.get stats n) in
  let per_core =
    List.init (Hw.Smp.cores smp) (fun i ->
        let c = Hw.Smp.core smp i in
        ( Printf.sprintf "core%d" i,
          Sim.Json.Obj
            [
              ("numa_node", Sim.Json.Int c.Hw.Smp.numa_node);
              ("ipi_sent", Sim.Json.Int c.Hw.Smp.ipi_sent);
              ("ipi_received", Sim.Json.Int c.Hw.Smp.ipi_received);
              ("ipi_acked", Sim.Json.Int c.Hw.Smp.ipi_acked);
              ("busy_cycles", Sim.Json.Int c.Hw.Smp.busy_cycles);
              ("tlb_shootdowns", Sim.Json.Int (Hw.Tlb.shootdowns c.Hw.Smp.tlb));
              ("tlb_flushes", Sim.Json.Int (Hw.Tlb.flushes c.Hw.Smp.tlb));
            ] ))
  in
  Sim.Json.Obj
    ([
       ("cores", Sim.Json.Int (Hw.Smp.cores smp));
       ("numa_nodes", Sim.Json.Int (Hw.Smp.numa_nodes smp));
       ("clock_cycles", Sim.Json.Int (Sim.Clock.now (K.clock k)));
       ("ipi_sent", stat "ipi_sent");
       ("ipi_acked", stat "ipi_acked");
       ("migrations", stat "migration");
       ("numa_local_alloc", stat "numa_local_alloc");
       ("numa_remote_alloc", stat "numa_remote_alloc");
       ("numa_remote_ref", stat "numa_remote_ref");
     ]
    @ per_core)

let schema_version = "o1mem.metrics/11"

(* Provenance: everything a reader needs to decide whether two exports are
   comparable. Runs under another calibration (the parameters of
   Sim.Cost_model) or trace capacity differ by design, not by regression,
   so `bench-diff` refuses to compare them. *)
let provenance k =
  Sim.Json.Obj
    [
      ("cost_model", Sim.Cost_model.to_json ());
      ("trace_capacity", Sim.Json.Int (Sim.Trace.capacity (K.trace k)));
    ]

let to_json ?events_limit k =
  Sim.Json.Obj
    [
      ("schema", Sim.Json.String schema_version);
      ("provenance", provenance k);
      ("clock_cycles", Sim.Json.Int (Sim.Clock.now (K.clock k)));
      ("stats", Sim.Stats.to_json (K.stats k));
      ("trace", Sim.Trace.to_json ?events_limit (K.trace k));
      ("complexity", Exp_complexity.to_json ());
      ("profile", Exp_profile.to_json ());
      ("faults", Exp_faults.to_json ());
      ("store", Exp_store.to_json ());
      ("smp", smp_to_json ());
      ("causal", Exp_causal.to_json ());
    ]

let run_to_json ?events_limit () = to_json ?events_limit (run_workload (Bench_env.kernel ()))
