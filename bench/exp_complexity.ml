(* C1 — the scaling-law profiler, and the repo's one harness for
   scaling laws: run each memory-management operation at geometrically
   increasing operand sizes on the virtual clock, fit a log-log
   least-squares slope (Sim.Complexity), and classify it O(1) /
   O(log n) / O(n). The paper's thesis — every FOM operation is constant
   in operand size while the per-page baseline is linear — becomes a
   machine-checked table: the classes are exported into the bench JSON's
   "complexity" section, the metrics suite asserts every sweep's
   "match", and `o1mem_cli bench-diff` fails on any class downgrade.
   T1's critical-path hop counts and R1/R2's recovery costs are sweeps
   in the same list.

   Every data point runs on a fresh machine so measurements never
   contaminate each other; everything is virtual-clock time, so the fits
   are bit-identical across runs and hosts. *)

module K = Os.Kernel
module F = O1mem.Fom
module C = Sim.Complexity
open Bench_env

type sweep = {
  name : string;
  expected : C.cls;
  unit_ : string;  (* the operand's unit: "bytes", "pages", "cores", "keys", ... *)
  note : string;  (* what the operation does, and what its cost counts if not cycles *)
  sizes : int list;
  measure : int -> int;  (* operand -> cost: virtual cycles, IPIs or hops *)
}

type result = { sweep : sweep; points : (int * int) list; fit : C.fit }

let geometric ~base ~factor ~count =
  List.init count (fun i ->
      let rec pow acc k = if k = 0 then acc else pow (acc * factor) (k - 1) in
      base * pow 1 i)

(* 4 KiB .. 256 MiB in x4 steps: large enough to separate the classes,
   small enough that per-page baselines stay inside the default machine. *)
let bytes_sweep = geometric ~base:Sim.Units.page_size ~factor:4 ~count:9

(* 4 KiB .. 128 KiB (1..32 pages): below the TLB full-flush threshold. *)
let invlpg_sweep = geometric ~base:Sim.Units.page_size ~factor:2 ~count:6

(* 256 KiB .. 1 GiB (64+ pages): at or above the full-flush threshold. *)
let flush_sweep = geometric ~base:(Sim.Units.kib 256) ~factor:4 ~count:7

(* 1 .. 4096 pre-existing entries/files (occupancy sweeps). *)
let count_sweep = geometric ~base:1 ~factor:4 ~count:7

(* ------------------------- baseline VM ops ------------------------- *)

(* DRAM is split half anonymous pool, half tmpfs, so a 256 MiB operand
   needs more than the default 512 MiB machine: give byte sweeps 2 GiB. *)
let big_kernel () = kernel ~dram:(Sim.Units.gib 2) ()

let mmap_baseline n =
  let k = big_kernel () in
  let p = K.create_process k () in
  let fs, path, _ = tmpfs_file k ~bytes:n in
  cycles k (fun () ->
      ignore (K.mmap_file k p ~fs ~path ~prot:Hw.Prot.r ~share:Os.Vma.Private ~populate:true ()))

let munmap_baseline n =
  let k = big_kernel () in
  let p = K.create_process k () in
  let fs, path, _ = tmpfs_file k ~bytes:n in
  let va = K.mmap_file k p ~fs ~path ~prot:Hw.Prot.r ~share:Os.Vma.Private ~populate:true () in
  cycles k (fun () -> K.munmap k p ~va ~len:n)

let mprotect_baseline n =
  let k = big_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:n ~prot:Hw.Prot.rw ~populate:true in
  cycles k (fun () -> K.mprotect k p ~va ~len:n ~prot:Hw.Prot.r)

(* ---------------------------- FOM ops ------------------------------ *)

(* Pre-create a named file of [n] bytes with one process, then hand a
   second (fresh) process to [f]: the timed operation is always the
   steady-state map/unmap/protect, never the first-touch file build. *)
let with_fom ~strategy n f =
  let k, fom = kernel_and_fom () in
  let p0 = K.create_process k ~range_translations:true () in
  ignore (F.alloc fom p0 ~name:"/c" ~strategy ~len:n ~prot:Hw.Prot.rw ());
  let p = K.create_process k ~range_translations:true () in
  f k fom p

let mmap_fom ~strategy n =
  with_fom ~strategy n (fun k fom p ->
      cycles k (fun () -> ignore (F.map_path fom p ~strategy "/c")))

let munmap_fom ~strategy n =
  with_fom ~strategy n (fun k fom p ->
      let r = F.map_path fom p ~strategy "/c" in
      cycles k (fun () -> F.unmap fom p r))

let mprotect_fom n =
  with_fom ~strategy:F.Range_translation n (fun k fom p ->
      let r = F.map_path fom p ~strategy:F.Range_translation "/c" in
      cycles k (fun () -> ignore (F.protect fom p r ~prot:Hw.Prot.r)))

(* --------------------------- file system --------------------------- *)

let file_create n =
  let k = kernel () in
  let fs = K.tmpfs k in
  for i = 1 to n do
    ignore (Fs.Memfs.create_file fs (Printf.sprintf "/f%d" i) ~persistence:Fs.Inode.Volatile)
  done;
  cycles k (fun () -> ignore (Fs.Memfs.create_file fs "/target" ~persistence:Fs.Inode.Volatile))

let file_extend n =
  let k = big_kernel () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/x" ~persistence:Fs.Inode.Volatile in
  cycles k (fun () -> Fs.Memfs.extend fs ino ~bytes_wanted:n)

let file_truncate n =
  let k = big_kernel () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/x" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:n;
  cycles k (fun () -> Fs.Memfs.truncate fs ino ~bytes:0)

let erase ~strategy n =
  let k = kernel () in
  let e = O1mem.Erase.create ~mem:(K.mem k) ~strategy in
  cycles k (fun () -> O1mem.Erase.erase_extent e ~first:0 ~count:(n / Sim.Units.page_size))

(* Fixed 16 MiB of mappings split across n VMAs (alternating protections
   so adjacent VMAs never merge), then tear the process down: with
   mmu_gather-style batching, exit pays one syscall and one flush no
   matter how fragmented the address space is. *)
let munmap_batched_vmas n =
  let k = big_kernel () in
  let p = K.create_process k () in
  let total_pages = 4096 in
  let pages_per_vma = max 1 (total_pages / n) in
  for i = 0 to n - 1 do
    let prot = if i land 1 = 0 then Hw.Prot.rw else Hw.Prot.r in
    ignore (K.mmap_anon k p ~len:(pages_per_vma * Sim.Units.page_size) ~prot ~populate:true)
  done;
  cycles k (fun () -> K.exit_process k p)

(* ------------------- range table / TLB shootdown ------------------- *)

let with_range_table n f =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  let rt = Hw.Range_table.create ~clock ~stats () in
  for i = 0 to n - 1 do
    Hw.Range_table.insert rt ~base:(i * Sim.Units.mib 4) ~limit:(Sim.Units.mib 2) ~offset:0
      ~prot:Hw.Prot.rw
  done;
  let before = Sim.Clock.now clock in
  f rt (n * Sim.Units.mib 4);
  Sim.Clock.elapsed clock ~since:before

let range_table_insert n =
  with_range_table n (fun rt fresh_base ->
      Hw.Range_table.insert rt ~base:fresh_base ~limit:(Sim.Units.mib 2) ~offset:0
        ~prot:Hw.Prot.rw)

let range_table_remove n =
  with_range_table n (fun rt _ -> ignore (Hw.Range_table.remove rt ~base:0))

let tlb_shootdown n =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  let tlb = Hw.Tlb.create ~clock ~stats () in
  let before = Sim.Clock.now clock in
  Hw.Tlb.invalidate_range tlb ~va:0 ~len:n ();
  Sim.Clock.elapsed clock ~since:before

(* ------------------- SMP shootdowns and fault scaling --------------- *)

(* 2 .. 32 simulated cores. Starts at 2: a 1-core point has no IPI
   traffic at all and would drag a clean O(cores) fit toward zero. *)
let cores_sweep = geometric ~base:2 ~factor:2 ~count:5

(* 1 .. 32 pages: stays below the 33-page full-flush threshold so the
   per-page IPI path is what gets measured. *)
let pages_sweep = geometric ~base:1 ~factor:2 ~count:6

(* 1 .. 64 pages: crosses the full-flush threshold, which must NOT
   change the number of IPI rounds a batch issues. *)
let batch_pages_sweep = geometric ~base:1 ~factor:2 ~count:7

let unmap_pages pages mmu =
  for i = 0 to pages - 1 do
    Hw.Mmu.invalidate_page mmu ~va:(i * Sim.Units.page_size)
  done

let batched_flush pages mmu =
  let batch = Hw.Tlb_batch.create mmu in
  Hw.Tlb_batch.add batch ~va:0 ~len:(pages * Sim.Units.page_size);
  Hw.Tlb_batch.flush batch

(* Per-page unmap of a fixed 8-page buffer as the machine grows: every
   page pays one IPI per remote core, O(cores * pages) overall. *)
let smp_per_page_cores n = (smp_rig ~cores:n ~pages:8 (unmap_pages 8)).cycles

(* The same unmap through one range entry: one invalidation, one IPI
   round — O(cores), independent of the range's size. *)
let smp_range_cores n =
  (smp_rig ~range:true ~cores:n ~pages:8 (fun mmu -> Hw.Mmu.invalidate_base mmu ~base:0)).cycles

(* Per-page unmap on a fixed 8-core machine as the buffer grows: the
   core count only scales the slope, the pages scale the cost. *)
let smp_per_page_pages n = (smp_rig ~cores:8 ~pages:n (unmap_pages n)).cycles

(* IPIs (not cycles) a batched teardown issues on a fixed 8-core
   machine: Tlb_batch amortizes the whole batch — INVLPG path or
   full-flush path — into ONE round, so the count never moves. *)
let smp_batch_ipis n = Sim.Stats.get (smp_rig ~cores:8 ~pages:n (batched_flush n)).stats "ipi_sent"

(* Hops (not cycles) on the causal graph's longest chain when a 4-core
   machine tears down [n] pages with [teardown]: per-page INVLPG work
   between deliver and ack makes even the batched path's cycles grow
   with the batch, but its hop count cannot. *)
let critical_path_hops teardown n =
  (Sim.Causal.critical_path (smp_rig ~cores:4 ~pages:n (teardown n)).causal).Sim.Causal.hops

(* Demand-fault throughput as cores grow, one process per core doing the
   same 32-page workload: cycles are attributed to the core the faulting
   process runs on, so the makespan (max per-core busy) stays flat when
   fault handling scales. *)
let smp_fault_makespan n =
  let k = kernel ~cores:n () in
  let procs = List.init n (fun _ -> K.create_process k ()) in
  List.iter
    (fun p ->
      let len = 32 * Sim.Units.page_size in
      let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
      ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size))
    procs;
  let makespan = ref 0 in
  Hw.Smp.iter_cores (K.smp k) (fun c ->
      makespan := max !makespan c.Hw.Smp.busy_cycles);
  !makespan

(* ----------------------------- sweeps ------------------------------ *)

let sweeps =
  [
    {
      name = "mmap_baseline_per_page";
      expected = C.Linear;
      unit_ = "bytes";
      note = "MAP_POPULATE file map: one PTE per page";
      sizes = bytes_sweep;
      measure = mmap_baseline;
    };
    {
      name = "munmap_baseline_per_page";
      expected = C.Linear;
      unit_ = "bytes";
      note = "per-page PTE teardown + frame release";
      sizes = bytes_sweep;
      measure = munmap_baseline;
    };
    {
      name = "mprotect_baseline";
      expected = C.Linear;
      unit_ = "bytes";
      note = "per-page PTE permission rewrite";
      sizes = bytes_sweep;
      measure = mprotect_baseline;
    };
    {
      name = "mmap_fom_range";
      expected = C.Constant;
      unit_ = "bytes";
      note = "one range-table entry per extent";
      sizes = bytes_sweep;
      measure = mmap_fom ~strategy:F.Range_translation;
    };
    {
      name = "munmap_fom_range";
      expected = C.Constant;
      unit_ = "bytes";
      note = "one range entry removed + one shootdown";
      sizes = bytes_sweep;
      measure = munmap_fom ~strategy:F.Range_translation;
    };
    {
      name = "mprotect_fom";
      expected = C.Constant;
      unit_ = "bytes";
      note = "whole-file protection: O(extents)";
      sizes = bytes_sweep;
      measure = mprotect_fom;
    };
    {
      name = "mmap_fom_graft";
      expected = C.Logarithmic;
      unit_ = "bytes";
      note = "one pointer per 2 MiB window (sublinear in bytes)";
      sizes = bytes_sweep;
      measure = mmap_fom ~strategy:F.Shared_subtree;
    };
    {
      name = "ungraft_fom";
      expected = C.Logarithmic;
      unit_ = "bytes";
      note = "drop one pointer per window";
      sizes = bytes_sweep;
      measure = munmap_fom ~strategy:F.Shared_subtree;
    };
    {
      name = "file_create";
      expected = C.Constant;
      unit_ = "files";
      note = "create with N pre-existing files";
      sizes = count_sweep;
      measure = file_create;
    };
    {
      name = "file_extend";
      expected = C.Linear;
      unit_ = "bytes";
      note = "eager zeroing of new frames (the last linear op)";
      sizes = bytes_sweep;
      measure = file_extend;
    };
    {
      name = "file_truncate";
      expected = C.Constant;
      unit_ = "bytes";
      note = "extents back to the bitmap";
      sizes = bytes_sweep;
      measure = file_truncate;
    };
    {
      name = "erase_eager";
      expected = C.Linear;
      unit_ = "bytes";
      note = "synchronous memset on the critical path";
      sizes = bytes_sweep;
      measure = erase ~strategy:O1mem.Erase.Eager;
    };
    {
      name = "erase_device";
      expected = C.Constant;
      unit_ = "bytes";
      note = "one device erase command per extent";
      sizes = bytes_sweep;
      measure = erase ~strategy:O1mem.Erase.Bulk_device;
    };
    {
      name = "range_table_insert";
      expected = C.Constant;
      unit_ = "entries";
      note = "insert with N entries resident";
      sizes = count_sweep;
      measure = range_table_insert;
    };
    {
      name = "range_table_remove";
      expected = C.Constant;
      unit_ = "entries";
      note = "remove with N entries resident";
      sizes = count_sweep;
      measure = range_table_remove;
    };
    {
      name = "munmap_batched_vmas";
      expected = C.Constant;
      unit_ = "vmas";
      note = "16 MiB teardown across N VMAs: one batched flush";
      sizes = count_sweep;
      measure = munmap_batched_vmas;
    };
    {
      name = "tlb_shootdown_invlpg";
      expected = C.Linear;
      unit_ = "bytes";
      note = "per-page INVLPG below the 33-page threshold";
      sizes = invlpg_sweep;
      measure = tlb_shootdown;
    };
    {
      name = "tlb_shootdown_full_flush";
      expected = C.Constant;
      unit_ = "bytes";
      note = "33+ pages: one full flush, size-independent";
      sizes = flush_sweep;
      measure = tlb_shootdown;
    };
    {
      name = "smp_shootdown_per_page_cores";
      expected = C.Linear;
      unit_ = "cores";
      note = "8-page unmap: one IPI per page per remote core";
      sizes = cores_sweep;
      measure = smp_per_page_cores;
    };
    {
      name = "smp_shootdown_range_cores";
      expected = C.Linear;
      unit_ = "cores";
      note = "range unmap: one IPI round, O(cores) total";
      sizes = cores_sweep;
      measure = smp_range_cores;
    };
    {
      name = "smp_shootdown_per_page_pages";
      expected = C.Linear;
      unit_ = "pages";
      note = "8 cores: per-page IPIs scale with the buffer";
      sizes = pages_sweep;
      measure = smp_per_page_pages;
    };
    {
      name = "smp_batch_ipis_pages";
      expected = C.Constant;
      unit_ = "pages";
      note = "IPIs per batched flush: one round whatever the size";
      sizes = batch_pages_sweep;
      measure = smp_batch_ipis;
    };
    {
      name = "smp_fault_makespan_cores";
      expected = C.Constant;
      unit_ = "cores";
      note = "per-core demand-fault makespan: flat = perfect scaling";
      sizes = cores_sweep;
      measure = smp_fault_makespan;
    };
    {
      name = "critical_path_per_page_hops";
      expected = C.Linear;
      unit_ = "pages";
      note = "4 cores, hops on the causal graph: one IPI round per page";
      sizes = pages_sweep;
      measure = critical_path_hops unmap_pages;
    };
    {
      name = "critical_path_batched_hops";
      expected = C.Constant;
      unit_ = "pages";
      note = "4 cores, hops on the causal graph: one IPI round per batch";
      sizes = pages_sweep;
      measure = critical_path_hops batched_flush;
    };
    {
      name = "fs_recovery_files";
      expected = C.Linear;
      unit_ = "files";
      note = "charged crash recovery over N persistent FOM files: O(1) per file";
      sizes = geometric ~base:4 ~factor:2 ~count:5;
      measure = Exp_faults.recovery_point;
    };
    {
      name = "store_recovery_keys";
      expected = C.Constant;
      unit_ = "keys";
      note = "charged store recovery after an 8-txn burst: the object count must not appear";
      sizes = geometric ~base:256 ~factor:2 ~count:4;
      measure = (fun keys -> Exp_store.recovery_point ~keys ~txns:8);
    };
    {
      name = "store_recovery_records";
      expected = C.Constant;
      unit_ = "txns";
      note = "charged store recovery over 512 keys after N txns: the log holds one record";
      sizes = geometric ~base:8 ~factor:2 ~count:4;
      measure = (fun txns -> Exp_store.recovery_point ~keys:512 ~txns);
    };
    {
      name = "store_commit_keys";
      expected = C.Constant;
      unit_ = "keys";
      note = "slowest commit of a 32-txn burst: each writes over the log's one record";
      sizes = geometric ~base:256 ~factor:2 ~count:4;
      measure = (fun keys -> snd (Exp_store.live_set_point ~keys));
    };
    {
      name = "store_get_keys";
      expected = C.Constant;
      unit_ = "keys";
      note = "one charged get: an index line probe plus the block read";
      sizes = geometric ~base:256 ~factor:2 ~count:4;
      measure = (fun keys -> fst (Exp_store.live_set_point ~keys));
    };
    {
      name = "store_commit_churn";
      expected = C.Constant;
      unit_ = "churned keys";
      note = "an 8-put commit after N distinct keys were put and deleted: deletes shrink chains";
      sizes = geometric ~base:192 ~factor:2 ~count:4;
      measure = (fun keys -> snd (Exp_store.churn_point ~keys));
    };
    {
      name = "store_get_churn";
      expected = C.Constant;
      unit_ = "churned keys";
      note = "16 gets of absent keys after N distinct keys were put and deleted";
      sizes = geometric ~base:192 ~factor:2 ~count:4;
      measure = (fun keys -> fst (Exp_store.churn_point ~keys));
    };
  ]

let run_sweep s =
  let points = List.map (fun n -> (n, s.measure n)) s.sizes in
  { sweep = s; points; fit = C.fit points }

(* Deterministic, so computing once per process is safe; both the table
   printer and the JSON exporter share the same run. *)
let all = lazy (List.map run_sweep sweeps)

let results () = Lazy.force all

let result name = List.find (fun r -> r.sweep.name = name) (results ())

(* ------------------------------ export ----------------------------- *)

let result_to_json r =
  let n_min, c_min = List.hd r.points in
  let n_max, c_max = List.nth r.points (List.length r.points - 1) in
  let fit_fields = match C.fit_to_json r.fit with Sim.Json.Obj f -> f | _ -> [] in
  Sim.Json.Obj
    (("expected", Sim.Json.String (C.cls_name r.sweep.expected))
     :: ("match", Sim.Json.Bool (r.fit.C.cls = r.sweep.expected))
     :: fit_fields
    @ [
        ("unit", Sim.Json.String r.sweep.unit_);
        ("n_min", Sim.Json.Int n_min);
        ("n_max", Sim.Json.Int n_max);
        ("cost_min_cycles", Sim.Json.Int c_min);
        ("cost_max_cycles", Sim.Json.Int c_max);
      ])

let to_json () =
  Sim.Json.Obj (List.map (fun r -> (r.sweep.name, result_to_json r)) (results ()))

(* ------------------------------ report ----------------------------- *)

let run () =
  print_header "C1"
    "Scaling laws, machine-checked: fitted log-log exponent and class per operation.";
  let t =
    Sim.Table.create ~title:"C1 - complexity classes (least-squares fit on the virtual clock)"
      ~columns:[ "operation"; "operands"; "expected"; "fitted"; "exponent"; "r^2"; "growth"; "ok" ]
  in
  List.iter
    (fun r ->
      let n_min, _ = List.hd r.points in
      let n_max, _ = List.nth r.points (List.length r.points - 1) in
      let span =
        if r.sweep.unit_ = "bytes" then
          Printf.sprintf "%s..%s" (Sim.Units.bytes_to_string n_min)
            (Sim.Units.bytes_to_string n_max)
        else Printf.sprintf "%d..%d %s" n_min n_max r.sweep.unit_
      in
      Sim.Table.add_row t
        [
          r.sweep.name;
          span;
          C.cls_name r.sweep.expected;
          C.cls_name r.fit.C.cls;
          Sim.Table.cell_float ~dp:3 r.fit.C.exponent;
          Sim.Table.cell_float ~dp:3 r.fit.C.r2;
          Sim.Table.cell_float ~dp:1 r.fit.C.growth;
          (if r.fit.C.cls = r.sweep.expected then "yes" else "NO");
        ])
    (results ());
  Sim.Table.print t;
  let mismatches = List.filter (fun r -> r.fit.C.cls <> r.sweep.expected) (results ()) in
  if mismatches <> [] then
    Printf.printf "WARNING: %d operation(s) off their expected class: %s\n\n"
      (List.length mismatches)
      (String.concat ", " (List.map (fun r -> r.sweep.name) mismatches));
  let series name =
    let points = List.map (fun (n, c) -> (float_of_int n, Sim.Clock.us c)) (result name).points in
    [ { Sim.Chart.label = name; points } ]
  in
  Sim.Chart.print ~logx:true ~logy:true
    ~title:"C1 (chart): map cost (us) vs operand size (bytes), log-log"
    (series "mmap_baseline_per_page" @ series "mmap_fom_graft" @ series "mmap_fom_range")
