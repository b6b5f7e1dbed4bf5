(* Sparse analytics over a large in-memory dataset: the workload the
   paper uses to motivate O(1) mapping ("for sparse access to large data
   sets, the fundamental linear operation cost remains").

   A 1 GiB dataset file is probed at 50,000 random records. Three
   configurations: baseline demand paging, file-only memory on classic
   page tables, and file-only memory with range translations (one range
   TLB entry covers the whole dataset). Run with:
   dune exec examples/sparse_analytics.exe *)

module K = Os.Kernel
module F = O1mem.Fom

let dataset = Sim.Units.gib 1
let probes = 50_000

let machine () =
  K.create
    ~config:
      { K.default_config with K.dram_bytes = Sim.Units.gib 2; nvm_bytes = Sim.Units.gib 4 }
    ()

let time_us k f =
  let clock = K.clock k in
  let before = Sim.Clock.now clock in
  f ();
  Sim.Clock.us (Sim.Clock.elapsed clock ~since:before)

let probe_offsets () =
  let rng = Sim.Rng.create ~seed:42 in
  List.init probes (fun _ -> Sim.Rng.int rng (dataset / 64) * 64)

let run_baseline offs =
  let k = machine () in
  let p = K.create_process k () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/dataset" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:dataset;
  let va =
    K.mmap_file k p ~fs ~path:"/dataset" ~prot:Hw.Prot.r ~share:Os.Vma.Shared ~populate:false ()
  in
  let t = time_us k (fun () -> List.iter (fun off -> K.access k p ~va:(va + off) ~write:false) offs) in
  (t, Sim.Stats.get (K.stats k) "page_fault", Sim.Stats.get (K.stats k) "walk_refs")

let run_fom strategy range offs =
  let k = machine () in
  let fom = F.create k () in
  let p = K.create_process k ~range_translations:range () in
  let r = F.alloc fom p ~name:"/dataset" ~strategy ~len:dataset ~prot:Hw.Prot.rw () in
  let t =
    time_us k (fun () ->
        List.iter (fun off -> F.access fom p ~va:(r.F.va + off) ~write:false) offs)
  in
  (t, Sim.Stats.get (K.stats k) "tlb_miss", Sim.Stats.get (K.stats k) "range_tlb_miss")

let () =
  Printf.printf "Probing %d random 64B records in a %s mapped dataset\n\n" probes
    (Sim.Units.bytes_to_string dataset);
  let offs = probe_offsets () in
  let t_base, faults, refs = run_baseline offs in
  Printf.printf "%-40s %12.1f us  (%d demand faults, %d walk refs)\n"
    "baseline mmap (demand paging):" t_base faults refs;
  let t_pt, misses, _ = run_fom F.Per_page false offs in
  Printf.printf "%-40s %12.1f us  (0 faults, %d TLB misses)\n"
    "file-only memory, page tables:" t_pt misses;
  let t_huge, misses_huge, _ = run_fom F.Huge_pages false offs in
  Printf.printf "%-40s %12.1f us  (0 faults, %d TLB misses via huge pages)\n"
    "file-only memory, huge pages:" t_huge misses_huge;
  let t_rt, _, range_misses = run_fom F.Range_translation true offs in
  Printf.printf "%-40s %12.1f us  (%d range-TLB misses: the whole dataset is one entry)\n"
    "file-only memory, range translations:" t_rt range_misses;
  Printf.printf "\nSpeedup over baseline: page tables %.1fx, huge pages %.1fx, ranges %.1fx\n"
    (t_base /. t_pt) (t_base /. t_huge) (t_base /. t_rt)
