(* Launching a fleet of workers that share a large code/data file — the
   paper's Figure 3 scenario, end to end.

   A 64 MiB "shared library" file is mapped into 16 worker processes
   three ways: baseline demand paging, baseline MAP_POPULATE, and
   file-only memory grafting pre-created page-table subtrees. The grafted
   mapping costs a handful of pointer writes per process and the workers
   share one set of leaf page tables. Run with:
   dune exec examples/process_launch.exe *)

module K = Os.Kernel
module F = O1mem.Fom

let lib_bytes = Sim.Units.mib 64
let workers = 16

let time_us k f =
  let clock = K.clock k in
  let before = Sim.Clock.now clock in
  f ();
  Sim.Clock.us (Sim.Clock.elapsed clock ~since:before)

let baseline ~populate =
  let k = K.create ~config:{ K.default_config with K.dram_bytes = Sim.Units.gib 2 } () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/libhuge.so" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:lib_bytes;
  let pt_bytes = ref 0 in
  let t =
    time_us k (fun () ->
        for _ = 1 to workers do
          let p = K.create_process k () in
          let va =
            K.mmap_file k p ~fs ~path:"/libhuge.so" ~prot:Hw.Prot.r ~share:Os.Vma.Shared
              ~populate ()
          in
          (* Each worker reads the first page of every 2 MiB chunk (e.g.
             resolving symbols scattered through the library). *)
          ignore (K.access_range k p ~va ~len:lib_bytes ~write:false ~stride:Sim.Units.huge_2m);
          pt_bytes :=
            !pt_bytes
            + Hw.Page_table.metadata_bytes (Os.Address_space.page_table p.Os.Proc.aspace)
        done)
  in
  (t, !pt_bytes)

let fom_grafted () =
  let k = K.create ~config:{ K.default_config with K.dram_bytes = Sim.Units.gib 2 } () in
  let fom = F.create k () in
  (* Build the library file once; its master page table is built on the
     first map and shared by everyone after that. *)
  let p0 = K.create_process k () in
  ignore (F.alloc fom p0 ~name:"/libhuge.so" ~len:lib_bytes ~prot:Hw.Prot.r ());
  let pt_bytes = ref 0 in
  let t =
    time_us k (fun () ->
        for _ = 1 to workers do
          let p = K.create_process k () in
          let r = F.map_path fom p "/libhuge.so" in
          ignore
            (F.access_range fom p ~va:r.F.va ~len:lib_bytes ~write:false
               ~stride:Sim.Units.huge_2m);
          pt_bytes :=
            !pt_bytes
            + Hw.Page_table.metadata_bytes (Os.Address_space.page_table p.Os.Proc.aspace)
        done)
  in
  let shared = O1mem.Shared_pt.metadata_bytes (F.shared_pt fom) in
  (t, !pt_bytes, shared)

let () =
  Printf.printf "Mapping a %s shared library into %d workers\n\n"
    (Sim.Units.bytes_to_string lib_bytes) workers;
  let t_demand, pt_demand = baseline ~populate:false in
  Printf.printf "%-34s %10.1f us   per-worker PT: %s\n" "baseline, demand paging:" t_demand
    (Sim.Units.bytes_to_string (pt_demand / workers));
  let t_pop, pt_pop = baseline ~populate:true in
  Printf.printf "%-34s %10.1f us   per-worker PT: %s\n" "baseline, MAP_POPULATE:" t_pop
    (Sim.Units.bytes_to_string (pt_pop / workers));
  let t_fom, pt_fom, shared = fom_grafted () in
  Printf.printf "%-34s %10.1f us   per-worker PT: %s (+%s shared once)\n"
    "file-only memory, grafted:" t_fom
    (Sim.Units.bytes_to_string (pt_fom / workers))
    (Sim.Units.bytes_to_string shared);
  Printf.printf "\nGrafting is %.0fx faster than MAP_POPULATE and uses %.0fx less per-worker\n"
    (t_pop /. t_fom)
    (float_of_int pt_pop /. float_of_int (max 1 pt_fom));
  Printf.printf "page-table memory, because all %d workers point at the same subtrees.\n" workers
