(* Ablations (A1..A8): the design choices DESIGN.md calls out, each
   isolated — huge-page fix-up vs born-contiguous extents, erase
   policies, graft window size, translation-cache geometry, heap
   designs, fork, and user-level paging. *)
open Bench_env

(* A1: transparent huge pages patch the baseline after the fact; FOM
   extents are born contiguous. Cost of the fix-up pass vs the win. *)
let tab_thp () =
  let t = Sim.Table.create ~title:"A1 - THP collapse: fix-up cost vs TLB win (64MiB region)"
      ~columns:[ "variant"; "setup us"; "scan us"; "tlb misses" ]
  in
  let len = Sim.Units.mib 64 in
  let sparse_scan k p va =
    Hw.Mmu.flush_tlbs (Os.Address_space.mmu p.Os.Proc.aspace);
    let m0 = stat k "tlb_miss" in
    let tt = time_us k (fun () -> touch_pages_kernel k p ~va ~len ~write:false) in
    (tt, stat k "tlb_miss" - m0)
  in
  (* Baseline, 4K pages. *)
  let k = kernel ~dram:(Sim.Units.gib 1) () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  let scan_us, misses = sparse_scan k p va in
  Sim.Table.add_row t
    [ "baseline 4K pages"; "0.00"; Sim.Table.cell_float scan_us; Sim.Table.cell_int misses ];
  (* Baseline + khugepaged pass. *)
  let t_collapse = time_us k (fun () -> ignore (Os.Thp.scan_process k p ())) in
  let scan_us2, misses2 = sparse_scan k p va in
  Sim.Table.add_row t
    [
      "baseline + THP collapse";
      Sim.Table.cell_float t_collapse;
      Sim.Table.cell_float scan_us2;
      Sim.Table.cell_int misses2;
    ];
  (* FOM huge pages: contiguity by construction, no fix-up. *)
  let k2, fom = kernel_and_fom () in
  let p2 = K.create_process k2 () in
  let t_alloc =
    time_us k2 (fun () ->
        ignore (F.alloc fom p2 ~strategy:F.Huge_pages ~len ~prot:Hw.Prot.rw ()))
  in
  let r = Option.get (F.region_of fom p2 ~va:(List.hd (F.regions_of fom p2)).F.va) in
  Hw.Mmu.flush_tlbs (Os.Address_space.mmu p2.Os.Proc.aspace);
  let m0 = stat k2 "tlb_miss" in
  let scan3 = time_us k2 (fun () -> touch_pages_fom fom p2 ~va:r.F.va ~len ~write:false) in
  Sim.Table.add_row t
    [
      "FOM huge pages (born contiguous)";
      Sim.Table.cell_float t_alloc;
      Sim.Table.cell_float scan3;
      Sim.Table.cell_int (stat k2 "tlb_miss" - m0);
    ];
  t

(* A2: with zeroing off the critical path, FOM allocation itself is
   near-O(1): the paper's erase question answered in the alloc path. *)
let tab_alloc_erase () =
  let t = Sim.Table.create
      ~title:"A2 - FOM alloc+map latency (no touch) under erase policies (us)"
      ~columns:[ "size"; "eager zero"; "background pool"; "device erase" ]
  in
  List.iter
    (fun mb ->
      let len = Sim.Units.mib mb in
      let run erase prime =
        let cfg =
          {
            (Bench_env.config ~nvm:(Sim.Units.gib 4) ()) with
            Os.Kernel.fs_erase = erase;
          }
        in
        let k = K.create ~config:cfg () in
        let fom = F.create k () in
        let p = K.create_process k () in
        if prime then begin
          (* Previous churn left the pool stocked / extents erased. *)
          let r = F.alloc fom p ~len ~prot:Hw.Prot.rw () in
          F.free fom p r;
          ignore
            (Fs.Memfs.background_zero_step (F.fs fom)
               ~budget_frames:(len / Sim.Units.page_size))
        end;
        time_us k (fun () -> ignore (F.alloc fom p ~len ~prot:Hw.Prot.rw ()))
      in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes len;
          Sim.Table.cell_float (run Fs.Memfs.Eager_zero false);
          Sim.Table.cell_float (run Fs.Memfs.Background_zero true);
          Sim.Table.cell_float (run Fs.Memfs.Device_erase true);
        ])
    [ 1; 16; 64; 256; 1024 ];
  t

(* A3: graft window size. GiB files graft in GiB units. *)
let tab_graft_window () =
  let t = Sim.Table.create ~title:"A3 - graft granularity: pointers written per map"
      ~columns:[ "file size"; "grafts"; "map us" ]
  in
  List.iter
    (fun mb ->
      let len = Sim.Units.mib mb in
      let k, fom = kernel_and_fom ~dram:(Sim.Units.mib 512) ~nvm:(Sim.Units.gib 6) () in
      let p0 = K.create_process k () in
      ignore (F.alloc fom p0 ~name:"/f" ~len ~prot:Hw.Prot.rw ());
      let p = K.create_process k () in
      let g0 = stat k "fom_grafts" in
      let tt = time_us k (fun () -> ignore (F.map_path fom p "/f")) in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes len;
          Sim.Table.cell_int (stat k "fom_grafts" - g0);
          Sim.Table.cell_float tt;
        ])
    [ 2; 64; 512; 1024; 2048; 4096 ];
  t

(* A4: range-TLB capacity: many live regions, uniform probes. *)
let tab_range_tlb_capacity () =
  let t = Sim.Table.create ~title:"A4 - range-TLB capacity vs miss rate (64 regions, 10k probes)"
      ~columns:[ "entries"; "hits"; "misses"; "probe us" ]
  in
  List.iter
    (fun entries ->
      let cfg =
        { (Bench_env.config ~nvm:(Sim.Units.gib 2) ()) with Os.Kernel.range_tlb_entries = entries }
      in
      let k = K.create ~config:cfg () in
      let fom = F.create k () in
      let p = K.create_process k ~range_translations:true () in
      let regions =
        List.init 64 (fun _ ->
            F.alloc fom p ~strategy:F.Range_translation ~len:(Sim.Units.mib 1) ~prot:Hw.Prot.rw ())
      in
      let rng = Sim.Rng.create ~seed:9 in
      let h0 = stat k "range_tlb_hit" and m0 = stat k "range_tlb_miss" in
      let tt =
        time_us k (fun () ->
            for _ = 1 to 10_000 do
              let r = List.nth regions (Sim.Rng.int rng 64) in
              F.access fom p ~va:(r.F.va + Sim.Rng.int rng r.F.len) ~write:false
            done)
      in
      Sim.Table.add_row t
        [
          Sim.Table.cell_int entries;
          Sim.Table.cell_int (stat k "range_tlb_hit" - h0);
          Sim.Table.cell_int (stat k "range_tlb_miss" - m0);
          Sim.Table.cell_float tt;
        ])
    [ 4; 8; 16; 32; 64; 128 ];
  t

(* A5: page-TLB geometry on a fixed sparse scan. *)
let tab_tlb_geometry () =
  let t = Sim.Table.create ~title:"A5 - page-TLB geometry: 32MiB sparse scan"
      ~columns:[ "sets x ways"; "entries"; "tlb misses"; "scan us" ]
  in
  List.iter
    (fun (sets, ways) ->
      let cfg =
        { (Bench_env.config ~dram:(Sim.Units.gib 1) ()) with Os.Kernel.tlb_sets = sets; tlb_ways = ways }
      in
      let k = K.create ~config:cfg () in
      let p = K.create_process k () in
      let len = Sim.Units.mib 32 in
      let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
      (* Two passes: the second shows whether the set fits. *)
      ignore (K.access_range k p ~va ~len ~write:false ~stride:Sim.Units.page_size);
      let m0 = stat k "tlb_miss" in
      let tt =
        time_us k (fun () ->
            ignore (K.access_range k p ~va ~len ~write:false ~stride:Sim.Units.page_size))
      in
      Sim.Table.add_row t
        [
          Printf.sprintf "%dx%d" sets ways;
          Sim.Table.cell_int (sets * ways);
          Sim.Table.cell_int (stat k "tlb_miss" - m0);
          Sim.Table.cell_float tt;
        ])
    [ (16, 4); (64, 4); (128, 8); (512, 8); (1024, 16) ];
  t

(* A6: heap designs under one churn trace. *)
let tab_heaps () =
  let t = Sim.Table.create ~title:"A6 - heap designs under churn (1000 ops, <=256KiB objects)"
      ~columns:[ "heap"; "total us"; "footprint"; "central refills" ]
  in
  let trace =
    Wl.Churn.generate ~rng:(Sim.Rng.create ~seed:12) ~ops:1000 ~max_bytes:(Sim.Units.kib 256) ()
  in
  let replay k driver = time_us k (fun () -> ignore (Wl.Churn.run trace driver)) in
  let heap_row name k backend =
    let driver, footprint = heap_driver k backend in
    let us = replay k driver in
    Sim.Table.add_row t [ name; Sim.Table.cell_float us; Sim.Table.cell_bytes (footprint ()); "-" ]
  in
  heap_row "dlmalloc-style" (kernel ~dram:(Sim.Units.gib 1) ()) `Malloc;
  (* tcmalloc-style, 4 threads round-robin *)
  let k2 = kernel ~dram:(Sim.Units.gib 1) () in
  let p2 = K.create_process k2 () in
  let tc = Heap.Tcmalloc_sim.create k2 p2 ~threads:4 () in
  let t2 = replay k2 (tcmalloc_driver k2 p2 tc) in
  Sim.Table.add_row t
    [ "tcmalloc-style (4 threads)"; Sim.Table.cell_float t2;
      Sim.Table.cell_bytes (Heap.Tcmalloc_sim.footprint_bytes tc);
      Sim.Table.cell_int (Heap.Tcmalloc_sim.central_refills tc) ];
  heap_row "FOM heap (file-backed)" (kernel ()) `Fom;
  t

(* A7: fork cost is per-resident-page in the baseline; the FOM equivalent
   of "start a sibling worker over the same state" is whole-file mapping. *)
let tab_fork () =
  let t = Sim.Table.create ~title:"A7 - fork vs FOM sibling launch (us)"
      ~columns:[ "resident"; "fork (CoW setup)"; "FOM map same files" ]
  in
  List.iter
    (fun mb ->
      let len = Sim.Units.mib mb in
      let k = kernel ~dram:(Sim.Units.gib 2) () in
      let parent = K.create_process k () in
      let va = K.mmap_anon k parent ~len ~prot:Hw.Prot.rw ~populate:true in
      ignore va;
      let t_fork = time_us k (fun () -> ignore (Os.Fork.fork k parent)) in
      let k2, fom = kernel_and_fom ~nvm:(Sim.Units.gib 4) () in
      let p0 = K.create_process k2 () in
      ignore (F.alloc fom p0 ~name:"/state" ~len ~prot:Hw.Prot.rw ());
      let t_fom =
        time_us k2 (fun () ->
            let sibling = K.create_process k2 () in
            ignore (F.map_path fom sibling "/state"))
      in
      Sim.Table.add_row t
        [ Sim.Table.cell_bytes len; Sim.Table.cell_float t_fork; Sim.Table.cell_float t_fom ])
    [ 1; 4; 16; 64 ];
  t

(* A8: user-level paging (the paper's answer for apps that still need
   swapping): window scan overhead vs mapping the whole file. *)
let tab_uswap () =
  let t = Sim.Table.create
      ~title:"A8 - user-level swap: scan 16MiB through a window (us, faults)"
      ~columns:[ "window"; "scan us"; "userfaults"; "writebacks" ]
  in
  let file_len = Sim.Units.mib 16 in
  List.iter
    (fun window_pages ->
      let k, fom = kernel_and_fom () in
      let p = K.create_process k () in
      let fs = F.fs fom in
      let ino = Fs.Memfs.create_file fs "/swapfile" ~persistence:Fs.Inode.Persistent in
      Fs.Memfs.extend fs ino ~bytes_wanted:file_len;
      let u = O1mem.Uswap.create fom p ~backing_path:"/swapfile" ~window_pages in
      let f0 = stat k "userfault" in
      let tt =
        time_us k (fun () ->
            for i = 0 to (file_len / Sim.Units.page_size) - 1 do
              ignore (O1mem.Uswap.read_byte u ~off:(i * Sim.Units.page_size))
            done)
      in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes (window_pages * Sim.Units.page_size);
          Sim.Table.cell_float tt;
          Sim.Table.cell_int (stat k "userfault" - f0);
          Sim.Table.cell_int (O1mem.Uswap.writebacks u);
        ])
    [ 64; 256; 1024; 4096 ];
  (* Reference: the whole file mapped, no window. *)
  let k, fom = kernel_and_fom () in
  let p = K.create_process k () in
  let r = F.alloc fom p ~name:"/swapfile" ~len:file_len ~prot:Hw.Prot.rw () in
  let tt = time_us k (fun () -> touch_pages_fom fom p ~va:r.F.va ~len:file_len ~write:false) in
  Sim.Table.add_row t [ "whole file (FOM)"; Sim.Table.cell_float tt; "0"; "0" ];
  t

(* A9: the VMA-merging optimisation FOM gives up (paper §4.1): region
   metadata under fragmented anonymous mmaps vs FOM files. *)
let tab_vma_merging () =
  let t = Sim.Table.create ~title:"A9 - region metadata: VMA merging vs one-file-per-alloc"
      ~columns:[ "allocs"; "baseline VMAs (merged)"; "FOM files" ]
  in
  List.iter
    (fun n ->
      let k = kernel () in
      let p = K.create_process k () in
      for _ = 1 to n do
        ignore (K.mmap_anon k p ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ~populate:false)
      done;
      let k2, fom = kernel_and_fom () in
      let p2 = K.create_process k2 () in
      for _ = 1 to n do
        ignore (F.alloc fom p2 ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ())
      done;
      Sim.Table.add_row t
        [
          Sim.Table.cell_int n;
          Sim.Table.cell_int (Os.Address_space.vma_count p.Os.Proc.aspace);
          Sim.Table.cell_int (List.length (F.regions_of fom p2));
        ])
    [ 8; 64; 256 ];
  t

(* A10: cache behaviour. Working-set cliff under the cache hierarchy,
   and the report's LLC-miss comparison between malloc and PMFS paths. *)
let tab_cache () =
  let t = Sim.Table.create ~title:"A10a - cache working-set cliff (cycles/access, 2nd pass)"
      ~columns:[ "working set"; "l1 hits"; "l2 hits"; "llc hits"; "llc misses"; "cyc/access" ]
  in
  List.iter
    (fun kb ->
      let clock = Sim.Clock.create Sim.Cost_model.default in
      let stats = Sim.Stats.create () in
      let mem =
        Physmem.Phys_mem.create ~clock ~stats ~dram_bytes:(Sim.Units.mib 64) ~nvm_bytes:0 ()
      in
      let cache = Physmem.Cache_hier.create ~clock ~stats () in
      Physmem.Phys_mem.attach_cache mem cache;
      let lines = Sim.Units.kib kb / 64 in
      for i = 0 to lines - 1 do
        Physmem.Phys_mem.touch mem (i * 64)
      done;
      Sim.Stats.reset stats;
      let before = Sim.Clock.now clock in
      for i = 0 to lines - 1 do
        Physmem.Phys_mem.touch mem (i * 64)
      done;
      let cyc = Sim.Clock.elapsed clock ~since:before in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes (Sim.Units.kib kb);
          Sim.Table.cell_int (Sim.Stats.get stats "l1_hit");
          Sim.Table.cell_int (Sim.Stats.get stats "l2_hit");
          Sim.Table.cell_int (Sim.Stats.get stats "llc_hit");
          Sim.Table.cell_int (Sim.Stats.get stats "llc_miss");
          Sim.Table.cell_float ~dp:1 (float_of_int cyc /. float_of_int lines);
        ])
    [ 16; 128; 1024; 4096; 16384 ];
  t

let tab_cache_alloc_paths () =
  let t = Sim.Table.create
      ~title:"A10b - LLC misses while allocating+touching 4096 pages (report's comparison)"
      ~columns:[ "path"; "llc misses"; "l1 hits"; "total us" ]
  in
  let with_cache k = Physmem.Phys_mem.attach_cache (K.mem k)
      (Physmem.Cache_hier.create ~clock:(K.clock k) ~stats:(K.stats k) ()) in
  let pages = 4096 in
  let len = pages * Sim.Units.page_size in
  (* malloc path *)
  let k = kernel ~dram:(Sim.Units.gib 1) () in
  with_cache k;
  let p = K.create_process k () in
  let h = Heap.Malloc_sim.create k p in
  let tt =
    time_us k (fun () ->
        let va = Heap.Malloc_sim.malloc h ~bytes:len in
        touch_pages_kernel k p ~va ~len ~write:true)
  in
  Sim.Table.add_row t
    [ "malloc (demand faults)"; Sim.Table.cell_int (stat k "llc_miss");
      Sim.Table.cell_int (stat k "l1_hit"); Sim.Table.cell_float tt ];
  (* PMFS / FOM path *)
  let k2, fom = kernel_and_fom () in
  with_cache k2;
  let p2 = K.create_process k2 () in
  let tt2 =
    time_us k2 (fun () ->
        let r = F.alloc fom p2 ~len ~prot:Hw.Prot.rw () in
        touch_pages_fom fom p2 ~va:r.F.va ~len ~write:true)
  in
  Sim.Table.add_row t
    [ "pmfs file (FOM)"; Sim.Table.cell_int (stat k2 "llc_miss");
      Sim.Table.cell_int (stat k2 "l1_hit"); Sim.Table.cell_float tt2 ];
  t

(* A11: context switches without ASIDs flush the TLB; working sets must
   be refetched after every switch. *)
let tab_context_switch () =
  let t = Sim.Table.create
      ~title:"A11 - 2 processes ping-pong over 2MiB working sets, 50 switches (us)"
      ~columns:[ "variant"; "total us"; "tlb misses" ]
  in
  let run asids =
    let k = kernel ~dram:(Sim.Units.gib 1) () in
    let p1 = K.create_process k () in
    let p2 = K.create_process k () in
    let len = Sim.Units.mib 2 in
    let va1 = K.mmap_anon k p1 ~len ~prot:Hw.Prot.rw ~populate:true in
    let va2 = K.mmap_anon k p2 ~len ~prot:Hw.Prot.rw ~populate:true in
    (* Warm both. *)
    touch_pages_kernel k p1 ~va:va1 ~len ~write:false;
    touch_pages_kernel k p2 ~va:va2 ~len ~write:false;
    let m0 = stat k "tlb_miss" in
    let tt =
      time_us k (fun () ->
          for _ = 1 to 25 do
            K.context_switch k ~from_:p1 ~to_:p2 ~asids;
            touch_pages_kernel k p2 ~va:va2 ~len ~write:false;
            K.context_switch k ~from_:p2 ~to_:p1 ~asids;
            touch_pages_kernel k p1 ~va:va1 ~len ~write:false
          done)
    in
    (tt, stat k "tlb_miss" - m0)
  in
  let t_flush, m_flush = run false in
  Sim.Table.add_row t
    [ "no ASIDs (flush per switch)"; Sim.Table.cell_float t_flush; Sim.Table.cell_int m_flush ];
  let t_asid, m_asid = run true in
  Sim.Table.add_row t
    [ "ASIDs (entries survive)"; Sim.Table.cell_float t_asid; Sim.Table.cell_int m_asid ];
  t

(* A12: shootdown cost scales with core count; per-page unmap multiplies
   it by the page count, range unmap pays it once. *)
let tab_smp_shootdown () =
  let t = Sim.Table.create ~title:"A12 - unmap 64MiB on an N-core machine (us)"
      ~columns:[ "cores"; "per-page unmap"; "range unmap"; "ratio" ]
  in
  List.iter
    (fun cores ->
      let cm = { Sim.Cost_model.default with Sim.Cost_model.cores } in
      let cfg = { (Bench_env.config ~nvm:(Sim.Units.gib 2) ()) with Os.Kernel.cost_model = cm } in
      let k = K.create ~config:cfg () in
      let fom = F.create k () in
      let p = K.create_process k ~range_translations:true () in
      let len = Sim.Units.mib 64 in
      let r1 = F.alloc fom p ~strategy:F.Per_page ~len ~prot:Hw.Prot.rw () in
      (* Warm the TLB so the shootdowns have entries to kill. *)
      touch_pages_fom fom p ~va:r1.F.va ~len ~write:false;
      let t_pp = time_us k (fun () -> F.free fom p r1) in
      let r2 = F.alloc fom p ~strategy:F.Range_translation ~len ~prot:Hw.Prot.rw () in
      touch_pages_fom fom p ~va:r2.F.va ~len ~write:false;
      let t_rt = time_us k (fun () -> F.free fom p r2) in
      Sim.Table.add_row t
        [
          Sim.Table.cell_int cores;
          Sim.Table.cell_float t_pp;
          Sim.Table.cell_float t_rt;
          Sim.Table.cell_float ~dp:0 (t_pp /. t_rt);
        ])
    [ 1; 4; 16; 64 ];
  t

(* A13: madvise heap trimming — the per-page release path FOM retires. *)
let tab_madvise () =
  let t = Sim.Table.create ~title:"A13 - releasing idle heap memory (us)"
      ~columns:[ "variant"; "release us"; "pages released" ]
  in
  (* Baseline: churn leaves free blocks; trim madvises them away. *)
  let k = kernel ~dram:(Sim.Units.gib 1) () in
  let p = K.create_process k () in
  let h = Heap.Malloc_sim.create k p in
  let blocks = List.init 512 (fun _ -> Heap.Malloc_sim.malloc h ~bytes:(Sim.Units.kib 16)) in
  List.iter (fun va -> touch_pages_kernel k p ~va ~len:(Sim.Units.kib 16) ~write:true) blocks;
  List.iter (Heap.Malloc_sim.free h) blocks;
  let released = ref 0 in
  let t_trim = time_us k (fun () -> released := Heap.Malloc_sim.trim h) in
  Sim.Table.add_row t
    [ "malloc + madvise trim"; Sim.Table.cell_float t_trim; Sim.Table.cell_int !released ];
  (* FOM: freeing the file releases everything wholesale. *)
  let k2, fom = kernel_and_fom () in
  let p2 = K.create_process k2 () in
  let r = F.alloc fom p2 ~len:(512 * Sim.Units.kib 16) ~prot:Hw.Prot.rw () in
  touch_pages_fom fom p2 ~va:r.F.va ~len:r.F.len ~write:true;
  let t_free = time_us k2 (fun () -> F.free fom p2 r) in
  Sim.Table.add_row t
    [ "FOM whole-file free"; Sim.Table.cell_float t_free;
      Sim.Table.cell_int (512 * Sim.Units.kib 16 / Sim.Units.page_size) ];
  t

(* A14: fragmentation is the enemy of O(1). A fragmented FS splits files
   across extents -> more range entries, more grafted masters' extents;
   defragmentation restores one-extent files. *)
let tab_fragmentation () =
  let t = Sim.Table.create
      ~title:"A14 - FS fragmentation vs range entries (8MiB file), and defrag"
      ~columns:[ "state"; "avg extents/file"; "entries for 8MiB"; "map us" ]
  in
  let k, fom = kernel_and_fom ~nvm:(Sim.Units.mib 512) () in
  let fs = F.fs fom in
  let p = K.create_process k ~range_translations:true () in
  let rt = Option.get (Os.Address_space.range_table p.Os.Proc.aspace) in
  let measure state =
    let e0 = Hw.Range_table.entry_count rt in
    let tt =
      time_us k (fun () ->
          ignore
            (F.alloc fom p ~name:("/probe-" ^ state) ~strategy:F.Range_translation
               ~len:(Sim.Units.mib 8) ~prot:Hw.Prot.rw ()))
    in
    Sim.Table.add_row t
      [
        state;
        Sim.Table.cell_float ~dp:2 (Fs.Memfs.average_extents_per_file fs);
        Sim.Table.cell_int (Hw.Range_table.entry_count rt - e0);
        Sim.Table.cell_float tt;
      ]
  in
  measure "fresh FS";
  (* Fragment: interleave two files' 128 KiB extents until the FS is
     completely full, then delete one — free space is now all 32-frame
     holes. *)
  let a = Fs.Memfs.create_file fs "/frag-a" ~persistence:Fs.Inode.Volatile in
  let b = Fs.Memfs.create_file fs "/frag-b" ~persistence:Fs.Inode.Volatile in
  (try
     while true do
       Fs.Memfs.extend fs a ~bytes_wanted:(Sim.Units.kib 128);
       Fs.Memfs.extend fs b ~bytes_wanted:(Sim.Units.kib 128)
     done
   with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  Fs.Memfs.unlink fs "/frag-b";
  measure "fragmented (holes of 128KiB)";
  (* The workload that fragmented the disk winds down (most of /frag-a is
     truncated away, merging holes into big runs); compaction can then
     restore one-extent files. *)
  Fs.Memfs.truncate fs a ~bytes:(Sim.Units.mib 8);
  ignore (Fs.Memfs.defragment fs ());
  measure "after defragment";
  t

(* A15: O(1) is about tails. Allocation latency distribution under churn:
   demand-paged malloc pays for sizes at touch time; FOM's cost is flat
   per operation class. *)
let tab_tail_latency () =
  let t = Sim.Table.create ~title:"A15 - alloc+touch latency distribution under churn (us)"
      ~columns:[ "backend"; "p50"; "p99"; "max"; "mean" ]
  in
  let trace =
    Wl.Churn.generate ~rng:(Sim.Rng.create ~seed:31) ~ops:600 ~max_bytes:(Sim.Units.mib 1) ()
  in
  let percentiles h =
    [
      Sim.Table.cell_float ~dp:1
        (Sim.Cost_model.cycles_to_us Sim.Cost_model.default (Sim.Histogram.percentile h 50.0));
      Sim.Table.cell_float ~dp:1
        (Sim.Cost_model.cycles_to_us Sim.Cost_model.default (Sim.Histogram.percentile h 99.0));
      Sim.Table.cell_float ~dp:1
        (Sim.Cost_model.cycles_to_us Sim.Cost_model.default (Sim.Histogram.max_value h));
      Sim.Table.cell_float ~dp:1
        (Sim.Cost_model.cycles_to_us Sim.Cost_model.default (int_of_float (Sim.Histogram.mean h)));
    ]
  in
  (* Baseline: malloc + touch per allocation. *)
  let k = kernel ~dram:(Sim.Units.gib 2) () in
  let p = K.create_process k () in
  let h = Heap.Malloc_sim.create k p in
  let hist = Sim.Histogram.create () in
  let clock = K.clock k in
  let sizes = Hashtbl.create 64 in
  List.iter
    (fun op ->
      match op with
      | Wl.Churn.Alloc { id; bytes } ->
        let before = Sim.Clock.now clock in
        let va = Heap.Malloc_sim.malloc h ~bytes in
        touch_pages_kernel k p ~va ~len:bytes ~write:true;
        Sim.Histogram.observe hist (Sim.Clock.elapsed clock ~since:before);
        Hashtbl.replace sizes id (va, bytes)
      | Wl.Churn.Free { id } ->
        let va, _ = Hashtbl.find sizes id in
        Heap.Malloc_sim.free h va;
        Hashtbl.remove sizes id
      | Wl.Churn.Touch _ -> ())
    trace;
  Sim.Table.add_row t ("malloc (demand)" :: percentiles hist);
  (* FOM. *)
  let k2, fom = kernel_and_fom () in
  let p2 = K.create_process k2 () in
  let fh = Heap.Fom_heap.create fom p2 () in
  let hist2 = Sim.Histogram.create () in
  let clock2 = K.clock k2 in
  let sizes2 = Hashtbl.create 64 in
  List.iter
    (fun op ->
      match op with
      | Wl.Churn.Alloc { id; bytes } ->
        let before = Sim.Clock.now clock2 in
        let va = Heap.Fom_heap.malloc fh ~bytes in
        touch_pages_fom fom p2 ~va ~len:bytes ~write:true;
        Sim.Histogram.observe hist2 (Sim.Clock.elapsed clock2 ~since:before);
        Hashtbl.replace sizes2 id va
      | Wl.Churn.Free { id } ->
        Heap.Fom_heap.free fh (Hashtbl.find sizes2 id);
        Hashtbl.remove sizes2 id
      | Wl.Churn.Touch _ -> ())
    trace;
  Sim.Table.add_row t ("FOM heap" :: percentiles hist2);
  t

(* A16: even the baseline's swap traffic can land in NVM. Throughput of
   reclaiming dirty pages under the two swap backings. *)
let tab_swap_backing () =
  let t = Sim.Table.create ~title:"A16 - evict 2048 dirty pages: swap device vs PMFS swapfile (us)"
      ~columns:[ "backing"; "evict us"; "per page us" ]
  in
  let run name backing =
    let cfg =
      { (Bench_env.config ~dram:(Sim.Units.gib 1) ~nvm:(Sim.Units.gib 1) ()) with
        Os.Kernel.swap_backing = backing }
    in
    let k = K.create ~config:cfg () in
    let p = K.create_process k () in
    let len = Sim.Units.mib 16 in
    let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
    touch_pages_kernel k p ~va ~len ~write:true;
    (* Age the pages once so the scan's second-chance pass evicts. *)
    ignore (Os.Reclaim.scan (K.reclaim k) ~target_frames:0);
    let frames = len / Sim.Units.page_size in
    let tt = time_us k (fun () -> ignore (Os.Reclaim.scan (K.reclaim k) ~target_frames:frames)) in
    Sim.Table.add_row t
      [ name; Sim.Table.cell_float tt; Sim.Table.cell_float ~dp:2 (tt /. float_of_int frames) ]
  in
  run "NVMe-class device" `Device;
  run "PMFS swapfile (NVM)" `Pmfs;
  t

(* A17: contiguity after churn. The paper: Linux "does not aggressively
   merge pages, so there may be contiguity present that is not available
   for use". Compare merging vs non-merging buddy and the FS extent
   allocator after identical alloc/free churn. *)
let tab_contiguity () =
  let t = Sim.Table.create
      ~title:"A17 - contiguity after churn: free 2MiB blocks available"
      ~columns:[ "allocator"; "free frames"; "free 2MiB blocks"; "largest run" ]
  in
  let rng_ops seed =
    (* A fixed random churn schedule of order-0..4 allocations. *)
    let rng = Sim.Rng.create ~seed in
    List.init 4000 (fun _ -> (Sim.Rng.int rng 5, Sim.Rng.int rng 3 = 0))
  in
  let churn_buddy ~merge =
    let mem =
      Physmem.Phys_mem.create ~clock:(Sim.Clock.create Sim.Cost_model.default)
        ~stats:(Sim.Stats.create ()) ~dram_bytes:(Sim.Units.mib 256) ~nvm_bytes:0 ()
    in
    let b = Alloc.Buddy.create ~mem ~first:0 ~count:(64 * 1024) ~merge () in
    let live = ref [] in
    List.iter
      (fun (order, free_one) ->
        (match Alloc.Buddy.alloc b ~order with
        | Some p -> live := (p, order) :: !live
        | None -> ());
        if free_one then
          match !live with
          | (p, o) :: rest ->
            Alloc.Buddy.free b p ~order:o;
            live := rest
          | [] -> ())
      (rng_ops 4242);
    (* Drain. *)
    List.iter (fun (p, o) -> Alloc.Buddy.free b p ~order:o) !live;
    let blocks = Alloc.Buddy.free_blocks_per_order b in
    let free_2m = ref 0 in
    for o = 9 to Alloc.Buddy.max_order b do
      free_2m := !free_2m + (blocks.(o) lsl (o - 9))
    done;
    let largest = match Alloc.Buddy.largest_free_order b with Some o -> 1 lsl o | None -> 0 in
    (Alloc.Buddy.free_frames_count b, !free_2m, largest)
  in
  let f1, b1, l1 = churn_buddy ~merge:true in
  Sim.Table.add_row t
    [ "buddy (merging)"; Sim.Table.cell_int f1; Sim.Table.cell_int b1; Sim.Table.cell_int l1 ];
  let f2, b2, l2 = churn_buddy ~merge:false in
  Sim.Table.add_row t
    [ "buddy (non-merging)"; Sim.Table.cell_int f2; Sim.Table.cell_int b2; Sim.Table.cell_int l2 ];
  (* Extent allocator under the same schedule (orders -> frame counts). *)
  let mem =
    Physmem.Phys_mem.create ~clock:(Sim.Clock.create Sim.Cost_model.default)
      ~stats:(Sim.Stats.create ()) ~dram_bytes:(Sim.Units.mib 256) ~nvm_bytes:0 ()
  in
  let e = Alloc.Extent_alloc.create ~mem ~first:0 ~count:(64 * 1024) ~policy:Alloc.Extent_alloc.First_fit in
  let live = ref [] in
  List.iter
    (fun (order, free_one) ->
      let frames = 1 lsl order in
      (match Alloc.Extent_alloc.alloc e ~frames with
      | Some p -> live := (p, frames) :: !live
      | None -> ());
      if free_one then
        match !live with
        | (p, n) :: rest ->
          Alloc.Extent_alloc.free e ~first:p ~frames:n;
          live := rest
        | [] -> ())
    (rng_ops 4242);
  List.iter (fun (p, n) -> Alloc.Extent_alloc.free e ~first:p ~frames:n) !live;
  Sim.Table.add_row t
    [
      "extent allocator (FS)";
      Sim.Table.cell_int (Alloc.Extent_alloc.free_frames e);
      Sim.Table.cell_int (Alloc.Extent_alloc.largest_free e / 512);
      Sim.Table.cell_int (Alloc.Extent_alloc.largest_free e);
    ];
  t

let run () =
  print_header "A1" "THP fixes contiguity after the fact; FOM extents are born contiguous.";
  Sim.Table.print (tab_thp ());
  print_header "A2" "With zeroing off the critical path, FOM allocation is near-O(1).";
  Sim.Table.print (tab_alloc_erase ());
  print_header "A3" "Graft windows grow with the file: GiB files need a couple of pointers.";
  Sim.Table.print (tab_graft_window ());
  print_header "A4" "Range-TLB capacity: how many live regions fit before misses appear.";
  Sim.Table.print (tab_range_tlb_capacity ());
  print_header "A5" "Page-TLB geometry: reach is entries x 4KiB; the scan never fits.";
  Sim.Table.print (tab_tlb_geometry ());
  print_header "A6" "Heap designs under one churn trace.";
  Sim.Table.print (tab_heaps ());
  print_header "A7" "fork does per-page CoW setup; FOM siblings map whole files.";
  Sim.Table.print (tab_fork ());
  print_header "A8" "Apps that still want swapping pay for it themselves (userfaultfd).";
  Sim.Table.print (tab_uswap ());
  print_header "A9" "The lost optimisation: VMA merging vs one file per allocation.";
  Sim.Table.print (tab_vma_merging ());
  print_header "A10" "Caches stay precious: working-set cliff, and the two allocation paths.";
  Sim.Table.print (tab_cache ());
  Sim.Table.print (tab_cache_alloc_paths ());
  print_header "A11" "Context switches without ASIDs flush the TLB every time.";
  Sim.Table.print (tab_context_switch ());
  print_header "A12" "Shootdowns scale with cores; whole-region unmap pays them once.";
  Sim.Table.print (tab_smp_shootdown ());
  print_header "A13" "Releasing idle heap memory: per-page madvise vs whole-file free.";
  Sim.Table.print (tab_madvise ());
  print_header "A14" "Fragmentation splits files into extents; defragmentation restores O(1).";
  Sim.Table.print (tab_fragmentation ());
  print_header "A15" "Predictable tails: allocation latency percentiles under churn.";
  Sim.Table.print (tab_tail_latency ());
  print_header "A16" "Swap media: the baseline's vestigial swap traffic, on NVMe vs in NVM.";
  Sim.Table.print (tab_swap_backing ());
  print_header "A17" "Contiguity after churn: non-merging buddies strand it; extents coalesce.";
  Sim.Table.print (tab_contiguity ())
