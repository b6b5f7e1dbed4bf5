(* End-to-end scenarios mirroring the paper's experiments: these check the
   *shapes* the benchmarks report (linear vs constant, who wins) so the
   bench harness cannot silently drift. *)
open Helpers
module K = Os.Kernel
module F = O1mem.Fom

let time_of k f =
  let clock = K.clock k in
  let before = Sim.Clock.now clock in
  f ();
  Sim.Clock.elapsed clock ~since:before

(* E1 shape: MAP_POPULATE mmap linear in size; demand mmap flat. *)
let test_fig1a_shape () =
  let run ~populate kb =
    let k = mk_kernel () in
    let p = K.create_process k () in
    let fs = K.tmpfs k in
    let ino = Fs.Memfs.create_file fs "/f" ~persistence:Fs.Inode.Volatile in
    Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.kib kb);
    time_of k (fun () ->
        ignore
          (K.mmap_file k p ~fs ~path:"/f" ~prot:Hw.Prot.r ~share:Os.Vma.Private ~populate ()))
  in
  let pop4 = run ~populate:true 4 and pop1024 = run ~populate:true 1024 in
  let dem4 = run ~populate:false 4 and dem1024 = run ~populate:false 1024 in
  (* The populate-only work (total minus the flat mmap base) is linear. *)
  check_bool "populate work linear in size" true (pop1024 - dem1024 > 40 * (pop4 - dem4));
  check_bool "populate visibly above demand at 1MB" true (pop1024 > 5 * dem1024);
  check_int "demand flat" dem4 dem1024;
  check_bool "demand mmap is ~8us" true
    (let us = Sim.Clock.us dem4 in
     us > 2.0 && us < 20.0)

(* E2 shape: touching one byte per page, demand faulting is >> populate. *)
let test_fig1b_shape () =
  let run ~populate kb =
    let k = mk_kernel () in
    let p = K.create_process k () in
    let fs = K.tmpfs k in
    let ino = Fs.Memfs.create_file fs "/f" ~persistence:Fs.Inode.Volatile in
    Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.kib kb);
    let va =
      K.mmap_file k p ~fs ~path:"/f" ~prot:Hw.Prot.r ~share:Os.Vma.Private ~populate ()
    in
    time_of k (fun () ->
        ignore
          (K.access_range k p ~va ~len:(Sim.Units.kib kb) ~write:false ~stride:Sim.Units.page_size))
  in
  let dem = run ~populate:false 1024 in
  let pop = run ~populate:true 1024 in
  check_bool "demand read >> populated read (paper: 50x)" true (dem > 10 * pop)

(* E3 shape: malloc vs PMFS file allocation within ~2x of each other. *)
let test_fig7_shape () =
  let pages = 256 in
  let len = pages * Sim.Units.page_size in
  (* malloc + touch every page *)
  let k = mk_kernel () in
  let p = K.create_process k () in
  let h = Heap.Malloc_sim.create k p in
  let t_malloc =
    time_of k (fun () ->
        let va = Heap.Malloc_sim.malloc h ~bytes:len in
        ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size))
  in
  (* PMFS file + map + touch every page *)
  let kernel, fom = mk_fom () in
  let proc = K.create_process kernel () in
  let t_pmfs =
    time_of kernel (fun () ->
        let r = F.alloc fom proc ~len ~prot:Hw.Prot.rw () in
        ignore (F.access_range fom proc ~va:r.F.va ~len ~write:true ~stride:Sim.Units.page_size))
  in
  check_bool "same ballpark (paper: little extra cost)" true
    (t_pmfs < 2 * t_malloc && t_malloc < 8 * t_pmfs)

(* E5 shape: mapping a shared file into N processes is O(1)-per-process
   with shared subtrees, linear per process in the baseline. *)
let test_fig3_shape () =
  let len = Sim.Units.mib 16 in
  (* Baseline: each process populates its own PTEs. *)
  let k = mk_kernel () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/shared" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:len;
  let baseline_per_proc =
    let p = K.create_process k () in
    time_of k (fun () ->
        ignore (K.mmap_file k p ~fs ~path:"/shared" ~prot:Hw.Prot.r ~share:Os.Vma.Shared ~populate:true ()))
  in
  (* FOM: graft the master subtree. *)
  let kernel, fom = mk_fom () in
  let p1 = K.create_process kernel () in
  ignore (F.alloc fom p1 ~name:"/shared" ~len ~prot:Hw.Prot.r ());
  let fom_per_proc =
    let p2 = K.create_process kernel () in
    time_of kernel (fun () -> ignore (F.map_path fom p2 "/shared"))
  in
  check_bool "grafting at least 10x cheaper" true (baseline_per_proc > 10 * fom_per_proc)

(* E7 shape: range TLB needs far fewer walk refs than page TLB on a
   sparse scan of a large region. *)
let test_fig9_shape () =
  (* 32 MiB: leaves room for the PMFS journal in the 64 MiB test FS. *)
  let len = Sim.Units.mib 32 in
  let kernel, fom = mk_fom () in
  let stats = K.stats kernel in
  (* Page-table process. *)
  let p_pt = K.create_process kernel () in
  let r_pt = F.alloc fom p_pt ~strategy:F.Per_page ~len ~prot:Hw.Prot.rw () in
  ignore (F.access_range fom p_pt ~va:r_pt.F.va ~len ~write:false ~stride:Sim.Units.page_size);
  let pt_walk_refs = Sim.Stats.get stats "walk_refs" in
  let pt_misses = Sim.Stats.get stats "tlb_miss" in
  F.free fom p_pt r_pt;
  (* Range-translation process. *)
  let p_rt = K.create_process kernel ~range_translations:true () in
  let r_rt = F.alloc fom p_rt ~strategy:F.Range_translation ~len ~prot:Hw.Prot.rw () in
  let walks_before = Sim.Stats.get stats "page_walks" in
  let range_walks_before = Sim.Stats.get stats "range_walks" in
  ignore (F.access_range fom p_rt ~va:r_rt.F.va ~len ~write:false ~stride:Sim.Units.page_size);
  check_int "no page walks at all" walks_before (Sim.Stats.get stats "page_walks");
  check_int "exactly one range walk" (range_walks_before + 1) (Sim.Stats.get stats "range_walks");
  check_bool "baseline page path misses a lot" true (pt_misses > 1000 && pt_walk_refs > 4000)

(* E8: read() of 16KB vs demand-mapped access, cold TLB. *)
let test_read_vs_mmap_claim () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/r" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file fs ino ~off:0 (String.make 16384 'y');
  let t_read = time_of k (fun () -> ignore (K.read_syscall k p ~fs ~ino ~off:0 ~len:16384)) in
  let va = K.mmap_file k p ~fs ~path:"/r" ~prot:Hw.Prot.r ~share:Os.Vma.Private ~populate:false () in
  (* Reading 16 KB through the mapping means touching every line of it,
     faulting and walking along the way. *)
  let t_mmap_demand =
    time_of k (fun () -> ignore (K.access_range k p ~va ~len:16384 ~write:false ~stride:64))
  in
  check_bool "read() beats demand-faulted mapped access" true (t_read < t_mmap_demand)

(* E12 shape: reclaiming N MiB via page scanning costs far more than
   deleting a discardable file. *)
let test_reclaim_shape () =
  let len = Sim.Units.mib 4 in
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  let t_scan =
    time_of k (fun () ->
        ignore (Os.Reclaim.scan (K.reclaim k) ~target_frames:(len / Sim.Units.page_size)))
  in
  let kernel, fom = mk_fom () in
  let d = O1mem.Discard.create ~fs:(F.fs fom) in
  O1mem.Discard.register_cache_file d ~path:"/cache" ~size:len;
  let t_discard = time_of kernel (fun () -> ignore (O1mem.Discard.pressure d ~needed_bytes:len)) in
  check_bool "file discard way cheaper than page scan" true (t_scan > 20 * t_discard)

(* E14 shape: end-to-end alloc+touch, FOM wins at large sizes. *)
let test_o1_headline () =
  let t_baseline len =
    let k = mk_kernel () in
    let p = K.create_process k () in
    time_of k (fun () ->
        let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
        ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size))
  in
  let t_fom len =
    let kernel, fom = mk_fom () in
    let proc = K.create_process kernel () in
    time_of kernel (fun () ->
        let r = F.alloc fom proc ~len ~prot:Hw.Prot.rw () in
        ignore (F.access_range fom proc ~va:r.F.va ~len ~write:true ~stride:Sim.Units.page_size))
  in
  let len = Sim.Units.mib 16 in
  check_bool "FOM beats demand paging end-to-end at 16 MiB" true (t_fom len < t_baseline len)

(* E16 shape: process launch with pre-created page tables is cheaper than
   baseline launch (touching all segments). *)
let test_launch_shape () =
  let code = Sim.Units.mib 2 and heap = Sim.Units.mib 4 and stack = Sim.Units.mib 1 in
  let k = mk_kernel () in
  let t_baseline =
    time_of k (fun () ->
        let p = K.create_process k () in
        let touch len =
          let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
          ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size)
        in
        touch code;
        touch heap;
        touch stack)
  in
  let kernel, fom = mk_fom () in
  (* Warm-up launch builds the code master; the measured launch reuses it. *)
  let p0, _ = F.launch fom ~code_bytes:code ~heap_bytes:heap ~stack_bytes:stack in
  F.exit_process fom p0;
  let t_fom =
    time_of kernel (fun () ->
        let p, regions = F.launch fom ~code_bytes:code ~heap_bytes:heap ~stack_bytes:stack in
        List.iter
          (fun (r : F.region) ->
            ignore
              (F.access_range fom p ~va:r.F.va ~len:r.F.len ~write:r.F.prot.Hw.Prot.write
                 ~stride:Sim.Units.page_size))
          regions)
  in
  check_bool "FOM launch cheaper than baseline" true (t_fom < t_baseline)

(* E13: metadata accounting across designs. *)
let test_metadata_accounting () =
  let k = mk_kernel () in
  (* struct page for the whole machine. *)
  let frames = Physmem.Phys_mem.total_frames (K.mem k) in
  check_int "64B per frame" (frames * 64) (Os.Page_meta.metadata_bytes (K.page_meta k));
  (* FS-side metadata for a 16 MiB file: inode + 1 extent + bitmap share. *)
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/big" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.mib 16);
  let node = Fs.Memfs.inode fs ino in
  check_bool "per-file metadata tiny vs struct page" true
    (Fs.Inode.metadata_bytes node * 100 < (Sim.Units.mib 16 / Sim.Units.page_size) * 64)

let suite =
  [
    Alcotest.test_case "E1: populate linear, demand flat" `Quick test_fig1a_shape;
    Alcotest.test_case "E2: demand read >> populated read" `Quick test_fig1b_shape;
    Alcotest.test_case "E3: malloc ~ PMFS allocation" `Quick test_fig7_shape;
    Alcotest.test_case "E5: shared-subtree map beats per-process PTEs" `Quick test_fig3_shape;
    Alcotest.test_case "E7: range TLB avoids page walks" `Quick test_fig9_shape;
    Alcotest.test_case "E8: read() vs cold mapped access" `Quick test_read_vs_mmap_claim;
    Alcotest.test_case "E12: discard beats page scanning" `Quick test_reclaim_shape;
    Alcotest.test_case "E14: FOM wins end-to-end" `Quick test_o1_headline;
    Alcotest.test_case "E16: FOM launch cheaper" `Quick test_launch_shape;
    Alcotest.test_case "E13: metadata accounting" `Quick test_metadata_accounting;
  ]
