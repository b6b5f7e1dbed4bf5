open Helpers
module F = O1mem.Fom
module K = Os.Kernel

let mk ?strategy () =
  let kernel, fom = mk_fom ?strategy () in
  let proc = K.create_process kernel ~range_translations:true () in
  (kernel, fom, proc)

let test_alloc_creates_file () =
  let _, fom, proc = mk () in
  let r = F.alloc fom proc ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
  check_bool "temp file" true r.F.temp;
  check_bool "file exists" true (Fs.Memfs.lookup (F.fs fom) r.F.path = Some r.F.ino);
  check_int "length page-rounded" (Sim.Units.kib 64) r.F.len;
  check_bool "strategy default" true (r.F.strategy = F.Shared_subtree)

let test_alloc_named_persistent () =
  let _, fom, proc = mk () in
  let r = F.alloc fom proc ~name:"/pers" ~len:4096 ~prot:Hw.Prot.rw () in
  check_bool "not temp" false r.F.temp;
  let node = Fs.Memfs.inode (F.fs fom) r.F.ino in
  check_bool "persistent by default when named" true
    (node.Fs.Inode.persistence = Fs.Inode.Persistent)

let test_access_never_faults () =
  let kernel, fom, proc = mk () in
  let r = F.alloc fom proc ~len:(Sim.Units.mib 1) ~prot:Hw.Prot.rw () in
  let n = F.access_range fom proc ~va:r.F.va ~len:r.F.len ~write:true ~stride:Sim.Units.page_size in
  check_int "256 touches" 256 n;
  check_int "zero page faults, ever" 0 (Sim.Stats.get (K.stats kernel) "page_fault")

(* A TLB hit through [F.access] allocates nothing: its span is the
   closure-free form. A warmed hit's words must stay within 1.25x of what
   it measured when this held, which is the reading's own Gc record
   spread over the calls; a closure per span took 7.00. *)
let test_access_hit_allocates_nothing () =
  let kernel, fom = mk_fom () in
  let proc = K.create_process kernel () in
  let r = F.alloc fom proc ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw () in
  F.access fom proc ~va:r.F.va ~write:true;
  let calls = 1024 and hits = Sim.Stats.get (K.stats kernel) "tlb_hit" in
  let words = words_per_call calls (fun _ -> F.access fom proc ~va:r.F.va ~write:true) in
  check_int "every access hits the TLB" calls (Sim.Stats.get (K.stats kernel) "tlb_hit" - hits);
  check_bool (Printf.sprintf "%.4f words per hit <= 1.25 x 0.025" words) true (words <= 1.25 *. 0.025)

let test_each_strategy_translates () =
  List.iter
    (fun strategy ->
      let _, fom, proc = mk () in
      let r = F.alloc fom proc ~strategy ~len:(Sim.Units.kib 512) ~prot:Hw.Prot.rw () in
      ignore (F.access_range fom proc ~va:r.F.va ~len:r.F.len ~write:true ~stride:Sim.Units.page_size);
      F.access fom proc ~va:(r.F.va + r.F.len - 1) ~write:false)
    [ F.Per_page; F.Huge_pages; F.Shared_subtree; F.Range_translation ]

let test_out_of_region_segfaults () =
  let _, fom, proc = mk () in
  let r = F.alloc fom proc ~len:4096 ~prot:Hw.Prot.rw () in
  Alcotest.check_raises "past end" (Os.Fault.Segfault (r.F.va + Sim.Units.huge_2m)) (fun () ->
      F.access fom proc ~va:(r.F.va + Sim.Units.huge_2m) ~write:false)

let test_whole_file_protection () =
  let _, fom, proc = mk () in
  let r = F.alloc fom proc ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
  F.access fom proc ~va:r.F.va ~write:true;
  let r = F.protect fom proc r ~prot:Hw.Prot.r in
  Alcotest.check_raises "write now denied" (Os.Fault.Segfault r.F.va) (fun () ->
      F.access fom proc ~va:r.F.va ~write:true);
  F.access fom proc ~va:r.F.va ~write:false

let test_unmap_then_free () =
  let _, fom, proc = mk () in
  let fs = F.fs fom in
  let free0 = Fs.Memfs.free_bytes fs in
  let r = F.alloc fom proc ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
  check_bool "space used" true (Fs.Memfs.free_bytes fs < free0);
  F.free fom proc r;
  check_int "space back after free" free0 (Fs.Memfs.free_bytes fs);
  check_bool "region gone" true (F.region_of fom proc ~va:r.F.va = None);
  Alcotest.check_raises "access after free" (Os.Fault.Segfault r.F.va) (fun () ->
      F.access fom proc ~va:r.F.va ~write:false)

let test_named_file_survives_unmap () =
  let _, fom, proc = mk () in
  let fs = F.fs fom in
  let r = F.alloc fom proc ~name:"/data" ~len:4096 ~prot:Hw.Prot.rw () in
  F.free fom proc r;
  check_bool "named file still there" true (Fs.Memfs.lookup fs "/data" <> None)

let test_shared_subtree_sharing_across_processes () =
  let kernel, fom, p1 = mk () in
  let p2 = K.create_process kernel () in
  let r1 =
    F.alloc fom p1 ~name:"/shared" ~strategy:F.Shared_subtree ~len:(Sim.Units.mib 8)
      ~prot:Hw.Prot.rw ()
  in
  (* Write through p1, read the same physical bytes through p2. *)
  F.access fom p1 ~va:r1.F.va ~write:true;
  let nodes_before = Hw.Page_table.node_count (Os.Address_space.page_table p2.Os.Proc.aspace) in
  let pte_before = Sim.Stats.get (K.stats kernel) "pte_write" in
  let r2 = F.map_path fom p2 ~strategy:F.Shared_subtree "/shared" in
  let pte_after = Sim.Stats.get (K.stats kernel) "pte_write" in
  (* Mapping 8 MiB = 2048 pages took only ~4 graft pointer writes. *)
  check_bool "grafts, not per-page PTEs" true (pte_after - pte_before < 32);
  check_bool "p2 gained few nodes" true
    (Hw.Page_table.node_count (Os.Address_space.page_table p2.Os.Proc.aspace) - nodes_before <= 4);
  (* Same physical translation in both processes. *)
  let pa1 =
    match Hw.Page_table.lookup (Os.Address_space.page_table p1.Os.Proc.aspace) ~va:r1.F.va with
    | Some (pa, _) -> pa
    | None -> Alcotest.fail "p1 unmapped"
  in
  let pa2 =
    match Hw.Page_table.lookup (Os.Address_space.page_table p2.Os.Proc.aspace) ~va:r2.F.va with
    | Some (pa, _) -> pa
    | None -> Alcotest.fail "p2 unmapped"
  in
  check_int "same physical page" pa1 pa2

let test_master_reused_across_maps () =
  let kernel, fom, p1 = mk () in
  ignore (F.alloc fom p1 ~name:"/lib" ~len:(Sim.Units.mib 4) ~prot:Hw.Prot.rw ());
  check_int "one master" 1 (O1mem.Shared_pt.master_count (F.shared_pt fom));
  let p2 = K.create_process kernel () in
  ignore (F.map_path fom p2 "/lib");
  check_int "still one master" 1 (O1mem.Shared_pt.master_count (F.shared_pt fom))

let test_range_translation_entries () =
  let _, fom, proc = mk () in
  let rt = Option.get (Os.Address_space.range_table proc.Os.Proc.aspace) in
  let r =
    F.alloc fom proc ~strategy:F.Range_translation ~len:(Sim.Units.mib 16) ~prot:Hw.Prot.rw ()
  in
  (* One extent -> one entry, regardless of 16 MiB size. *)
  check_int "one range entry" 1 (Hw.Range_table.entry_count rt);
  F.access fom proc ~va:(r.F.va + Sim.Units.mib 8) ~write:true;
  F.free fom proc r;
  check_int "entry removed at unmap" 0 (Hw.Range_table.entry_count rt)

let test_pbm_same_va_everywhere () =
  let kernel, fom, _ = mk () in
  let pbm = O1mem.Pbm.create kernel in
  let p1 = K.create_process kernel () in
  let p2 = K.create_process kernel () in
  (* Carve a physical extent via the FOM file system. *)
  let fs = F.fs fom in
  let ino = Fs.Memfs.create_file fs "/pbm-backing" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.kib 64);
  let e = List.hd (Fs.Memfs.file_extents fs ino) in
  let va = O1mem.Pbm.map_region pbm ~first:e.Fs.Extent.start ~count:e.Fs.Extent.count ~prot:Hw.Prot.rw in
  check_int "va derived from pa" (O1mem.Pbm.va_of_addr (Physmem.Frame.to_addr e.Fs.Extent.start)) va;
  O1mem.Pbm.attach pbm p1;
  O1mem.Pbm.attach pbm p2;
  let lookup p =
    match Hw.Page_table.lookup (Os.Address_space.page_table p.Os.Proc.aspace) ~va with
    | Some (pa, _) -> pa
    | None -> Alcotest.fail "pbm not visible"
  in
  check_int "identical translation in p1 and p2" (lookup p1) (lookup p2);
  check_int "va maps to its own pa" (Physmem.Frame.to_addr e.Fs.Extent.start) (lookup p1);
  (* Attach is O(1): one subtree share per process. *)
  check_int "two attaches" 2 (Sim.Stats.get (K.stats kernel) "pbm_attach");
  O1mem.Pbm.detach pbm p2;
  check_bool "p2 detached" true
    (Hw.Page_table.lookup (Os.Address_space.page_table p2.Os.Proc.aspace) ~va = None);
  check_int "p1 still attached" (Physmem.Frame.to_addr e.Fs.Extent.start) (lookup p1)

let test_pbm_double_attach_rejected () =
  let kernel, _, proc = mk () in
  let pbm = O1mem.Pbm.create kernel in
  O1mem.Pbm.attach pbm proc;
  Alcotest.check_raises "double attach" (Invalid_argument "Pbm.attach: already attached")
    (fun () -> O1mem.Pbm.attach pbm proc)

let test_discardable_cache_reclaim () =
  let kernel, fom, _ = mk () in
  ignore kernel;
  let d = O1mem.Discard.create ~fs:(F.fs fom) in
  O1mem.Discard.register_cache_file d ~path:"/cache-a" ~size:(Sim.Units.kib 64);
  O1mem.Discard.register_cache_file d ~path:"/cache-b" ~size:(Sim.Units.kib 64);
  Sim.Clock.charge (K.clock kernel) 5000;
  O1mem.Discard.touch d ~path:"/cache-b";
  let freed = O1mem.Discard.pressure d ~needed_bytes:(Sim.Units.kib 64) in
  check_int "freed one file" (Sim.Units.kib 64) freed;
  check_bool "cold cache gone" false (O1mem.Discard.still_present d ~path:"/cache-a");
  check_bool "hot cache kept" true (O1mem.Discard.still_present d ~path:"/cache-b")

let test_erase_strategies () =
  let mem = mk_mem () in
  let fill first count =
    for pfn = first to first + count - 1 do
      Physmem.Phys_mem.write mem ~addr:(Physmem.Frame.to_addr pfn) "dirt"
    done
  in
  let cost strategy first count =
    let e = O1mem.Erase.create ~mem ~strategy in
    fill first count;
    O1mem.Erase.critical_path_cycles e (fun () -> O1mem.Erase.erase_extent e ~first ~count)
  in
  let eager_1 = cost O1mem.Erase.Eager 0 1 in
  let eager_64 = cost O1mem.Erase.Eager 64 64 in
  check_bool "eager is linear" true (eager_64 >= 32 * eager_1);
  let bg_1 = cost O1mem.Erase.Background 128 1 in
  let bg_64 = cost O1mem.Erase.Background 192 64 in
  check_int "background critical path O(1)" bg_1 bg_64;
  let bulk_1 = cost O1mem.Erase.Bulk_device 256 1 in
  let bulk_64 = cost O1mem.Erase.Bulk_device 320 64 in
  check_int "bulk erase O(1)" bulk_1 bulk_64

let test_erase_background_completes () =
  let mem = mk_mem () in
  let e = O1mem.Erase.create ~mem ~strategy:O1mem.Erase.Background in
  Physmem.Phys_mem.write mem ~addr:0 "x";
  O1mem.Erase.erase_extent e ~first:0 ~count:4;
  check_bool "not yet zero" false (Physmem.Phys_mem.frame_is_zero mem 0);
  check_int "drained" 4 (O1mem.Erase.drain_background e ~budget_frames:10);
  check_bool "now zero" true (Physmem.Phys_mem.frame_is_zero mem 0)

let test_crash_recovery_persistence () =
  let _, fom, proc = mk () in
  let fs = F.fs fom in
  (* One persistent named region with data; one volatile temp region. *)
  let keep = F.alloc fom proc ~name:"/keep" ~len:4096 ~prot:Hw.Prot.rw () in
  Fs.Memfs.write_file fs keep.F.ino ~off:0 "still here";
  let lose = F.alloc fom proc ~len:4096 ~prot:Hw.Prot.rw () in
  let lose_path = lose.F.path in
  let report = O1mem.Persistence.crash_and_recover fom in
  check_bool "scanned files" true (report.O1mem.Persistence.files_scanned >= 2);
  check_bool "persistent survived" true (Fs.Memfs.lookup fs "/keep" <> None);
  check_bool "volatile deleted" true (Fs.Memfs.lookup fs lose_path = None);
  let ino = Option.get (Fs.Memfs.lookup fs "/keep") in
  check_string "data survived" "still here" (Bytes.to_string (Fs.Memfs.read_file fs ino ~off:0 ~len:10))

(* A crash gives back a tmpfs file's frames: tmpfs lived in DRAM, so its
   space bitmap and quota empty with its namespace. *)
let test_crash_frees_tmpfs () =
  let kernel, fom, _ = mk () in
  let tmpfs = Os.Kernel.tmpfs kernel in
  let ino = Fs.Memfs.create_file tmpfs "/scratch" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file tmpfs ino ~off:0 (String.make (Sim.Units.kib 64) 't');
  check_int "64 KiB in use" (Sim.Units.kib 64) (Fs.Memfs.used_bytes tmpfs);
  ignore (O1mem.Persistence.crash_and_recover fom);
  check_int "no tmpfs space in use" 0 (Fs.Memfs.used_bytes tmpfs);
  check_int "no tmpfs quota held" 0 (Fs.Memfs.quota_used_frames tmpfs);
  Alcotest.(check (list string)) "clean" []
    (List.map Os.Check.violation_to_string (Os.Check.run kernel))

let test_masters_survive_crash_for_persistent_files () =
  let _, fom, proc = mk () in
  ignore (F.alloc fom proc ~name:"/code" ~len:(Sim.Units.mib 2) ~prot:Hw.Prot.rx ());
  check_int "master built" 1 (O1mem.Shared_pt.master_count (F.shared_pt fom));
  let report = O1mem.Persistence.crash_and_recover fom in
  check_int "master kept (pre-created PT reusable)" 1 report.O1mem.Persistence.masters_kept

let test_launch_and_exit () =
  let kernel, fom, _ = mk () in
  let proc, regions =
    F.launch fom ~code_bytes:(Sim.Units.kib 64) ~heap_bytes:(Sim.Units.mib 1)
      ~stack_bytes:(Sim.Units.kib 256)
  in
  check_int "three segments" 3 (List.length regions);
  List.iter
    (fun (r : F.region) -> F.access fom proc ~va:r.F.va ~write:(r.F.prot.Hw.Prot.write))
    regions;
  (* Second launch reuses the code file's master: only heap and stack
     masters are built anew. *)
  let built1 = Sim.Stats.get (K.stats kernel) "fom_master_built" in
  let proc2, _ = F.launch fom ~code_bytes:(Sim.Units.kib 64) ~heap_bytes:(Sim.Units.mib 1)
      ~stack_bytes:(Sim.Units.kib 256)
  in
  check_int "code master reused" (built1 + 2) (Sim.Stats.get (K.stats kernel) "fom_master_built");
  F.exit_process fom proc;
  F.exit_process fom proc2;
  check_int "only the fixture process remains" 1 (K.process_count kernel)

let test_fom_no_per_page_metadata_updates () =
  let kernel, fom, proc = mk () in
  let before = Sim.Stats.get (K.stats kernel) "struct_page_update" in
  let r = F.alloc fom proc ~len:(Sim.Units.mib 2) ~prot:Hw.Prot.rw () in
  ignore (F.access_range fom proc ~va:r.F.va ~len:r.F.len ~write:true ~stride:Sim.Units.page_size);
  check_int "FOM path never touches struct page" before
    (Sim.Stats.get (K.stats kernel) "struct_page_update")

let prop_fom_alloc_free_conserves_space =
  qtest "fom alloc/free conserves FS space" ~count:30
    QCheck2.Gen.(list_size (int_range 1 8) (int_range 1 64))
    (fun sizes_kib ->
      let _, fom, proc = mk () in
      let fs = F.fs fom in
      let free0 = Fs.Memfs.free_bytes fs in
      let regions =
        List.map (fun kib -> F.alloc fom proc ~len:(Sim.Units.kib kib) ~prot:Hw.Prot.rw ()) sizes_kib
      in
      List.iter (fun r -> F.free fom proc r) regions;
      Fs.Memfs.free_bytes fs = free0)

let prop_fom_data_integrity =
  qtest "bytes written through FOM mappings read back" ~count:30
    QCheck2.Gen.(pair (int_range 0 60) (string_size ~gen:printable (int_range 1 50)))
    (fun (page, data) ->
      let kernel, fom, proc = mk () in
      let r = F.alloc fom proc ~len:(Sim.Units.kib 256) ~prot:Hw.Prot.rw () in
      let va = r.F.va + (page * Sim.Units.page_size) in
      (* Resolve and write physically, then read via the file API. *)
      match Hw.Page_table.lookup (Os.Address_space.page_table proc.Os.Proc.aspace) ~va with
      | None -> false
      | Some (pa, _) ->
        Physmem.Phys_mem.write (K.mem kernel) ~addr:pa data;
        let got =
          Fs.Memfs.read_file (F.fs fom) r.F.ino ~off:(page * Sim.Units.page_size)
            ~len:(String.length data)
        in
        Bytes.to_string got = data)

let test_smaps () =
  let _, fom, proc = mk () in
  let r = F.alloc fom proc ~name:"/data" ~len:(Sim.Units.mib 4) ~prot:Hw.Prot.rw () in
  ignore (F.alloc fom proc ~strategy:F.Range_translation ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.r ());
  let out = F.smaps fom proc in
  check_bool "lists named region" true (Helpers.contains ~needle:"/data" out);
  check_bool "lists strategy" true (Helpers.contains ~needle:"shared-subtree" out);
  check_bool "lists range region" true (Helpers.contains ~needle:"range-translation" out);
  check_bool "totals" true (Helpers.contains ~needle:"regions" out);
  ignore r

(* 2,000 rounds of alloc, touch (a write to the first page) and free of
   64 KiB under every strategy end with the pool's free frames where they
   started: pruned page-table nodes and dropped masters go back to the
   kernel. *)
let test_alloc_free_loop_keeps_frames () =
  (* A 64-entry TLB: every unmap scans the TLB, and frames do not care. *)
  let config =
    {
      small_config with
      K.dram_bytes = Sim.Units.mib 16;
      nvm_bytes = Sim.Units.mib 16;
      tlb_sets = 16;
      tlb_ways = 4;
    }
  in
  List.iter
    (fun strategy ->
      let kernel, fom = mk_fom ~config ~strategy () in
      let proc = K.create_process kernel ~range_translations:true () in
      let before = pooled kernel in
      for _ = 1 to 2_000 do
        let r = F.alloc fom proc ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
        F.access fom proc ~va:r.F.va ~write:true;
        F.free fom proc r
      done;
      let name = F.strategy_name strategy in
      check_int (name ^ ": free frames back where they started") before (pooled kernel);
      Alcotest.(check (list string))
        (name ^ ": invariants hold") []
        (List.map Os.Check.violation_to_string (Os.Check.run kernel)))
    [ F.Per_page; F.Huge_pages; F.Shared_subtree; F.Range_translation ]

(* A grow the file system cannot back fails with ENOSPC and leaves the
   region mapped and its file as they were. *)
let test_failed_grow_changes_nothing () =
  let _, fom, proc = mk () in
  let r = F.alloc fom proc ~name:"/g" ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
  (match F.grow fom proc r ~new_len:(Sim.Units.gib 1) with
  | _ -> Alcotest.fail "a 1 GiB grow on a 64 MiB file system succeeded"
  | exception Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  check_bool "region still mapped" true
    (List.map (fun x -> x.F.va) (F.regions_of fom proc) = [ r.F.va ]);
  F.access fom proc ~va:r.F.va ~write:true;
  check_int "file unchanged" r.F.len (Fs.Memfs.inode (F.fs fom) r.F.ino).Fs.Inode.size;
  F.free fom proc r;
  check_int "file closed" 0 (Fs.Memfs.inode (F.fs fom) r.F.ino).Fs.Inode.refs

(* The record a caller kept from before a protect still frees the region
   it names: the region is regrafted from a new master, and both masters
   give their frames back. *)
let test_stale_record_frees_region () =
  let kernel, fom, proc = mk () in
  let before = pooled kernel in
  let r = F.alloc fom proc ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
  ignore (F.protect fom proc r ~prot:Hw.Prot.r);
  F.free fom proc r;
  check_int "free frames back where they started" before (pooled kernel);
  check_bool "no region left" true (F.regions_of fom proc = [])

(* --- Model test: FOM against a pure model of files and regions ------- *)

(* What every file should hold and grant, and what every process should
   have mapped. A region is whole-file, so it reads its file from offset
   0; temporaries are the unnamed files [alloc] makes. *)
type mfile = { mutable data : Bytes.t; mutable fprot : Hw.Prot.t; persistent : bool }

(* [r] is the handle FOM returned; the other fields are the model's. *)
type mregion = { r : F.region; file : mfile; len : int; prot : Hw.Prot.t; strategy : F.strategy }

type world = {
  k : K.t;
  fom : F.t;
  procs : Os.Proc.t array;
  regions : mregion list array; (* per process slot, live ones *)
  stale : F.region list array; (* per process slot, ones it unmapped *)
  files : (string, mfile) Hashtbl.t;
}

let model_page = Sim.Units.page_size
let prots = [| Hw.Prot.r; Hw.Prot.rw; Hw.Prot.rx; Hw.Prot.rwx |]
let strategies = [| F.Per_page; F.Huge_pages; F.Shared_subtree; F.Range_translation |]
let fname i = Printf.sprintf "/f%d" i

let new_proc w = K.create_process w.k ~range_translations:true ()

let expect errno what f =
  match f () with
  | _ ->
    QCheck2.Test.fail_reportf "%s succeeded; the model expects %s" what (Sim.Errno.to_string errno)
  | exception Sim.Errno.Error (e, _) when e = errno -> ()

(* A region of slot [s], picked by [i]; [None] when it has none. *)
let pick w s i =
  match w.regions.(s) with [] -> None | rs -> Some (List.nth rs (i mod List.length rs))

let replace w s (old : mregion) (m : mregion) =
  w.regions.(s) <- List.map (fun x -> if x == old then m else x) w.regions.(s)

let remove w s (m : mregion) =
  w.regions.(s) <- List.filter (fun x -> x != m) w.regions.(s);
  w.stale.(s) <- m.r :: w.stale.(s)

let pa_of w s va =
  let mmu = Os.Address_space.mmu w.procs.(s).Os.Proc.aspace in
  match Hw.Mmu.translate mmu ~va ~write:false ~exec:false with
  | Ok pa -> pa
  | Error _ -> QCheck2.Test.fail_reportf "slot %d va 0x%x: no translation" s va

let fom_step w (op, s, a, b) =
  let p = w.procs.(s) in
  match op with
  | 0 ->
    (* alloc: named /f0../f2 (EEXIST when taken) or a temporary; 0 pages is EINVAL *)
    let name = if a mod 4 = 3 then None else Some (fname (a mod 4)) in
    let len = b mod 9 * model_page and prot = prots.(a / 4 mod 4) in
    let strategy = strategies.(b / 9 mod 4) in
    if len = 0 then
      expect Sim.Errno.EINVAL "alloc of 0 bytes" (fun () -> F.alloc w.fom p ?name ~len ~prot ())
    else if Option.fold ~none:false ~some:(Hashtbl.mem w.files) name then
      expect Sim.Errno.EEXIST "alloc onto a taken name" (fun () ->
          F.alloc w.fom p ?name ~len ~prot ())
    else begin
      let r = F.alloc w.fom p ?name ~strategy ~len ~prot () in
      let file = { data = Bytes.make len '\000'; fprot = prot; persistent = name <> None } in
      Hashtbl.replace w.files r.F.path file;
      w.regions.(s) <- w.regions.(s) @ [ { r; file; len; prot; strategy } ]
    end
  | 1 -> (
    (* map_path: /f3 never exists (ENOENT); a wider protection is EACCES *)
    let path = fname (a mod 4) and strategy = strategies.(b mod 4) in
    let prot = if b / 4 mod 5 = 4 then None else Some prots.(b / 4 mod 5) in
    match Hashtbl.find_opt w.files path with
    | None ->
      expect Sim.Errno.ENOENT "map of a missing file" (fun () ->
          F.map_path w.fom p ?prot ~strategy path)
    | Some file ->
      if not (Hw.Prot.subset (Option.value prot ~default:file.fprot) ~of_:file.fprot) then
        expect Sim.Errno.EACCES "map wider than the file" (fun () ->
            F.map_path w.fom p ?prot ~strategy path)
      else
        let r = F.map_path w.fom p ?prot ~strategy path in
        let prot = Option.value prot ~default:file.fprot and len = Bytes.length file.data in
        w.regions.(s) <- w.regions.(s) @ [ { r; file; len; prot; strategy } ])
  | 2 ->
    Option.iter
      (fun m ->
        let prot = prots.(b mod 4) in
        (* The region takes the file's current length, which another
           process may have grown. *)
        let r = F.protect w.fom p m.r ~prot in
        m.file.fprot <- prot;
        replace w s m { m with r; prot; len = Bytes.length m.file.data })
      (pick w s a)
  | 3 ->
    (* grow by 0..3 pages; 0 is EINVAL. The region then maps the whole,
       longer file. *)
    Option.iter
      (fun m ->
        let extra = b mod 4 * model_page in
        let new_len = m.r.F.len + extra in
        if extra = 0 then
          expect Sim.Errno.EINVAL "grow to the same length" (fun () -> F.grow w.fom p m.r ~new_len)
        else begin
          let r = F.grow w.fom p m.r ~new_len in
          m.file.data <- Bytes.cat m.file.data (Bytes.make extra '\000');
          replace w s m { m with r; len = Bytes.length m.file.data }
        end)
      (pick w s a)
  | 4 ->
    (* a write through the mapping; a read-only one segfaults *)
    Option.iter
      (fun m ->
        let off = b mod m.r.F.len in
        let va = m.r.F.va + off in
        if not m.r.F.prot.Hw.Prot.write then (
          match F.access w.fom p ~va ~write:true with
          | () -> QCheck2.Test.fail_reportf "write to a read-only region succeeded"
          | exception Os.Fault.Segfault _ -> ())
        else begin
          let c = Char.chr (Char.code 'a' + (b mod 26)) in
          F.access w.fom p ~va ~write:true;
          Physmem.Phys_mem.write_byte (K.mem w.k) (pa_of w s va) c;
          Bytes.set m.file.data off c
        end)
      (pick w s a)
  | 5 ->
    Option.iter
      (fun m ->
        let off = b mod m.r.F.len in
        let va = m.r.F.va + off in
        F.access w.fom p ~va ~write:false;
        let got = Bytes.get (Physmem.Phys_mem.read (K.mem w.k) ~addr:(pa_of w s va) ~len:1) 0 in
        if got <> Bytes.get m.file.data off then
          QCheck2.Test.fail_reportf "slot %d reads %C at +%d of %s, model %C" s got off m.r.F.path
            (Bytes.get m.file.data off))
      (pick w s a)
  | 6 ->
    Option.iter
      (fun m ->
        F.unmap w.fom p m.r;
        remove w s m)
      (pick w s a)
  | 7 ->
    Option.iter
      (fun m ->
        F.free w.fom p m.r;
        remove w s m;
        if m.r.F.temp then Hashtbl.remove w.files m.r.F.path)
      (pick w s a)
  | 8 -> (
    match w.stale.(s) with
    | [] -> ()
    | rs ->
      let r = List.nth rs (a mod List.length rs) in
      expect Sim.Errno.EINVAL "unmap of an unmapped region" (fun () -> F.unmap w.fom p r))
  | 9 ->
    F.exit_process w.fom p;
    List.iter (fun m -> if m.r.F.temp then Hashtbl.remove w.files m.r.F.path) w.regions.(s);
    w.regions.(s) <- [];
    w.stale.(s) <- [];
    w.procs.(s) <- new_proc w
  | _ ->
    ignore (O1mem.Persistence.crash_and_recover w.fom);
    Hashtbl.filter_map_inplace (fun _ f -> if f.persistent then Some f else None) w.files;
    Array.iteri
      (fun s _ ->
        w.regions.(s) <- [];
        w.stale.(s) <- [];
        w.procs.(s) <- new_proc w)
      w.procs

let fom_model_check w =
  (match Os.Check.run w.k with
  | [] -> ()
  | v :: _ as vs ->
    QCheck2.Test.fail_reportf "%d violation(s), first %s" (List.length vs)
      (Os.Check.violation_to_string v));
  let fs = F.fs w.fom in
  Hashtbl.iter
    (fun path f ->
      match Fs.Memfs.lookup fs path with
      | None -> QCheck2.Test.fail_reportf "%s is gone" path
      | Some ino ->
        let got = Fs.Memfs.read_file fs ino ~off:0 ~len:(Bytes.length f.data + 1) in
        if not (Bytes.equal got f.data) then QCheck2.Test.fail_reportf "%s holds other bytes" path;
        if (Fs.Memfs.inode fs ino).Fs.Inode.prot <> f.fprot then
          QCheck2.Test.fail_reportf "%s grants another protection" path)
    w.files;
  if Fs.Memfs.file_count fs <> Hashtbl.length w.files then
    QCheck2.Test.fail_reportf "%d files, model %d" (Fs.Memfs.file_count fs)
      (Hashtbl.length w.files);
  Array.iteri
    (fun s p ->
      let want =
        List.sort compare
          (List.map (fun m -> (m.r.F.va, m.r.F.path, m.len, m.prot, m.strategy)) w.regions.(s))
      in
      let got =
        List.map (fun r -> F.(r.va, r.path, r.len, r.prot, r.strategy)) (F.regions_of w.fom p)
      in
      if got <> want then
        QCheck2.Test.fail_reportf "slot %d maps %d region(s) unlike the model's %d" s
          (List.length got) (List.length want))
    w.procs

let fom_op_name = function
  | 0 -> "alloc" | 1 -> "map" | 2 -> "protect" | 3 -> "grow" | 4 -> "write" | 5 -> "read"
  | 6 -> "unmap" | 7 -> "free" | 8 -> "stale-unmap" | 9 -> "exit" | _ -> "crash"

let prop_fom_model =
  qtest "fom matches a file-and-region model" ~count:100
    ~print:(fun ops ->
      String.concat "; "
        (List.map (fun (op, s, a, b) -> Printf.sprintf "%s %d %d %d" (fom_op_name op) s a b) ops))
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (quad (int_bound 10) (int_bound 2) (int_bound 1000) (int_bound 1000)))
    (fun ops ->
      (* The smallest machine the kernel boots: a 1,024-frame pool. *)
      let config =
        { small_config with K.dram_bytes = Sim.Units.mib 8; nvm_bytes = Sim.Units.mib 8 }
      in
      let k, fom = mk_fom ~config () in
      let procs = Array.init 3 (fun _ -> K.create_process k ~range_translations:true ()) in
      let w =
        {
          k;
          fom;
          procs;
          regions = Array.make 3 [];
          stale = Array.make 3 [];
          files = Hashtbl.create 8;
        }
      in
      List.iter
        (fun op ->
          fom_step w op;
          fom_model_check w)
        ops;
      (* Once every process has exited and every master is dropped, the
         whole pool is free again: no page table kept a frame. *)
      Array.iter (F.exit_process fom) w.procs;
      let sp = F.shared_pt fom in
      List.iter (fun ino -> ignore (O1mem.Shared_pt.drop sp ~ino)) (O1mem.Shared_pt.inodes sp);
      if K.pt_frames k <> 0 || pooled k <> Alloc.Buddy.frames (K.buddy k) then
        QCheck2.Test.fail_reportf "after exit: %d page-table frames held, %d of %d frames free"
          (K.pt_frames k) (pooled k) (Alloc.Buddy.frames (K.buddy k));
      true)

let suite =
  [
    Alcotest.test_case "fom: alloc creates a file" `Quick test_alloc_creates_file;
    Alcotest.test_case "fom: named allocs persistent" `Quick test_alloc_named_persistent;
    Alcotest.test_case "fom: access never faults" `Quick test_access_never_faults;
    Alcotest.test_case "fom: a TLB hit allocates nothing" `Quick test_access_hit_allocates_nothing;
    Alcotest.test_case "fom: all strategies translate" `Quick test_each_strategy_translates;
    Alcotest.test_case "fom: segfault outside region" `Quick test_out_of_region_segfaults;
    Alcotest.test_case "fom: whole-file protection" `Quick test_whole_file_protection;
    Alcotest.test_case "fom: free returns space" `Quick test_unmap_then_free;
    Alcotest.test_case "fom: named files survive unmap" `Quick test_named_file_survives_unmap;
    Alcotest.test_case "fom: subtree sharing across processes (Fig 3)" `Quick
      test_shared_subtree_sharing_across_processes;
    Alcotest.test_case "fom: master reuse" `Quick test_master_reused_across_maps;
    Alcotest.test_case "fom: range translations O(extents)" `Quick test_range_translation_entries;
    Alcotest.test_case "pbm: same VA in every process (Fig 8)" `Quick test_pbm_same_va_everywhere;
    Alcotest.test_case "pbm: double attach rejected" `Quick test_pbm_double_attach_rejected;
    Alcotest.test_case "discard: cache files reclaimed cold-first" `Quick test_discardable_cache_reclaim;
    Alcotest.test_case "erase: strategy cost shapes" `Quick test_erase_strategies;
    Alcotest.test_case "erase: background completes" `Quick test_erase_background_completes;
    Alcotest.test_case "persistence: crash + recover" `Quick test_crash_recovery_persistence;
    Alcotest.test_case "persistence: masters survive for persistent files" `Quick
      test_masters_survive_crash_for_persistent_files;
    Alcotest.test_case "fom: launch/exit with file segments" `Quick test_launch_and_exit;
    Alcotest.test_case "fom: no struct-page traffic" `Quick test_fom_no_per_page_metadata_updates;
    Alcotest.test_case "fom: smaps rollup" `Quick test_smaps;
    prop_fom_alloc_free_conserves_space;
    prop_fom_data_integrity;
    Alcotest.test_case "fom: alloc/free loop keeps every frame" `Quick
      test_alloc_free_loop_keeps_frames;
    Alcotest.test_case "fom: a failed grow changes nothing" `Quick test_failed_grow_changes_nothing;
    Alcotest.test_case "fom: a record from before protect still frees" `Quick
      test_stale_record_frees_region;
    prop_fom_model;
    Alcotest.test_case "persistence: a crash frees tmpfs" `Quick test_crash_frees_tmpfs;
  ]
