(* Tests for the paper's optional/extension machinery: userfaultfd-style
   paging, user-level swap over FOM, transparent huge pages, fork+CoW,
   FS defragmentation, erase policies and the TCMalloc comparator. *)
open Helpers
module K = Os.Kernel
module F = O1mem.Fom

(* Userfault *)

let test_userfault_provide_and_zero () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let base = 0x5000_0000 in
  let log = ref [] in
  Os.Userfault.register (K.userfault k) ~pid:p.Os.Proc.pid ~va:base ~len:(Sim.Units.kib 8)
    ~prot:Hw.Prot.rw (fun ~va ~write ->
      ignore write;
      log := va :: !log;
      if va < base + 4096 then Os.Userfault.Provide "hello-uffd" else Os.Userfault.Zero_page);
  K.access k p ~va:(base + 2) ~write:false;
  check_int "handler called once" 1 (List.length !log);
  (* Content installed. *)
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  (match Hw.Page_table.lookup table ~va:base with
  | Some (pa, _) ->
    check_string "provided bytes" "hello-uffd"
      (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:pa ~len:10))
  | None -> Alcotest.fail "page not installed");
  (* Second access: no new upcall. *)
  K.access k p ~va:(base + 100) ~write:true;
  check_int "no re-fault" 1 (List.length !log);
  (* Zero page path. *)
  K.access k p ~va:(base + 4096) ~write:false;
  check_int "second page handled" 2 (List.length !log);
  check_int "userfault stat" 2 (Sim.Stats.get (K.stats k) "userfault")

let test_userfault_sigbus () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let base = 0x5000_0000 in
  Os.Userfault.register (K.userfault k) ~pid:p.Os.Proc.pid ~va:base ~len:4096 ~prot:Hw.Prot.rw
    (fun ~va:_ ~write:_ -> Os.Userfault.Sigbus);
  Alcotest.check_raises "sigbus" (Os.Fault.Segfault base) (fun () ->
      K.access k p ~va:base ~write:false)

let test_userfault_overlap_rejected () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let uf = K.userfault k in
  Os.Userfault.register uf ~pid:p.Os.Proc.pid ~va:0 ~len:8192 ~prot:Hw.Prot.rw
    (fun ~va:_ ~write:_ -> Os.Userfault.Zero_page);
  Alcotest.check_raises "overlap" (Invalid_argument "Userfault.register: overlapping registration")
    (fun () ->
      Os.Userfault.register uf ~pid:p.Os.Proc.pid ~va:4096 ~len:4096 ~prot:Hw.Prot.rw
        (fun ~va:_ ~write:_ -> Os.Userfault.Zero_page));
  Os.Userfault.unregister uf ~pid:p.Os.Proc.pid ~va:0;
  check_int "unregistered" 0 (Os.Userfault.region_count uf ~pid:p.Os.Proc.pid)

let test_user_page_release () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let base = 0x6000_0000 in
  Os.Userfault.register (K.userfault k) ~pid:p.Os.Proc.pid ~va:base ~len:4096 ~prot:Hw.Prot.rw
    (fun ~va:_ ~write:_ -> Os.Userfault.Zero_page);
  K.access k p ~va:base ~write:true;
  check_bool "released" true (K.user_page_release k p ~va:base <> None);
  check_bool "release of unmapped is None" true (K.user_page_release k p ~va:base = None);
  (* Next access faults to the handler again. *)
  K.access k p ~va:base ~write:false;
  check_int "evict stat" 1 (Sim.Stats.get (K.stats k) "userfault_evict")

(* Uswap: user-level swapping over a FOM backing file *)

let mk_uswap ~file_pages ~window_pages =
  let kernel, fom = mk_fom () in
  let proc = K.create_process kernel () in
  let fs = F.fs fom in
  let ino = Fs.Memfs.create_file fs "/swapfile" ~persistence:Fs.Inode.Persistent in
  Fs.Memfs.extend fs ino ~bytes_wanted:(file_pages * Sim.Units.page_size);
  let u = O1mem.Uswap.create fom proc ~backing_path:"/swapfile" ~window_pages in
  (kernel, fom, proc, u)

let test_uswap_window_paging () =
  let kernel, fom, _, u = mk_uswap ~file_pages:16 ~window_pages:4 in
  ignore kernel;
  let fs = F.fs fom in
  let ino = Option.get (Fs.Memfs.lookup fs "/swapfile") in
  (* Plant recognizable data in page 10 via the file API. *)
  Fs.Memfs.write_file fs ino ~off:(10 * Sim.Units.page_size) "page-ten";
  check_bool "reads through the window" true
    (O1mem.Uswap.read_byte u ~off:((10 * Sim.Units.page_size) + 5) = 't');
  check_int "one fault" 1 (O1mem.Uswap.faults u);
  (* Touch more pages than the window holds: evictions happen. *)
  for i = 0 to 7 do
    ignore (O1mem.Uswap.read_byte u ~off:(i * Sim.Units.page_size))
  done;
  check_bool "window bounded" true (O1mem.Uswap.resident_pages u <= 4);
  check_bool "evictions happened" true (O1mem.Uswap.evictions u > 0)

let test_uswap_writeback () =
  let _, fom, _, u = mk_uswap ~file_pages:8 ~window_pages:2 in
  let fs = F.fs fom in
  let ino = Option.get (Fs.Memfs.lookup fs "/swapfile") in
  (* Dirty page 0 through the window, then force it out by touching others. *)
  O1mem.Uswap.write_byte u ~off:3 'Z';
  for i = 1 to 4 do
    ignore (O1mem.Uswap.read_byte u ~off:(i * Sim.Units.page_size))
  done;
  check_bool "wrote back" true (O1mem.Uswap.writebacks u >= 1);
  check_bool "data persisted to backing file" true
    (Bytes.get (Fs.Memfs.read_file fs ino ~off:3 ~len:1) 0 = 'Z');
  (* And reading it again pages it back in with the data. *)
  check_bool "read back through window" true (O1mem.Uswap.read_byte u ~off:3 = 'Z')

let test_uswap_destroy () =
  let kernel, fom, proc, u = mk_uswap ~file_pages:8 ~window_pages:4 in
  ignore fom;
  ignore (O1mem.Uswap.read_byte u ~off:0);
  O1mem.Uswap.destroy u;
  check_int "nothing resident" 0 (O1mem.Uswap.resident_pages u);
  check_int "registry empty" 0
    (Os.Userfault.region_count (K.userfault kernel) ~pid:proc.Os.Proc.pid)

(* THP *)

let test_thp_collapse () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  (* A fully populated 4 MiB anon region: two collapsible windows. *)
  let va = K.mmap_anon k p ~len:(Sim.Units.mib 4) ~prot:Hw.Prot.rw ~populate:true in
  (* Plant a marker to verify data survives the copy. *)
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  let marker_va = va + Sim.Units.huge_2m + 4096 + 7 in
  (match Hw.Page_table.lookup table ~va:marker_va with
  | Some (pa, _) -> Physmem.Phys_mem.write (K.mem k) ~addr:pa "thp-marker"
  | None -> Alcotest.fail "unmapped");
  let stats = Os.Thp.scan_process k p () in
  (* VA is only page-aligned: at least one full window fits inside. *)
  check_bool "collapsed >= 1 window" true (stats.Os.Thp.collapsed >= 1);
  (* The marker survived relocation. *)
  (match Hw.Page_table.lookup table ~va:marker_va with
  | Some (pa, leaf) ->
    check_bool "marker page now huge" true (leaf.Hw.Page_table.size = Hw.Page_size.Huge_2m);
    check_string "data survived" "thp-marker"
      (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:pa ~len:10))
  | None -> Alcotest.fail "mapping lost");
  check_bool "stat" true (Sim.Stats.get (K.stats k) "thp_collapse" >= 1)

let test_thp_collapse_reduces_tlb_misses () =
  let run collapse =
    let k = mk_kernel () in
    let p = K.create_process k () in
    let len = Sim.Units.mib 8 in
    let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
    if collapse then ignore (Os.Thp.scan_process k p ());
    Hw.Mmu.flush_tlbs (Os.Address_space.mmu p.Os.Proc.aspace);
    let before = Sim.Stats.get (K.stats k) "tlb_miss" in
    ignore (K.access_range k p ~va ~len ~write:false ~stride:Sim.Units.page_size);
    Sim.Stats.get (K.stats k) "tlb_miss" - before
  in
  let base = run false and thp = run true in
  check_bool "far fewer misses after collapse" true (thp * 10 < base)

let test_thp_threshold () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:(Sim.Units.mib 4) ~prot:Hw.Prot.rw ~populate:false in
  (* Fault in only a handful of pages: below the 90% threshold. *)
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 64) ~write:true ~stride:Sim.Units.page_size);
  let stats = Os.Thp.scan_process k p () in
  check_int "nothing collapsed" 0 stats.Os.Thp.collapsed

let test_thp_split () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:(Sim.Units.mib 4) ~prot:Hw.Prot.rw ~populate:true in
  ignore (Os.Thp.scan_process k p ());
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  let huge_va =
    (* Find a huge leaf. *)
    let found = ref None in
    Hw.Page_table.iter_leaves table (fun lva leaf ->
        if leaf.Hw.Page_table.size = Hw.Page_size.Huge_2m && !found = None then found := Some lva);
    match !found with Some v -> v | None -> Alcotest.fail "no huge page to split"
  in
  ignore va;
  check_bool "split works" true (Os.Thp.split_huge k p ~va:(huge_va + 12345));
  (match Hw.Page_table.lookup table ~va:huge_va with
  | Some (_, leaf) -> check_bool "now base pages" true (leaf.Hw.Page_table.size = Hw.Page_size.Small)
  | None -> Alcotest.fail "split lost the mapping");
  check_bool "split of base page is false" true (not (Os.Thp.split_huge k p ~va:huge_va))

(* Fork + CoW *)

let test_fork_shares_then_cows () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let va = K.mmap_anon k parent ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~populate:true in
  (* Parent writes a marker. *)
  let p_table = Os.Address_space.page_table parent.Os.Proc.aspace in
  let pa_before =
    match Hw.Page_table.lookup p_table ~va with Some (pa, _) -> pa | None -> Alcotest.fail "unmapped"
  in
  Physmem.Phys_mem.write (K.mem k) ~addr:pa_before "from-parent";
  let child = Os.Fork.fork k parent in
  let c_table = Os.Address_space.page_table child.Os.Proc.aspace in
  (* Same frame visible in both. *)
  (match Hw.Page_table.lookup c_table ~va with
  | Some (pa, leaf) ->
    check_int "same frame" pa_before pa;
    check_bool "read-only in child" false leaf.Hw.Page_table.prot.Hw.Prot.write
  | None -> Alcotest.fail "child missing mapping");
  check_bool "shared pages counted" true (Os.Fork.cow_shared_pages k child >= 4);
  (* Child reads parent's data. *)
  K.access k child ~va ~write:false;
  (* Child writes: CoW gives it a private copy. *)
  K.access k child ~va:(va + 1) ~write:true;
  let pa_child =
    match Hw.Page_table.lookup c_table ~va with Some (pa, _) -> pa | None -> Alcotest.fail "lost"
  in
  check_bool "child got its own frame" true (pa_child <> pa_before);
  check_bool "cow fault happened" true (Sim.Stats.get (K.stats k) "cow_fault" >= 1);
  (* Parent's data intact, child's copy diverged at byte 1 only. *)
  check_string "parent intact" "from-parent"
    (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:pa_before ~len:11));
  (* Byte 1 diverged ('x' from the write); the rest is the parent's data. *)
  check_string "child copy carried data" "om-parent"
    (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:(pa_child + 2) ~len:9))

let test_fork_parent_write_also_cows () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let va = K.mmap_anon k parent ~len:4096 ~prot:Hw.Prot.rw ~populate:true in
  let child = Os.Fork.fork k parent in
  (* The parent writes after fork: parent CoWs, child keeps the original. *)
  K.access k parent ~va ~write:true;
  let p_pa =
    match Hw.Page_table.lookup (Os.Address_space.page_table parent.Os.Proc.aspace) ~va with
    | Some (pa, _) -> pa
    | None -> Alcotest.fail "parent lost"
  in
  let c_pa =
    match Hw.Page_table.lookup (Os.Address_space.page_table child.Os.Proc.aspace) ~va with
    | Some (pa, _) -> pa
    | None -> Alcotest.fail "child lost"
  in
  check_bool "frames diverged" true (p_pa <> c_pa);
  (* Child can now write its own copy without affecting the parent. *)
  K.access k child ~va ~write:true

let test_fork_shared_file_mapping_aliases () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/shared" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file fs ino ~off:0 "x";
  let va =
    K.mmap_file k parent ~fs ~path:"/shared" ~prot:Hw.Prot.rw ~share:Os.Vma.Shared ~populate:true ()
  in
  let refs_before = (Fs.Memfs.inode fs ino).Fs.Inode.refs in
  let child = Os.Fork.fork k parent in
  check_int "file reference taken" (refs_before + 1) (Fs.Memfs.inode fs ino).Fs.Inode.refs;
  (* Writes are visible both ways: same frame, full prot. *)
  K.access k child ~va ~write:true;
  let p_pa =
    match Hw.Page_table.lookup (Os.Address_space.page_table parent.Os.Proc.aspace) ~va with
    | Some (pa, _) -> pa
    | None -> Alcotest.fail "?"
  in
  let c_pa =
    match Hw.Page_table.lookup (Os.Address_space.page_table child.Os.Proc.aspace) ~va with
    | Some (pa, _) -> pa
    | None -> Alcotest.fail "?"
  in
  check_int "same frame for shared file" p_pa c_pa

(* Defragmentation *)

let test_defragment_coalesces () =
  let mem = mk_mem ~dram:(Sim.Units.mib 32) () in
  (* A small, completely full FS: interleave two files, delete one, and
     grow a third through the resulting 4-frame holes. *)
  let fs = Fs.Memfs.create ~mem ~first:0 ~count:96 ~mode:Fs.Memfs.Tmpfs () in
  let a = Fs.Memfs.create_file fs "/a" ~persistence:Fs.Inode.Volatile in
  let b = Fs.Memfs.create_file fs "/b" ~persistence:Fs.Inode.Volatile in
  for _ = 1 to 12 do
    Fs.Memfs.extend fs a ~bytes_wanted:(Sim.Units.kib 16);
    Fs.Memfs.extend fs b ~bytes_wanted:(Sim.Units.kib 16)
  done;
  Fs.Memfs.unlink fs "/b";
  let c = Fs.Memfs.create_file fs "/c" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs c ~bytes_wanted:(Sim.Units.kib 96);
  Fs.Memfs.write_file fs c ~off:(Sim.Units.kib 90) "frag";
  let frag_before = List.length (Fs.Memfs.file_extents fs c) in
  check_bool "c is fragmented" true (frag_before > 1);
  check_bool "fragmentation metric sees it" true (Fs.Memfs.average_extents_per_file fs > 1.0);
  (* Deleting /a opens a large contiguous run; compaction can relocate. *)
  Fs.Memfs.unlink fs "/a";
  let moved = Fs.Memfs.defragment fs () in
  check_bool "compacted something" true (moved >= 1);
  check_int "c now one extent" 1 (List.length (Fs.Memfs.file_extents fs c));
  check_string "data survived relocation" "frag"
    (Bytes.to_string (Fs.Memfs.read_file fs c ~off:(Sim.Units.kib 90) ~len:4))

let test_defragment_skips_open_files () =
  let mem = mk_mem ~dram:(Sim.Units.mib 32) () in
  let fs = Fs.Memfs.create ~mem ~first:0 ~count:1024 ~mode:Fs.Memfs.Tmpfs () in
  let a = Fs.Memfs.create_file fs "/a" ~persistence:Fs.Inode.Volatile in
  let b = Fs.Memfs.create_file fs "/hole" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs a ~bytes_wanted:(Sim.Units.kib 16);
  Fs.Memfs.extend fs b ~bytes_wanted:(Sim.Units.kib 16);
  Fs.Memfs.extend fs a ~bytes_wanted:(Sim.Units.kib 16);
  Fs.Memfs.unlink fs "/hole";
  check_bool "a fragmented" true (List.length (Fs.Memfs.file_extents fs a) > 1);
  Fs.Memfs.open_file fs a;
  check_int "open file not moved" 0 (Fs.Memfs.defragment fs ());
  Fs.Memfs.close_file fs a;
  check_bool "movable when closed" true (Fs.Memfs.defragment fs () >= 1)

(* Erase policies in the FS *)

let test_fs_erase_policies_keep_frames_zero () =
  List.iter
    (fun erase ->
      let mem = mk_mem ~dram:(Sim.Units.mib 32) () in
      let fs = Fs.Memfs.create ~mem ~first:0 ~count:1024 ~mode:Fs.Memfs.Tmpfs ~erase () in
      (* Dirty a file, free it, let any background work run, re-allocate. *)
      let a = Fs.Memfs.create_file fs "/a" ~persistence:Fs.Inode.Volatile in
      Fs.Memfs.write_file fs a ~off:0 (String.make 4096 's');
      Fs.Memfs.unlink fs "/a";
      ignore (Fs.Memfs.background_zero_step fs ~budget_frames:64);
      let b = Fs.Memfs.create_file fs "/b" ~persistence:Fs.Inode.Volatile in
      Fs.Memfs.extend fs b ~bytes_wanted:4096;
      let e = List.hd (Fs.Memfs.file_extents fs b) in
      check_bool "no data leak across files" true
        (Physmem.Phys_mem.frame_is_zero mem e.Fs.Extent.start))
    [ Fs.Memfs.Eager_zero; Fs.Memfs.Background_zero; Fs.Memfs.Device_erase ]

let test_fs_background_zero_cheapens_extend () =
  let cost erase prime =
    let mem = mk_mem ~dram:(Sim.Units.mib 64) () in
    let clock = Physmem.Phys_mem.clock mem in
    let fs = Fs.Memfs.create ~mem ~first:0 ~count:8192 ~mode:Fs.Memfs.Tmpfs ~erase () in
    if prime then begin
      (* Churn once so the background zeroer has a stocked pool. *)
      let a = Fs.Memfs.create_file fs "/prime" ~persistence:Fs.Inode.Volatile in
      Fs.Memfs.extend fs a ~bytes_wanted:(Sim.Units.mib 4);
      Fs.Memfs.unlink fs "/prime";
      ignore (Fs.Memfs.background_zero_step fs ~budget_frames:2048)
    end;
    let b = Fs.Memfs.create_file fs "/b" ~persistence:Fs.Inode.Volatile in
    let before = Sim.Clock.now clock in
    Fs.Memfs.extend fs b ~bytes_wanted:(Sim.Units.mib 4);
    Sim.Clock.elapsed clock ~since:before
  in
  let eager = cost Fs.Memfs.Eager_zero false in
  let bg = cost Fs.Memfs.Background_zero true in
  check_bool "pooled frames make extend far cheaper" true (bg * 10 < eager)

(* TCMalloc comparator *)

let test_tcmalloc_basic () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let h = Heap.Tcmalloc_sim.create k p in
  let a = Heap.Tcmalloc_sim.malloc h ~thread:0 ~bytes:100 in
  let b = Heap.Tcmalloc_sim.malloc h ~thread:0 ~bytes:100 in
  check_bool "distinct" true (a <> b);
  check_bool "class size" true (Heap.Tcmalloc_sim.size_of h a = Some 128);
  Heap.Tcmalloc_sim.free h ~thread:0 a;
  let a' = Heap.Tcmalloc_sim.malloc h ~thread:0 ~bytes:100 in
  check_int "thread-cache LIFO reuse" a a';
  check_int "one central refill so far" 1 (Heap.Tcmalloc_sim.central_refills h)

let test_tcmalloc_thread_isolation () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let h = Heap.Tcmalloc_sim.create k p in
  let a = Heap.Tcmalloc_sim.malloc h ~thread:0 ~bytes:64 in
  Heap.Tcmalloc_sim.free h ~thread:0 a;
  (* Thread 1 misses its own cache and refills from central. *)
  let refills_before = Heap.Tcmalloc_sim.central_refills h in
  ignore (Heap.Tcmalloc_sim.malloc h ~thread:1 ~bytes:64);
  check_int "thread 1 refilled separately" (refills_before + 1) (Heap.Tcmalloc_sim.central_refills h)

let test_tcmalloc_waste_accounting () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let h = Heap.Tcmalloc_sim.create k p in
  let blocks = List.init 10 (fun _ -> Heap.Tcmalloc_sim.malloc h ~thread:0 ~bytes:4096) in
  check_int "live" (10 * 4096) (Heap.Tcmalloc_sim.live_bytes h);
  check_bool "cached waste exists (batched span)" true (Heap.Tcmalloc_sim.cached_bytes h > 0);
  List.iter (Heap.Tcmalloc_sim.free h ~thread:0) blocks;
  check_int "nothing live" 0 (Heap.Tcmalloc_sim.live_bytes h);
  check_bool "memory retained, not returned (the trade)" true
    (Heap.Tcmalloc_sim.footprint_bytes h > 0)

let test_tcmalloc_amortized_lock_cost () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let h = Heap.Tcmalloc_sim.create k p in
  (* 320 allocations = 10 batches of 32: at most ~10 lock acquisitions. *)
  for _ = 1 to 320 do
    ignore (Heap.Tcmalloc_sim.malloc h ~thread:0 ~bytes:64)
  done;
  check_bool "locks amortized" true (Heap.Tcmalloc_sim.central_refills h <= 11)

let mk () =
  let kernel, fom = mk_fom () in
  let proc = K.create_process kernel ~range_translations:true () in
  (kernel, fom, proc)

(* FS: hard links and rename *)

let test_fs_link () =
  let kernel, fom = mk_fom () in
  ignore kernel;
  let fs = F.fs fom in
  let ino = Fs.Memfs.create_file fs "/orig" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file fs ino ~off:0 "linked-data";
  Fs.Memfs.link fs ~existing:"/orig" ~new_path:"/alias";
  check_bool "alias resolves to same inode" true (Fs.Memfs.lookup fs "/alias" = Some ino);
  check_int "nlink 2" 2 (Fs.Memfs.inode fs ino).Fs.Inode.nlink;
  (* Deleting one name keeps the data alive. *)
  Fs.Memfs.unlink fs "/orig";
  check_string "data via alias" "linked-data"
    (Bytes.to_string (Fs.Memfs.read_file fs ino ~off:0 ~len:11));
  let free0 = Fs.Memfs.free_bytes fs in
  Fs.Memfs.unlink fs "/alias";
  check_bool "frames freed at last unlink" true (Fs.Memfs.free_bytes fs > free0);
  Alcotest.check_raises "cannot link directories"
    (Invalid_argument "Memfs.link: cannot link a directory") (fun () ->
      Fs.Memfs.mkdir fs "/d";
      Fs.Memfs.link fs ~existing:"/d" ~new_path:"/d2")

let test_fs_rename () =
  let kernel, fom = mk_fom () in
  ignore kernel;
  let fs = F.fs fom in
  Fs.Memfs.mkdir fs "/a";
  Fs.Memfs.mkdir fs "/b";
  let ino = Fs.Memfs.create_file fs "/a/f" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.mib 4);
  let clock = Os.Kernel.clock kernel in
  let before = Sim.Clock.now clock in
  Fs.Memfs.rename fs ~old_path:"/a/f" ~new_path:"/b/g";
  let cost = Sim.Clock.elapsed clock ~since:before in
  check_bool "old gone" true (Fs.Memfs.lookup fs "/a/f" = None);
  check_bool "new resolves" true (Fs.Memfs.lookup fs "/b/g" = Some ino);
  check_bool "O(1): no data movement" true (cost < 10_000);
  Alcotest.check_raises "no clobber"
    (Sim.Errno.Error (Sim.Errno.EEXIST, "Memfs.rename: destination exists"))
    (fun () ->
      ignore (Fs.Memfs.create_file fs "/b/h" ~persistence:Fs.Inode.Volatile);
      Fs.Memfs.rename fs ~old_path:"/b/g" ~new_path:"/b/h")

(* Fom.grow *)

let test_fom_grow () =
  let kernel, fom, proc = mk () in
  let fs = F.fs fom in
  let r = F.alloc fom proc ~len:(Sim.Units.mib 1) ~prot:Hw.Prot.rw () in
  Fs.Memfs.write_file fs r.F.ino ~off:100 "keep-me";
  let first_extent_before = (List.hd (Fs.Memfs.file_extents fs r.F.ino)).Fs.Extent.start in
  let r2 = F.grow fom proc r ~new_len:(Sim.Units.mib 8) in
  ignore kernel;
  check_int "grown" (Sim.Units.mib 8) r2.F.len;
  check_int "data never moved (same first extent)" first_extent_before
    (List.hd (Fs.Memfs.file_extents fs r2.F.ino)).Fs.Extent.start;
  check_bool "same file" true (r2.F.ino = r.F.ino);
  check_string "data preserved (never moved)" "keep-me"
    (Bytes.to_string (Fs.Memfs.read_file fs r2.F.ino ~off:100 ~len:7));
  (* Whole new region translates. *)
  ignore (F.access_range fom proc ~va:r2.F.va ~len:r2.F.len ~write:true ~stride:Sim.Units.page_size);
  (* Old base no longer maps (the region moved). *)
  if r2.F.va <> r.F.va then
    Alcotest.check_raises "old base unmapped" (Os.Fault.Segfault r.F.va) (fun () ->
        F.access fom proc ~va:r.F.va ~write:false)

let test_fom_grow_range_strategy () =
  let _, fom, proc = mk () in
  let rt = Option.get (Os.Address_space.range_table proc.Os.Proc.aspace) in
  let r = F.alloc fom proc ~strategy:F.Range_translation ~len:(Sim.Units.mib 2) ~prot:Hw.Prot.rw () in
  check_int "one entry" 1 (Hw.Range_table.entry_count rt);
  let r2 = F.grow fom proc r ~new_len:(Sim.Units.mib 16) in
  ignore (F.access_range fom proc ~va:r2.F.va ~len:r2.F.len ~write:false ~stride:Sim.Units.huge_2m);
  check_bool "entries match extents" true
    (Hw.Range_table.entry_count rt = List.length (Fs.Memfs.file_extents (F.fs fom) r2.F.ino))

let test_grow_does_not_break_other_mappers () =
  (* Regression: p1 grows a shared file (rebuilding its master); p2, who
     mapped the file before the grow, must still unmap cleanly with its
     original graft geometry. *)
  let kernel, fom, p1 = mk () in
  let p2 = K.create_process kernel () in
  let r1 = F.alloc fom p1 ~name:"/shared" ~len:(Sim.Units.mib 4) ~prot:Hw.Prot.rw () in
  let r2 = F.map_path fom p2 "/shared" in
  let r1' = F.grow fom p1 r1 ~new_len:(Sim.Units.mib 12) in
  (* p2's (pre-grow) mapping still translates over its original extent. *)
  F.access fom p2 ~va:r2.F.va ~write:false;
  F.access fom p2 ~va:(r2.F.va + r2.F.len - 1) ~write:false;
  (* And unmapping it must not touch windows p2 never grafted. *)
  F.unmap fom p2 r2;
  Alcotest.check_raises "p2 unmapped" (Os.Fault.Segfault r2.F.va) (fun () ->
      F.access fom p2 ~va:r2.F.va ~write:false);
  (* p1's grown mapping is unaffected. *)
  ignore (F.access_range fom p1 ~va:r1'.F.va ~len:r1'.F.len ~write:true ~stride:Sim.Units.page_size)

(* Guard pages *)

let test_fom_guard_pages () =
  let _, fom, proc = mk () in
  (* Without a guard, two per-page regions can be VA-adjacent: an
     overflow from the first lands in the second. *)
  let a = F.alloc fom proc ~strategy:F.Per_page ~len:4096 ~prot:Hw.Prot.rw () in
  let b = F.alloc fom proc ~strategy:F.Per_page ~len:4096 ~prot:Hw.Prot.rw () in
  check_int "adjacent without guard" (a.F.va + a.F.len) b.F.va;
  F.access fom proc ~va:(a.F.va + a.F.len) ~write:true (* silently hits b! *);
  (* With a guard, the overflow faults. *)
  let c = F.alloc fom proc ~strategy:F.Per_page ~guard:true ~len:4096 ~prot:Hw.Prot.rw () in
  let d = F.alloc fom proc ~strategy:F.Per_page ~len:4096 ~prot:Hw.Prot.rw () in
  check_bool "hole after guarded region" true (d.F.va > c.F.va + c.F.len);
  Alcotest.check_raises "overflow faults" (Os.Fault.Segfault (c.F.va + c.F.len)) (fun () ->
      F.access fom proc ~va:(c.F.va + c.F.len) ~write:true)

(* Swap backing variants *)

let test_swap_on_pmfs () =
  let config = { Helpers.small_config with Os.Kernel.swap_backing = `Pmfs } in
  let k = mk_kernel ~config () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:4096 ~prot:Hw.Prot.rw ~populate:false in
  K.access k p ~va ~write:true;
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  let pfn =
    match Hw.Page_table.lookup table ~va with
    | Some (_, leaf) -> leaf.Hw.Page_table.pfn
    | None -> Alcotest.fail "unmapped"
  in
  Physmem.Phys_mem.write (K.mem k) ~addr:(Physmem.Frame.to_addr pfn) "swap-to-nvm";
  (* Evict: the page should land in /swapfile inside PMFS. *)
  ignore (Os.Reclaim.scan (K.reclaim k) ~target_frames:1);
  let pmfs = Option.get (K.pmfs k) in
  let sw = Option.get (Fs.Memfs.lookup pmfs "/swapfile") in
  check_bool "swapfile grew" true ((Fs.Memfs.inode pmfs sw).Fs.Inode.size >= 4096);
  (* Fault back: contents intact, slot recycled. *)
  K.access k p ~va ~write:false;
  let pa = match Hw.Page_table.lookup table ~va with Some (pa, _) -> pa | None -> Alcotest.fail "?" in
  check_string "contents restored from NVM swapfile" "swap-to-nvm"
    (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:pa ~len:11));
  check_int "slot freed" 0 (Os.Swap.slots_used (K.swap k))

(* Context switching / ASIDs *)

let test_context_switch_flush_vs_asid () =
  let run asids =
    let k = mk_kernel () in
    let p1 = K.create_process k () in
    let p2 = K.create_process k () in
    let va = K.mmap_anon k p1 ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~populate:true in
    ignore (K.access_range k p1 ~va ~len:(Sim.Units.kib 16) ~write:false ~stride:Sim.Units.page_size);
    let m0 = Sim.Stats.get (K.stats k) "tlb_miss" in
    K.context_switch k ~from_:p1 ~to_:p2 ~asids;
    K.context_switch k ~from_:p2 ~to_:p1 ~asids;
    ignore (K.access_range k p1 ~va ~len:(Sim.Units.kib 16) ~write:false ~stride:Sim.Units.page_size);
    Sim.Stats.get (K.stats k) "tlb_miss" - m0
  in
  check_int "no ASIDs: full re-miss" 4 (run false);
  check_int "ASIDs: entries survived" 0 (run true)

(* madvise *)

let test_madvise_releases_and_refaults_zero () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:(Sim.Units.kib 8) ~prot:Hw.Prot.rw ~populate:false in
  K.access k p ~va ~write:true;
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  (match Hw.Page_table.lookup table ~va with
  | Some (pa, _) -> Physmem.Phys_mem.write (K.mem k) ~addr:pa "precious"
  | None -> Alcotest.fail "unmapped");
  let released = K.madvise_dontneed k p ~va ~len:(Sim.Units.kib 8) in
  check_int "one resident page released" 1 released;
  check_bool "unmapped now" true (Hw.Page_table.lookup table ~va = None);
  check_bool "vma survives" true (Os.Address_space.find_vma p.Os.Proc.aspace ~va <> None);
  (* Refault: fresh zero page, data gone (DONTNEED semantics). *)
  K.access k p ~va ~write:false;
  match Hw.Page_table.lookup table ~va with
  | Some (pa, _) ->
    check_string "zero-filled" (String.make 8 ' ')
      (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:pa ~len:8))
  | None -> Alcotest.fail "refault failed"

let test_malloc_trim () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let h = Heap.Malloc_sim.create k p in
  let blocks = List.init 4 (fun _ -> Heap.Malloc_sim.malloc h ~bytes:(Sim.Units.kib 16)) in
  List.iter
    (fun va -> ignore (K.access_range k p ~va ~len:(Sim.Units.kib 16) ~write:true ~stride:Sim.Units.page_size))
    blocks;
  List.iter (Heap.Malloc_sim.free h) blocks;
  let released = Heap.Malloc_sim.trim h in
  check_int "16 pages released" 16 released;
  check_int "trim again releases nothing" 0 (Heap.Malloc_sim.trim h);
  (* Blocks are still allocatable and refault cleanly. *)
  let va = Heap.Malloc_sim.malloc h ~bytes:(Sim.Units.kib 16) in
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 16) ~write:true ~stride:Sim.Units.page_size)

(* Blocks are bump-carved, so a free block can share its first page with
   a live one: trim releases only the pages wholly inside free blocks. *)
let test_malloc_trim_spares_neighbour () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let h = Heap.Malloc_sim.create k p in
  let a = Heap.Malloc_sim.malloc h ~bytes:16 in
  let b = Heap.Malloc_sim.malloc h ~bytes:8192 in
  check_int "b is carved right after a" (a + 16) b;
  K.access k p ~va:a ~write:true;
  ignore (K.access_range k p ~va:b ~len:8192 ~write:true ~stride:Sim.Units.page_size);
  Heap.Malloc_sim.free h b;
  check_int "only the page wholly inside b" 1 (Heap.Malloc_sim.trim h);
  let faults = Sim.Stats.get (K.stats k) "page_fault" in
  K.access k p ~va:a ~write:false;
  check_int "a's page is still mapped" faults (Sim.Stats.get (K.stats k) "page_fault")

(* procfs *)

let test_procfs_maps_and_rss () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:(Sim.Units.kib 32) ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 16) ~write:true ~stride:Sim.Units.page_size);
  let maps = Os.Procfs.maps p in
  check_bool "maps lists the vma" true (Helpers.contains ~needle:"anon" maps);
  check_int "rss counts only touched pages" 4 (Os.Procfs.rss_pages p);
  check_bool "pt bytes positive" true (Os.Procfs.pt_bytes p > 0);
  check_bool "summary mentions rss" true
    (Helpers.contains ~needle:"rss 16KiB" (Os.Procfs.smaps_summary k p))

let test_procfs_pss_splits_shared () =
  let k = mk_kernel () in
  let p1 = K.create_process k () in
  let p2 = K.create_process k () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/shared" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.kib 16);
  let map p =
    let va = K.mmap_file k p ~fs ~path:"/shared" ~prot:Hw.Prot.r ~share:Os.Vma.Shared ~populate:true () in
    ignore va
  in
  map p1;
  Alcotest.(check (float 0.01)) "sole owner: pss = rss" 4.0 (Os.Procfs.pss_pages k p1);
  map p2;
  Alcotest.(check (float 0.01)) "shared: pss halves" 2.0 (Os.Procfs.pss_pages k p1);
  Alcotest.(check (float 0.01)) "both halves" 2.0 (Os.Procfs.pss_pages k p2)

(* chart *)

let test_chart_renders () =
  let s =
    Sim.Chart.render ~width:20 ~height:8 ~logx:true ~logy:true ~title:"t"
      [ { Sim.Chart.label = "a"; points = [ (1.0, 1.0); (10.0, 10.0); (100.0, 100.0) ] };
        { Sim.Chart.label = "b"; points = [ (1.0, 100.0); (100.0, 1.0) ] } ]
  in
  check_bool "title" true (Helpers.contains ~needle:"t
" s);
  check_bool "marker a" true (Helpers.contains ~needle:"*" s);
  check_bool "marker b" true (Helpers.contains ~needle:"+" s);
  check_bool "legend" true (Helpers.contains ~needle:"a" s && Helpers.contains ~needle:"b" s);
  check_bool "empty handled" true
    (Helpers.contains ~needle:"(no data)" (Sim.Chart.render ~title:"e" []))

(* 1 GiB graft windows *)

let test_gib_file_grafts_coarse () =
  let config =
    { Helpers.small_config with Os.Kernel.nvm_bytes = Sim.Units.gib 3; dram_bytes = Sim.Units.mib 256 }
  in
  let kernel = mk_kernel ~config () in
  let fom = F.create kernel () in
  let p = K.create_process kernel () in
  let before = Sim.Stats.get (K.stats kernel) "fom_grafts" in
  let r = F.alloc fom p ~name:"/huge" ~len:(Sim.Units.gib 2) ~prot:Hw.Prot.rw () in
  let grafts = Sim.Stats.get (K.stats kernel) "fom_grafts" - before in
  check_int "2 GiB file = 2 grafts" 2 grafts;
  (* Translation works across the whole range. *)
  F.access fom p ~va:r.F.va ~write:true;
  F.access fom p ~va:(r.F.va + Sim.Units.gib 2 - 1) ~write:true

let suite =
  [
    Alcotest.test_case "userfault: provide/zero resolutions" `Quick test_userfault_provide_and_zero;
    Alcotest.test_case "userfault: sigbus" `Quick test_userfault_sigbus;
    Alcotest.test_case "userfault: overlap + unregister" `Quick test_userfault_overlap_rejected;
    Alcotest.test_case "userfault: page release" `Quick test_user_page_release;
    Alcotest.test_case "uswap: window paging" `Quick test_uswap_window_paging;
    Alcotest.test_case "uswap: dirty write-back" `Quick test_uswap_writeback;
    Alcotest.test_case "uswap: destroy" `Quick test_uswap_destroy;
    Alcotest.test_case "thp: collapse preserves data" `Quick test_thp_collapse;
    Alcotest.test_case "thp: collapse cuts TLB misses" `Quick test_thp_collapse_reduces_tlb_misses;
    Alcotest.test_case "thp: threshold respected" `Quick test_thp_threshold;
    Alcotest.test_case "thp: split" `Quick test_thp_split;
    Alcotest.test_case "fork: CoW shares then splits" `Quick test_fork_shares_then_cows;
    Alcotest.test_case "fork: parent write CoWs too" `Quick test_fork_parent_write_also_cows;
    Alcotest.test_case "fork: shared file mappings alias" `Quick test_fork_shared_file_mapping_aliases;
    Alcotest.test_case "defrag: coalesces fragmented files" `Quick test_defragment_coalesces;
    Alcotest.test_case "defrag: skips open files" `Quick test_defragment_skips_open_files;
    Alcotest.test_case "fs erase: no cross-file data leaks" `Quick test_fs_erase_policies_keep_frames_zero;
    Alcotest.test_case "fs erase: background pool cheapens extend" `Quick
      test_fs_background_zero_cheapens_extend;
    Alcotest.test_case "tcmalloc: basic + thread cache" `Quick test_tcmalloc_basic;
    Alcotest.test_case "tcmalloc: per-thread caches" `Quick test_tcmalloc_thread_isolation;
    Alcotest.test_case "tcmalloc: waste accounting" `Quick test_tcmalloc_waste_accounting;
    Alcotest.test_case "tcmalloc: lock amortization" `Quick test_tcmalloc_amortized_lock_cost;
    Alcotest.test_case "fom: GiB files graft in GiB windows" `Quick test_gib_file_grafts_coarse;
    Alcotest.test_case "fs: hard links" `Quick test_fs_link;
    Alcotest.test_case "fs: rename is O(1)" `Quick test_fs_rename;
    Alcotest.test_case "fom: grow remaps without copying" `Quick test_fom_grow;
    Alcotest.test_case "fom: grow under range strategy" `Quick test_fom_grow_range_strategy;
    Alcotest.test_case "fom: grow does not break other mappers" `Quick
      test_grow_does_not_break_other_mappers;
    Alcotest.test_case "fom: guard pages" `Quick test_fom_guard_pages;
    Alcotest.test_case "swap: PMFS swapfile backing" `Quick test_swap_on_pmfs;
    Alcotest.test_case "kernel: context switch flush vs ASIDs" `Quick test_context_switch_flush_vs_asid;
    Alcotest.test_case "kernel: madvise releases + zero refault" `Quick
      test_madvise_releases_and_refaults_zero;
    Alcotest.test_case "heap: trim via madvise" `Quick test_malloc_trim;
    Alcotest.test_case "heap: trim spares a live neighbour" `Quick
      test_malloc_trim_spares_neighbour;
    Alcotest.test_case "procfs: maps and rss" `Quick test_procfs_maps_and_rss;
    Alcotest.test_case "procfs: pss splits shared pages" `Quick test_procfs_pss_splits_shared;
    Alcotest.test_case "chart: renders series" `Quick test_chart_renders;
  ]
