open Helpers
module K = Os.Kernel

let mk () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  (k, p)

(* Page_meta *)

let test_page_meta_flags_refs () =
  let clock, stats = mk_env () in
  let m = Os.Page_meta.create ~clock ~stats ~frames:100 in
  check_bool "flag default false" false (Os.Page_meta.get_flag m 5 Os.Page_meta.Uptodate);
  Os.Page_meta.set_flag m 5 Os.Page_meta.Uptodate true;
  check_bool "flag set" true (Os.Page_meta.get_flag m 5 Os.Page_meta.Uptodate);
  Os.Page_meta.set_flag m 5 Os.Page_meta.Uptodate false;
  check_bool "flag cleared" false (Os.Page_meta.get_flag m 5 Os.Page_meta.Uptodate);
  Os.Page_meta.get_page m 5;
  Os.Page_meta.get_page m 5;
  check_int "refcount" 2 (Os.Page_meta.refcount m 5);
  Os.Page_meta.put_page m 5;
  Os.Page_meta.put_page m 5;
  Alcotest.check_raises "underflow" (Invalid_argument "Page_meta.put_page: refcount underflow")
    (fun () -> Os.Page_meta.put_page m 5)

let test_page_meta_boot_cost_linear () =
  let clock, stats = mk_env () in
  let m = Os.Page_meta.create ~clock ~stats ~frames:10_000 in
  let before = Sim.Clock.now clock in
  Os.Page_meta.init_range m ~first:0 ~count:10_000;
  let c1 = Sim.Clock.elapsed clock ~since:before in
  check_int "linear init" (10_000 * Sim.Cost_model.struct_page_init) c1;
  check_int "64B per page" (10_000 * 64) (Os.Page_meta.metadata_bytes m)

(* Vma + address space *)

let test_vma_merge_rules () =
  let a = Os.Vma.make ~start:0 ~len:4096 ~prot:Hw.Prot.rw ~backing:Os.Vma.Anon ~share:Os.Vma.Private in
  let b = Os.Vma.make ~start:4096 ~len:4096 ~prot:Hw.Prot.rw ~backing:Os.Vma.Anon ~share:Os.Vma.Private in
  check_bool "adjacent anon merge" true (Os.Vma.can_merge a b);
  let c = Os.Vma.make ~start:8192 ~len:4096 ~prot:Hw.Prot.r ~backing:Os.Vma.Anon ~share:Os.Vma.Private in
  check_bool "different prot no merge" false (Os.Vma.can_merge b c);
  let d = Os.Vma.make ~start:16384 ~len:4096 ~prot:Hw.Prot.rw ~backing:Os.Vma.Anon ~share:Os.Vma.Private in
  check_bool "non-adjacent no merge" false (Os.Vma.can_merge b d)

let test_aspace_insert_merges () =
  let k, p = mk () in
  ignore k;
  let aspace = p.Os.Proc.aspace in
  let n0 = Os.Address_space.vma_count aspace in
  let mk_vma start =
    Os.Vma.make ~start ~len:4096 ~prot:Hw.Prot.rw ~backing:Os.Vma.Anon ~share:Os.Vma.Private
  in
  Os.Address_space.insert_vma aspace (mk_vma 0x10000);
  Os.Address_space.insert_vma aspace (mk_vma 0x11000);
  check_int "merged into one" (n0 + 1) (Os.Address_space.vma_count aspace);
  match Os.Address_space.find_vma aspace ~va:0x11abc with
  | Some v -> check_int "merged length" 8192 v.Os.Vma.len
  | None -> Alcotest.fail "merged VMA missing"

let test_aspace_remove_splits () =
  let _, p = mk () in
  let aspace = p.Os.Proc.aspace in
  let v =
    Os.Vma.make ~start:0x100000 ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~backing:Os.Vma.Anon
      ~share:Os.Vma.Private
  in
  Os.Address_space.insert_vma aspace v;
  (* Punch a page out of the middle. *)
  let removed = Os.Address_space.remove_range aspace ~start:0x101000 ~len:4096 in
  check_int "one piece removed" 1 (List.length removed);
  check_bool "head survives" true (Os.Address_space.find_vma aspace ~va:0x100000 <> None);
  check_bool "hole gone" true (Os.Address_space.find_vma aspace ~va:0x101000 = None);
  check_bool "tail survives" true (Os.Address_space.find_vma aspace ~va:0x102000 <> None)

(* mmap anon + faults *)

let test_mmap_anon_demand_faults () =
  let k, p = mk () in
  let len = Sim.Units.kib 16 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  check_int "no faults yet" 0 (Sim.Stats.get (K.stats k) "page_fault");
  let n = K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size in
  check_int "4 accesses" 4 n;
  check_int "4 minor faults" 4 (Sim.Stats.get (K.stats k) "minor_fault");
  (* Re-access: no further faults. *)
  ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  check_int "still 4" 4 (Sim.Stats.get (K.stats k) "page_fault")

(* A fault takes a scrubbed frame buffer back off the free list, and a
   touched page costs the host few words: the access path boxes no
   option, tuple or closure. Each 4 MiB round is mmap, a write to every
   page (each faults it in), a re-write after a TLB flush (each misses
   and walks), munmap, and idle-time zeroing, which launders the round's
   frames into the zero engine's pool, so the next round faults on
   recycled frames. After a warm-up round each phase's words per page
   must stay within 1.25x of what it measured when this held. A fresh
   4 KiB buffer per fault took 513; option-of-tuple lookups, a closure
   per span and a path list per unmap took 226.2 per fault-in, 79.0 per
   re-write, 56.2 per unmap and 10.0 per zeroed page; a second queue of
   zeroed frames, with a closure per pop, took 33.23 per fault-in and
   8.03 per zeroed page; a reclaim-list entry per fault, kept until a
   scan met it, took 25.23 per fault-in; the zero engine's two
   [Queue]s, a cell per frame in each, took 3.16 per unmap and 3.03 per
   zeroed page; the [Error] of the faulting access, the swap lookup's
   key and the frame sources' options took 17.23 per fault-in. What is
   left of a fault-in is mostly its page-table leaf. *)
let test_fault_reuses_frame_buffers () =
  let k, p = mk () in
  let len = Sim.Units.mib 4 in
  let pages = len / Sim.Units.page_size in
  let per_page f =
    let w0 = host_words () in
    f ();
    (host_words () -. w0) /. float_of_int pages
  in
  let write_all va () = ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size) in
  let round () =
    let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
    let fault_in = per_page (write_all va) in
    Hw.Mmu.flush_tlbs (Os.Address_space.mmu p.Os.Proc.aspace);
    let misses = Sim.Stats.get (K.stats k) "tlb_miss" in
    let rewrite = per_page (write_all va) in
    check_int "every re-write misses the TLB" pages (Sim.Stats.get (K.stats k) "tlb_miss" - misses);
    let unmap = per_page (fun () -> K.munmap k p ~va ~len) in
    let zero = per_page (fun () -> ignore (K.background_zero k ~budget_frames:pages)) in
    (fault_in, rewrite, unmap, zero)
  in
  ignore (round ());
  let fault_in, rewrite, unmap, zero = round () in
  let within what ~measured got =
    check_bool (Printf.sprintf "%.4f words per page %s <= 1.25 x %.3f" got what measured) true
      (got <= 1.25 *. measured)
  in
  (* A re-write and the zeroing allocate nothing: what they measure is
     the reading's own Gc record, spread over the pages. *)
  within "fault-in" ~measured:10.16 fault_in;
  within "re-write" ~measured:0.025 rewrite;
  within "munmap" ~measured:0.194 unmap;
  within "zeroing" ~measured:0.025 zero

(* A CoW fault copies its page once, inside the memory. Fork, then write
   every page of a 1 MiB mapping: the words per fault must stay within
   1.25x of what they measured when this held. Each page holds one
   written byte, which the new frame keeps inline, with no buffer
   (reading the page into fresh bytes and writing a string copy of them
   took 1,863.3; the access path's lookup and span boxes took 842.3
   before they went; a fresh 4 KiB buffer per new frame took 597.3). *)
let test_cow_fault_copies_once () =
  let k, p = mk () in
  let len = Sim.Units.mib 1 in
  let pages = len / Sim.Units.page_size in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  ignore (Os.Fork.fork k p);
  let cow0 = Sim.Stats.get (K.stats k) "cow_fault" in
  let per_fault = words_per_call pages (fun i -> K.access k p ~va:(va + (i * Sim.Units.page_size)) ~write:true) in
  check_int "a CoW fault per page" pages (Sim.Stats.get (K.stats k) "cow_fault" - cow0);
  let measured = 75.3 in
  check_bool (Printf.sprintf "%.1f words per CoW fault <= 1.25 x %.1f" per_fault measured) true
    (per_fault <= 1.25 *. measured)

let test_mmap_anon_populate_no_faults () =
  let k, p = mk () in
  let len = Sim.Units.kib 16 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  check_int "populate avoids all faults" 0 (Sim.Stats.get (K.stats k) "page_fault")

let test_mmap_populate_cost_linear_demand_flat () =
  (* The Figure 6a shape: populate grows with size, demand mmap is flat. *)
  let time_mmap ~populate len =
    let k, p = mk () in
    let clock = K.clock k in
    let before = Sim.Clock.now clock in
    ignore (K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate);
    Sim.Clock.elapsed clock ~since:before
  in
  let pop_small = time_mmap ~populate:true (Sim.Units.kib 16) in
  let pop_big = time_mmap ~populate:true (Sim.Units.mib 1) in
  let dem_small = time_mmap ~populate:false (Sim.Units.kib 16) in
  let dem_big = time_mmap ~populate:false (Sim.Units.mib 1) in
  check_bool "populate scales with size" true (pop_big > 10 * pop_small);
  check_int "demand mmap cost size-independent" dem_small dem_big

let test_segfault_outside_mapping () =
  let k, p = mk () in
  Alcotest.check_raises "segfault" (Os.Fault.Segfault 0xdead000) (fun () ->
      K.access k p ~va:0xdead000 ~write:false)

let test_segfault_write_to_readonly () =
  let k, p = mk () in
  let va = K.mmap_anon k p ~len:4096 ~prot:Hw.Prot.r ~populate:false in
  ignore (K.access k p ~va ~write:false);
  Alcotest.check_raises "write denied" (Os.Fault.Segfault va) (fun () ->
      K.access k p ~va ~write:true)

(* File mappings *)

let test_mmap_file_shared_reads_file_data () =
  let k, p = mk () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/data" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file fs ino ~off:0 "shared-bytes";
  let va =
    K.mmap_file k p ~fs ~path:"/data" ~prot:Hw.Prot.rw ~share:Os.Vma.Shared ~populate:false ()
  in
  K.access k p ~va ~write:false;
  (* The mapped page is the file's frame: read through physical memory. *)
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  (match Hw.Page_table.lookup table ~va with
  | Some (pa, _) ->
    check_string "file frame mapped" "shared-bytes"
      (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:pa ~len:12))
  | None -> Alcotest.fail "not mapped");
  check_int "one minor fault" 1 (Sim.Stats.get (K.stats k) "minor_fault")

let test_smaps_pss_shared_rounds () =
  let k = mk_kernel () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/pss" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.kib 8);
  let procs = List.init 3 (fun _ -> K.create_process k ()) in
  List.iter
    (fun p ->
      ignore (K.mmap_file k p ~fs ~path:"/pss" ~prot:Hw.Prot.r ~share:Os.Vma.Shared ~populate:true ()))
    procs;
  (* 2 pages shared by 3 processes: PSS = 8192/3 = 2730.67 B. Truncation
     used to report 2730B; nearest rounding gives 2731B. *)
  let summary = Os.Procfs.smaps_summary k (List.hd procs) in
  check_bool "pss rounds to nearest" true (Helpers.contains ~needle:"pss 2731B" summary);
  check_bool "rss unaffected" true (Helpers.contains ~needle:"rss 8KiB" summary)

let test_smaps_machine_gauges () =
  let k, p = mk () in
  let len = Sim.Units.kib 16 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  ignore (K.access_range k p ~va ~len ~write:false ~stride:Sim.Units.page_size);
  let summary = Os.Procfs.smaps_summary k p in
  (* Gauges are machine-wide aggregates kept live by the hot paths: after
     populating 4 pages, residency must match and the TLB holds the
     populate-time insertions. *)
  check_bool "machine roll-up line" true (Helpers.contains ~needle:"machine: resident" summary);
  check_bool "resident matches populated pages" true
    (Helpers.contains ~needle:"resident 4 pages (hwm 4)" summary);
  check_int "gauge agrees with procfs rss" (Os.Procfs.rss_pages p)
    (Sim.Stats.gauge (K.stats k) "resident_pages");
  check_bool "tlb occupancy tracked" true (Sim.Stats.gauge (K.stats k) "tlb_entries" > 0);
  K.munmap k p ~va ~len;
  let summary = Os.Procfs.smaps_summary k p in
  check_bool "unmap drains residency, hwm sticks" true
    (Helpers.contains ~needle:"resident 0 pages (hwm 4)" summary)

let test_mmap_file_private_cow () =
  let k, p = mk () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/cow" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file fs ino ~off:0 "original";
  let va =
    K.mmap_file k p ~fs ~path:"/cow" ~prot:Hw.Prot.rw ~share:Os.Vma.Private ~populate:false ()
  in
  (* Read fault maps the file frame read-only. *)
  K.access k p ~va ~write:false;
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  let pa_before =
    match Hw.Page_table.lookup table ~va with Some (pa, _) -> pa | None -> Alcotest.fail "unmapped"
  in
  (* Write triggers CoW: new frame, file untouched. *)
  K.access k p ~va ~write:true;
  let pa_after =
    match Hw.Page_table.lookup table ~va with Some (pa, _) -> pa | None -> Alcotest.fail "unmapped"
  in
  check_bool "frame replaced" true (pa_before <> pa_after);
  check_int "cow fault counted" 1 (Sim.Stats.get (K.stats k) "cow_fault");
  check_string "file data intact" "original"
    (Bytes.to_string (Fs.Memfs.read_file fs ino ~off:0 ~len:8));
  (* Byte 0 was overwritten by the triggering write; the rest is copied. *)
  check_string "private copy has the data" "riginal"
    (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:(pa_after + 1) ~len:7))

let test_mmap_file_permission_check () =
  let k, p = mk () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/ro" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file fs ino ~off:0 "x";
  Fs.Memfs.set_prot fs ino Hw.Prot.r;
  Alcotest.check_raises "whole-file permission denied"
    (Invalid_argument "Kernel.mmap_file: file permission denied") (fun () ->
      ignore
        (K.mmap_file k p ~fs ~path:"/ro" ~prot:Hw.Prot.rw ~share:Os.Vma.Shared ~populate:false ()))

let test_munmap_releases () =
  let k, p = mk () in
  let len = Sim.Units.kib 16 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  check_int "4 ptes" 4 (Hw.Page_table.pte_count table);
  K.munmap k p ~va ~len;
  check_int "ptes gone" 0 (Hw.Page_table.pte_count table);
  check_bool "vma gone" true (Os.Address_space.find_vma p.Os.Proc.aspace ~va = None);
  Alcotest.check_raises "access after munmap" (Os.Fault.Segfault va) (fun () ->
      K.access k p ~va ~write:false)

let test_munmap_file_drops_reference () =
  let k, p = mk () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/ref" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file fs ino ~off:0 "x";
  let va = K.mmap_file k p ~fs ~path:"/ref" ~prot:Hw.Prot.r ~share:Os.Vma.Shared ~populate:true () in
  check_int "one reference" 1 (Fs.Memfs.inode fs ino).Fs.Inode.refs;
  K.munmap k p ~va ~len:4096;
  check_int "reference dropped" 0 (Fs.Memfs.inode fs ino).Fs.Inode.refs

let test_mprotect () =
  let k, p = mk () in
  let va = K.mmap_anon k p ~len:4096 ~prot:Hw.Prot.rw ~populate:true in
  K.access k p ~va ~write:true;
  K.mprotect k p ~va ~len:4096 ~prot:Hw.Prot.r;
  Alcotest.check_raises "now read-only" (Os.Fault.Segfault va) (fun () ->
      K.access k p ~va ~write:true);
  K.access k p ~va ~write:false

let test_exit_process_cleans_up () =
  let k, p = mk () in
  ignore (K.mmap_anon k p ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ~populate:true);
  check_int "process registered" 1 (K.process_count k);
  K.exit_process k p;
  check_int "process gone" 0 (K.process_count k);
  check_bool "dead" false p.Os.Proc.alive;
  check_int "no ptes left" 0 (Hw.Page_table.pte_count (Os.Address_space.page_table p.Os.Proc.aspace))

let test_mlock_pins () =
  let k, p = mk () in
  let va = K.mmap_anon k p ~len:(Sim.Units.kib 8) ~prot:Hw.Prot.rw ~populate:false in
  K.mlock k p ~va ~len:(Sim.Units.kib 8);
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  (match Hw.Page_table.lookup table ~va with
  | Some (_, leaf) ->
    check_bool "pinned flag" true
      (Os.Page_meta.get_flag (K.page_meta k) leaf.Hw.Page_table.pfn Os.Page_meta.Pinned)
  | None -> Alcotest.fail "mlock did not populate");
  check_int "stat" 2 (Sim.Stats.get (K.stats k) "mlocked_pages")

(* Swap + reclaim *)

let test_swap_roundtrip () =
  let k, _ = mk () in
  let sw = K.swap k in
  let mem = K.mem k in
  Physmem.Phys_mem.write mem ~addr:(Physmem.Frame.to_addr 10) "precious";
  Os.Swap.swap_out sw ~key:(1, 0x1000) ~pfn:10;
  (* The frame stays with its owner; the zero engine scrubs it if freed. *)
  check_string "frame left to its owner" "precious"
    (Bytes.to_string (Physmem.Phys_mem.read mem ~addr:(Physmem.Frame.to_addr 10) ~len:8));
  check_bool "slot exists" true (Os.Swap.contains sw ~pid:1 ~va:0x1000);
  check_bool "restored" true (Os.Swap.swap_in sw ~key:(1, 0x1000) ~pfn:20);
  check_string "contents back" "precious"
    (Bytes.to_string (Physmem.Phys_mem.read mem ~addr:(Physmem.Frame.to_addr 20) ~len:8));
  check_bool "slot consumed" false (Os.Swap.contains sw ~pid:1 ~va:0x1000)

(* A swapfile round trip copies each page once on the way out and once
   on the way back. Warmed over 64 pages, the words per swap_out and per
   swap_in must stay within 1.25x of what they measured when this held
   (copying each page again into a string, per chunk and through a
   buffer took 1,585 and 1,591). *)
let test_swapfile_copies_once () =
  let k = mk_kernel ~config:{ small_config with Os.Kernel.swap_backing = `Pmfs } () in
  let sw = K.swap k in
  let pages = 64 in
  let round () =
    let out = words_per_call pages (fun i -> Os.Swap.swap_out sw ~key:(1, i) ~pfn:(10 + i)) in
    (out, words_per_call pages (fun i -> ignore (Os.Swap.swap_in sw ~key:(1, i) ~pfn:(100 + i))))
  in
  ignore (round ());
  let out, back = round () in
  check_int "every slot swapped back in" 0 (Os.Swap.slots_used sw);
  let within what ~measured got =
    check_bool (Printf.sprintf "%.1f words per %s <= 1.25 x %.1f" got what measured) true (got <= 1.25 *. measured)
  in
  within "swap_out" ~measured:557.4 out;
  within "swap_in" ~measured:556.4 back

let test_reclaim_clock_second_chance () =
  let k, p = mk () in
  let len = Sim.Units.kib 32 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  (* Fault in 8 pages (writes -> dirty). *)
  ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  check_int "tracked" 8 (Os.Reclaim.tracked (K.reclaim k));
  (* All pages were just accessed: first scan clears accessed bits (second
     chance), then evicts. *)
  let got = Os.Reclaim.scan (K.reclaim k) ~target_frames:4 in
  check_int "4 reclaimed" 4 got;
  check_bool "dirty pages went to swap" true (Sim.Stats.get (K.stats k) "reclaim_swapped" >= 4);
  (* Touching a reclaimed page faults it back in (major). *)
  K.access k p ~va ~write:false;
  check_bool "major fault on return" true (Sim.Stats.get (K.stats k) "major_fault" >= 1);
  (* Data integrity via swap round trip is covered by content checks. *)
  check_bool "examined more pages than reclaimed" true
    (Os.Reclaim.pages_examined (K.reclaim k) > 4)

let test_reclaim_preserves_content () =
  let k, p = mk () in
  let va = K.mmap_anon k p ~len:4096 ~prot:Hw.Prot.rw ~populate:false in
  K.access k p ~va ~write:true;
  (* Find the frame and plant recognizable content. *)
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  let pfn =
    match Hw.Page_table.lookup table ~va with
    | Some (_, leaf) -> leaf.Hw.Page_table.pfn
    | None -> Alcotest.fail "unmapped"
  in
  Physmem.Phys_mem.write (K.mem k) ~addr:(Physmem.Frame.to_addr pfn) "survive-swap";
  (* Force eviction (needs two passes: first clears accessed). *)
  let n = Os.Reclaim.scan (K.reclaim k) ~target_frames:1 in
  check_int "evicted" 1 n;
  check_bool "unmapped after eviction" true (Hw.Page_table.lookup table ~va = None);
  (* Fault back and verify content. *)
  K.access k p ~va ~write:false;
  let pa =
    match Hw.Page_table.lookup table ~va with Some (pa, _) -> pa | None -> Alcotest.fail "lost"
  in
  check_string "content survived swap" "survive-swap"
    (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:pa ~len:12))

(* munmap, CoW and exit take each mapping's node off the reclaim lists,
   the nodes of a forked child's mappings of shared frames included, so
   no list holds a page that is gone. *)
let test_unmap_leaves_lists () =
  let k, p = mk () in
  let page = Sim.Units.page_size in
  let len = Sim.Units.mib 1 in
  let pages = len / page in
  let tracked () = Os.Reclaim.tracked (K.reclaim k) in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
  let child = Os.Fork.fork k p in
  check_int "a node per mapping" (2 * pages) (tracked ());
  ignore (K.access_range k child ~va ~len:(len / 2) ~write:true ~stride:page);
  check_int "a CoW fault swaps its mapping's node" (2 * pages) (tracked ());
  K.munmap k p ~va ~len;
  check_int "the parent's munmap takes its nodes off" pages (tracked ());
  K.exit_process k child;
  check_int "the child's exit takes the rest" 0 (tracked ());
  Alcotest.(check (list string)) "clean" [] (List.map Os.Check.violation_to_string (Os.Check.run k))

(* A page first touched off its page boundary is swapped out and back in
   under its page's address: reading it back after reclaim takes a major
   fault and finds what was written, and no swap slot is left behind. *)
let test_reclaim_unaligned_touch () =
  let k, p = mk () in
  let page = Sim.Units.page_size in
  let va = K.mmap_anon k p ~len:(4 * page) ~prot:Hw.Prot.rw ~populate:false in
  let table = Os.Address_space.page_table p.Os.Proc.aspace in
  let pa va = match Hw.Page_table.lookup table ~va with Some (pa, _) -> pa | None -> Alcotest.fail "lost" in
  let at i = va + (i * page) + 100 in
  for i = 0 to 3 do
    K.access k p ~va:(at i) ~write:true;
    Physmem.Phys_mem.write (K.mem k) ~addr:(pa (at i)) (String.make 1 (Char.chr (65 + i)))
  done;
  check_int "4 evicted" 4 (Os.Reclaim.scan (K.reclaim k) ~target_frames:4);
  for i = 0 to 3 do
    K.access k p ~va:(at i) ~write:false;
    check_string "content survived swap" (String.make 1 (Char.chr (65 + i)))
      (Bytes.to_string (Physmem.Phys_mem.read (K.mem k) ~addr:(pa (at i)) ~len:1))
  done;
  check_int "a major fault per page" 4 (Sim.Stats.get (K.stats k) "major_fault");
  check_int "no swap slot left" 0 (Os.Swap.slots_used (K.swap k))

let test_reclaim_two_q () =
  let config = { Helpers.small_config with Os.Kernel.reclaim_policy = Os.Reclaim.Two_q } in
  let k = mk_kernel ~config () in
  let p = K.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  (* Keep the first four pages hot. *)
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 16) ~write:false ~stride:Sim.Units.page_size);
  let got = Os.Reclaim.scan (K.reclaim k) ~target_frames:4 in
  check_int "reclaimed under 2Q" 4 got

let test_read_syscall_returns_bytes () =
  let k, p = mk () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/r" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.write_file fs ino ~off:0 (String.make 16384 'r');
  let n = K.read_syscall k p ~fs ~ino ~off:0 ~len:16384 in
  check_int "full read" 16384 n;
  check_bool "syscall counted" true (Sim.Stats.get (K.stats k) "syscall" > 0)

let test_five_level_kernel_walk_refs () =
  let config = { Helpers.small_config with Os.Kernel.levels = 5 } in
  let k = mk_kernel ~config () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:4096 ~prot:Hw.Prot.rw ~populate:true in
  let before = Sim.Stats.get (K.stats k) "walk_refs" in
  K.access k p ~va ~write:false;
  check_int "5 refs for a 5-level walk" (before + 5) (Sim.Stats.get (K.stats k) "walk_refs")

let test_virtualized_walk_cost () =
  let config = { Helpers.small_config with Os.Kernel.walk_mode = Hw.Walker.Virtualized 4 } in
  let k = mk_kernel ~config () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:4096 ~prot:Hw.Prot.rw ~populate:true in
  let before = Sim.Stats.get (K.stats k) "walk_refs" in
  K.access k p ~va ~write:false;
  check_int "24 refs nested" (before + 24) (Sim.Stats.get (K.stats k) "walk_refs")

let prop_demand_faults_equal_pages_touched =
  qtest "minor faults = distinct pages touched" ~count:30
    QCheck2.Gen.(int_range 1 32)
    (fun pages ->
      let k, p = mk () in
      let len = pages * Sim.Units.page_size in
      let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
      ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
      Sim.Stats.get (K.stats k) "minor_fault" = pages)

(* A frame munmap or exit frees keeps no page flag: the fault that
   mapped it set Uptodate, Swapbacked and Lru. *)
let test_freed_frame_has_no_flags () =
  let k, p = mk () in
  let meta = K.page_meta k and page = Sim.Units.page_size in
  let flags = Os.Page_meta.[ Uptodate; Lru; Active; Head; Swapbacked; Unevictable; Mlocked; Pinned ] in
  let touch () =
    let va = K.mmap_anon k p ~len:page ~prot:Hw.Prot.rw ~populate:false in
    K.access k p ~va ~write:true;
    let pfn = (Hw.Page_table.find (Os.Address_space.page_table p.Os.Proc.aspace) ~va).Hw.Page_table.pfn in
    check_bool "the fault set Uptodate" true (Os.Page_meta.get_flag meta pfn Os.Page_meta.Uptodate);
    (va, pfn)
  in
  let freed what pfn =
    check_int (what ^ ": refcount") 0 (Os.Page_meta.refcount meta pfn);
    check_int (what ^ ": mapcount") 0 (Os.Page_meta.mapcount meta pfn);
    Alcotest.(check (list bool))
      (what ^ ": flags") (List.map (fun _ -> false) flags)
      (List.map (Os.Page_meta.get_flag meta pfn) flags)
  in
  let va, pfn = touch () in
  K.munmap k p ~va ~len:page;
  freed "after munmap" pfn;
  let _, pfn = touch () in
  K.exit_process k p;
  freed "after exit" pfn

let suite =
  [
    Alcotest.test_case "page_meta: flags and refcounts" `Quick test_page_meta_flags_refs;
    Alcotest.test_case "page_meta: boot init linear" `Quick test_page_meta_boot_cost_linear;
    Alcotest.test_case "vma: merge rules" `Quick test_vma_merge_rules;
    Alcotest.test_case "aspace: insert merges anon VMAs" `Quick test_aspace_insert_merges;
    Alcotest.test_case "aspace: remove splits VMAs" `Quick test_aspace_remove_splits;
    Alcotest.test_case "kernel: demand faults" `Quick test_mmap_anon_demand_faults;
    Alcotest.test_case "kernel: MAP_POPULATE avoids faults" `Quick test_mmap_anon_populate_no_faults;
    Alcotest.test_case "kernel: populate linear, demand flat (Fig 6a)" `Quick
      test_mmap_populate_cost_linear_demand_flat;
    Alcotest.test_case "kernel: segfault outside mappings" `Quick test_segfault_outside_mapping;
    Alcotest.test_case "kernel: segfault on readonly write" `Quick test_segfault_write_to_readonly;
    Alcotest.test_case "kernel: shared file mapping" `Quick test_mmap_file_shared_reads_file_data;
    Alcotest.test_case "kernel: private file CoW" `Quick test_mmap_file_private_cow;
    Alcotest.test_case "procfs: shared-mapping PSS rounds to nearest" `Quick
      test_smaps_pss_shared_rounds;
    Alcotest.test_case "procfs: smaps machine gauge roll-up" `Quick test_smaps_machine_gauges;
    Alcotest.test_case "kernel: file permission check" `Quick test_mmap_file_permission_check;
    Alcotest.test_case "kernel: munmap releases pages" `Quick test_munmap_releases;
    Alcotest.test_case "kernel: munmap drops file reference" `Quick test_munmap_file_drops_reference;
    Alcotest.test_case "kernel: mprotect" `Quick test_mprotect;
    Alcotest.test_case "kernel: exit cleans up" `Quick test_exit_process_cleans_up;
    Alcotest.test_case "kernel: mlock pins pages" `Quick test_mlock_pins;
    Alcotest.test_case "swap: round trip" `Quick test_swap_roundtrip;
    Alcotest.test_case "reclaim: CLOCK second chance" `Quick test_reclaim_clock_second_chance;
    Alcotest.test_case "reclaim: content survives swap" `Quick test_reclaim_preserves_content;
    Alcotest.test_case "reclaim: 2Q policy" `Quick test_reclaim_two_q;
    Alcotest.test_case "kernel: read() syscall" `Quick test_read_syscall_returns_bytes;
    Alcotest.test_case "kernel: 5-level walks" `Quick test_five_level_kernel_walk_refs;
    Alcotest.test_case "kernel: virtualized walks cost 24 refs" `Quick test_virtualized_walk_cost;
    prop_demand_faults_equal_pages_touched;
    Alcotest.test_case "kernel: a fault reuses a frame buffer" `Quick test_fault_reuses_frame_buffers;
    Alcotest.test_case "kernel: a CoW fault copies its page once" `Quick test_cow_fault_copies_once;
    Alcotest.test_case "swap: a swapfile round trip copies each page once" `Quick test_swapfile_copies_once;
    Alcotest.test_case "reclaim: a page touched off its boundary comes back" `Quick
      test_reclaim_unaligned_touch;
    Alcotest.test_case "reclaim: unmapped pages leave the lists" `Quick test_unmap_leaves_lists;
    Alcotest.test_case "kernel: a freed frame keeps no flag" `Quick test_freed_frame_has_no_flags;
  ]
