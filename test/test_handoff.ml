(* The baseline VM's frame hand-off: every user page gets its frame
   through Page_meta.map and returns it through Page_meta.unmap. One
   case per frame-ownership defect the hand-off closed, a reclaim-level
   case for the zeroing contract, and a model test of page contents. *)
open Helpers
module K = Os.Kernel

let page = Sim.Units.page_size
let tag i = Char.chr (1 + (i mod 255))

let pa_of p ~va =
  match Hw.Page_table.lookup (Os.Address_space.page_table p.Os.Proc.aspace) ~va with
  | Some (pa, _) -> pa
  | None -> Alcotest.failf "va 0x%x not mapped" va

let write_byte k p ~va c =
  K.access k p ~va ~write:true;
  Physmem.Phys_mem.write (K.mem k) ~addr:(pa_of p ~va) (String.make 1 c)

let read_byte k p ~va =
  K.access k p ~va ~write:false;
  Bytes.get (Physmem.Phys_mem.read (K.mem k) ~addr:(pa_of p ~va) ~len:1) 0

(* A fresh anonymous mapping of [pages] pages, page i holding [tag i]. *)
let tagged k p ~pages =
  let va = K.mmap_anon k p ~len:(pages * page) ~prot:Hw.Prot.rw ~populate:false in
  for i = 0 to pages - 1 do
    write_byte k p ~va:(va + (i * page)) (tag i)
  done;
  va

let lost_pages k p ~va ~pages =
  List.length
    (List.filter (fun i -> read_byte k p ~va:(va + (i * page)) <> tag i) (List.init pages Fun.id))

let check_intact k p ~va ~pages what = check_int what 0 (lost_pages k p ~va ~pages)

let check_clean k what =
  Alcotest.(check (list string)) what [] (List.map Os.Check.violation_to_string (Os.Check.run k))

(* Launder every freed frame into the zero pool, then let a third
   process populate 8 MiB from it and overwrite all of it: any frame
   wrongly recycled into the free pools is handed to it here. *)
let third_process k =
  ignore (K.background_zero k ~budget_frames:4096);
  let p = K.create_process k () in
  let len = Sim.Units.mib 8 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  for i = 0 to (len / page) - 1 do
    write_byte k p ~va:(va + (i * page)) '\xff'
  done

let collapse_all k p ~va ~len =
  let rec go w =
    w >= va + len || (Os.Thp.collapse_window k p ~va:w && go (w + Sim.Units.huge_2m))
  in
  check_bool "collapsed" true (go va)

(* 1. Evicting a child's mappings must not free frames the parent maps. *)
let test_fork_then_reclaim () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let va = tagged k parent ~pages:16 in
  ignore (Os.Fork.fork k parent);
  check_int "child's 16 mappings evicted" 16 (Os.Reclaim.scan (K.reclaim k) ~target_frames:16);
  check_clean k "clean after reclaim";
  third_process k;
  check_intact k parent ~va ~pages:16 "parent keeps its pages";
  check_clean k "clean after the third process"

(* 2. Collapsing the parent's pages must not free frames the child maps. *)
let test_fork_then_collapse () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let len = Sim.Units.mib 4 in
  let va = tagged k parent ~pages:(len / page) in
  let child = Os.Fork.fork k parent in
  collapse_all k parent ~va ~len;
  check_clean k "clean after collapse";
  third_process k;
  check_intact k child ~va ~pages:(len / page) "child keeps its pages";
  check_intact k parent ~va ~pages:(len / page) "parent's huge pages hold the data"

(* 3. Fork splits huge leaves; each of the 512 base pages is counted. *)
let test_collapse_then_fork () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let len = Sim.Units.mib 4 in
  let va = tagged k parent ~pages:(len / page) in
  collapse_all k parent ~va ~len;
  let child = Os.Fork.fork k parent in
  check_clean k "split pages accounted";
  K.munmap k parent ~va ~len;
  check_clean k "clean after the parent's munmap";
  third_process k;
  check_intact k child ~va ~pages:(len / page) "child keeps its pages"

(* 4. A child's inherited pages are as dirty as the parent's: reclaim
   must swap them, not drop them. *)
let test_fork_child_dirty () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let va = tagged k parent ~pages:16 in
  let child = Os.Fork.fork k parent in
  check_int "child's 16 mappings evicted" 16 (Os.Reclaim.scan (K.reclaim k) ~target_frames:16);
  check_int "swapped, not dropped" 16 (Sim.Stats.get (K.stats k) "reclaim_swapped");
  check_intact k child ~va ~pages:16 "child keeps its inherited pages"

(* A collapse keeps its pages' dirty bits and a split passes them on, so
   a child forked from a collapsed range swaps its pages, too. *)
let test_collapse_keeps_dirty () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let pages = Sim.Units.huge_2m / page in
  let va = tagged k parent ~pages in
  collapse_all k parent ~va ~len:Sim.Units.huge_2m;
  let child = Os.Fork.fork k parent in
  check_int "child's mappings evicted" pages (Os.Reclaim.scan (K.reclaim k) ~target_frames:pages);
  check_int "swapped, not dropped" pages (Sim.Stats.get (K.stats k) "reclaim_swapped");
  check_intact k child ~va ~pages "child keeps its pages"

(* 5. Swapping out one mapping of a shared frame must not wipe it. *)
let test_swap_out_shared () =
  let k = mk_kernel () in
  let parent = K.create_process k () in
  let va = tagged k parent ~pages:16 in
  let child = Os.Fork.fork k parent in
  (* The child reads first, so the parent's copies are evicted. *)
  check_intact k child ~va ~pages:16 "child reads before reclaim";
  check_int "parent's 16 mappings evicted" 16 (Os.Reclaim.scan (K.reclaim k) ~target_frames:16);
  check_clean k "clean after reclaim";
  check_intact k child ~va ~pages:16 "child keeps its pages";
  check_intact k parent ~va ~pages:16 "parent swaps its pages back in"

(* 6. The last unmap of an mlocked frame drops its pin and flags. *)
let test_munmap_mlocked () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  K.mlock k p ~va ~len;
  K.munmap k p ~va ~len;
  check_clean k "no pinned frame in the pools";
  (* Launder the 16 frames into the zero pool, where the next populate
     takes them first. *)
  ignore (K.background_zero k ~budget_frames:16);
  let q = K.create_process k () in
  let len = Sim.Units.mib 8 in
  ignore (K.mmap_anon k q ~len ~prot:Hw.Prot.rw ~populate:true);
  check_int "every page of the next owner is evictable" (len / page)
    (Os.Reclaim.scan (K.reclaim k) ~target_frames:(len / page))

(* 7. Unmapping a collapsed 2 MiB page frees all 512 of its frames, as
   unmapping 512 base pages does, and so do the page-table nodes the
   unmap prunes. *)
let test_munmap_huge () =
  List.iter
    (fun thp ->
      let k = mk_kernel () in
      let p = K.create_process k () in
      let table = Os.Address_space.page_table p.Os.Proc.aspace in
      let va = K.mmap_anon k p ~len:Sim.Units.huge_2m ~prot:Hw.Prot.rw ~populate:true in
      if thp then collapse_all k p ~va ~len:Sim.Units.huge_2m;
      let before = pooled k and nodes = Hw.Page_table.node_count table in
      K.munmap k p ~va ~len:Sim.Units.huge_2m;
      let pruned = nodes - Hw.Page_table.node_count table in
      check_bool "munmap prunes the emptied path" true (pruned > 0);
      check_int "all 512 frames and every pruned node freed" (512 + pruned) (pooled k - before);
      check_clean k "clean after munmap")
    [ false; true ]

(* 8. A process that exits gives its page table back: 1,000 rounds of
   create, touch one page and exit on a 16 MiB machine lose no frame. *)
let test_exit_returns_page_table () =
  let k = mk_kernel ~config:{ small_config with K.dram_bytes = Sim.Units.mib 16 } () in
  let before = pooled k in
  for _ = 1 to 1_000 do
    let p = K.create_process k () in
    write_byte k p ~va:(K.mmap_anon k p ~len:page ~prot:Hw.Prot.rw ~populate:false) 'x';
    K.exit_process k p
  done;
  check_int "free frames back where they started" before (pooled k);
  check_clean k "clean after 1,000 exits"

(* 9. munmap of a private file mapping frees the CoW copies its writes
   made, not just the page-table nodes: 4 copies and 6 nodes, 3 of them
   pruned and rebuilt by the first CoW. *)
let test_munmap_private_file () =
  let k = mk_kernel () in
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/private" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:(4 * page);
  let p = K.create_process k () in
  let before = pooled k in
  let va =
    K.mmap_file k p ~fs ~path:"/private" ~prot:Hw.Prot.rw ~share:Os.Vma.Private ~populate:false ()
  in
  for i = 0 to 3 do
    write_byte k p ~va:(va + (i * page)) (tag i)
  done;
  check_int "a CoW copy per page" 4 (Sim.Stats.get (K.stats k) "cow_fault");
  check_int "6 nodes built" 6 (Sim.Stats.get (K.stats k) "pt_node_alloc");
  K.munmap k p ~va ~len:(4 * page);
  check_int "every frame comes back" before (pooled k);
  check_clean k "clean after munmap"

(* 10. A crash gives back every frame its dead processes held: their
   page tables through the kernel's sink and their pages to the zero
   engine, with no cycle charged while the machine is off. *)
let test_crash_returns_frames () =
  let k = mk_kernel () in
  let before = pooled k in
  for _ = 1 to 3 do
    let p = K.create_process k () in
    ignore (tagged k p ~pages:16);
    let now = Sim.Clock.now (K.clock k) in
    K.reset_after_crash k;
    check_int "the crash charges nothing" now (Sim.Clock.now (K.clock k))
  done;
  check_int "free frames back where they started" before (pooled k);
  check_clean k "clean after the crashes"

(* 11. Exit gives back the pages a userfault handler installed outside
   every VMA, and drops the dead pid's registrations: 10 rounds of
   "register 16 KiB, fault 4 pages through Zero_page, exit" return all 40
   frames. *)
let test_exit_returns_userfault_pages () =
  let k = mk_kernel () in
  let before = pooled k in
  for _ = 1 to 10 do
    let p = K.create_process k () in
    let base = 0x5000_0000 in
    Os.Userfault.register (K.userfault k) ~pid:p.Os.Proc.pid ~va:base ~len:(4 * page)
      ~prot:Hw.Prot.rw (fun ~va:_ ~write:_ -> Os.Userfault.Zero_page);
    for i = 0 to 3 do
      K.access k p ~va:(base + (i * page)) ~write:true
    done;
    K.exit_process k p;
    check_int "registrations dropped" 0 (Os.Userfault.region_count (K.userfault k) ~pid:p.Os.Proc.pid)
  done;
  check_int "all 40 frames come back" before (pooled k);
  check_clean k "clean after 10 userfault exits"

(* Swap-out leaves the frame to its owner; the zero engine scrubs it once
   it is freed, and the next owner reads zeros. *)
let test_evicted_frame_laundered () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = tagged k p ~pages:1 in
  let pfn = Physmem.Frame.of_addr (pa_of p ~va) in
  let zeroed = Sim.Stats.get (K.stats k) "bytes_zeroed" in
  check_int "evicted" 1 (Os.Reclaim.scan (K.reclaim k) ~target_frames:1);
  check_int "swapped" 1 (Sim.Stats.get (K.stats k) "reclaim_swapped");
  check_bool "laundered" true (Physmem.Phys_mem.frame_is_zero (K.mem k) pfn);
  check_int "zeroed once" page (Sim.Stats.get (K.stats k) "bytes_zeroed" - zeroed);
  let q = K.create_process k () in
  let va' = K.mmap_anon k q ~len:page ~prot:Hw.Prot.rw ~populate:true in
  check_int "next owner gets the frame" pfn (Physmem.Frame.of_addr (pa_of q ~va:va'));
  check_bool "next owner reads zeros" true (read_byte k q ~va:va' = '\000');
  check_intact k p ~va ~pages:1 "first owner swaps its page back in"

(* --- Model test: page contents under every baseline VM operation ----- *)

(* The model is what each process should read at every page it wrote
   (pages it never wrote read zero); VMAs are 2 MiB, so every THP window
   lies inside one VMA. *)
type model = {
  k : K.t;
  mutable procs : (Os.Proc.t * int list ref) list; (* live processes and their VMA bases *)
  bytes : (int * int, char) Hashtbl.t; (* (pid, va) -> byte *)
  mutable stamp : int;
}

let vma_len = Sim.Units.huge_2m
let touched = 16 (* pages per VMA the model writes, reads and advises *)

let expect m (p : Os.Proc.t) ~va c =
  let got = read_byte m.k p ~va in
  if got <> c then
    QCheck2.Test.fail_reportf "pid %d va 0x%x: read %C, model %C" p.Os.Proc.pid va got c

let model_check m =
  (match Os.Check.run m.k with
  | [] -> ()
  | v :: _ as vs ->
    QCheck2.Test.fail_reportf "%d violation(s), first %s" (List.length vs)
      (Os.Check.violation_to_string v));
  List.iter
    (fun ((p : Os.Proc.t), _) ->
      Hashtbl.iter (fun (pid, va) c -> if pid = p.Os.Proc.pid then expect m p ~va c) m.bytes)
    m.procs

let forget m pid ~va ~len =
  Hashtbl.filter_map_inplace
    (fun (p, a) c -> if p = pid && a >= va && a < va + len then None else Some c)
    m.bytes

(* Each op names its target by indices folded into range. *)
let step m (op, a, b) =
  let k = m.k in
  let p, vmas = List.nth m.procs (a mod List.length m.procs) in
  let pid = p.Os.Proc.pid in
  let vma_va () = List.nth !vmas (b mod List.length !vmas) in
  let page_va () = vma_va () + (b / 7 mod touched * page) in
  match op with
  | 0 when List.length !vmas < 2 ->
    let va = K.mmap_anon k p ~len:vma_len ~prot:Hw.Prot.rw ~populate:(b mod 4 = 0) in
    vmas := va :: !vmas
  | 1 when !vmas <> [] ->
    let va = page_va () in
    m.stamp <- m.stamp + 1;
    let c = tag m.stamp in
    write_byte k p ~va c;
    Hashtbl.replace m.bytes (pid, va) c
  | 2 when !vmas <> [] ->
    let va = page_va () in
    expect m p ~va (Option.value (Hashtbl.find_opt m.bytes (pid, va)) ~default:'\000')
  | 3 when List.length m.procs < 3 ->
    let child = Os.Fork.fork k p in
    let cpid = child.Os.Proc.pid in
    Hashtbl.iter (fun (q, va) c -> if q = pid then Hashtbl.replace m.bytes (cpid, va) c)
      (Hashtbl.copy m.bytes);
    m.procs <- m.procs @ [ (child, ref !vmas) ]
  | 4 when !vmas <> [] ->
    let va = vma_va () in
    K.munmap k p ~va ~len:vma_len;
    vmas := List.filter (( <> ) va) !vmas;
    forget m pid ~va ~len:vma_len
  | 5 when !vmas <> [] ->
    (* MADV_DONTNEED zeroes the base pages it finds mapped; it skips
       huge leaves and swapped-out pages. *)
    let va = page_va () in
    let len = (1 + (a mod 4)) * page in
    let table = Os.Address_space.page_table p.Os.Proc.aspace in
    let small = ref [] in
    for i = 0 to (len / page) - 1 do
      let v = va + (i * page) in
      match Hw.Page_table.lookup table ~va:v with
      | Some (_, l) when l.Hw.Page_table.size = Hw.Page_size.Small -> small := v :: !small
      | _ -> ()
    done;
    ignore (K.madvise_dontneed k p ~va ~len);
    List.iter (fun v -> Hashtbl.replace m.bytes (pid, v) '\000') !small
  | 6 when !vmas <> [] -> K.mlock k p ~va:(page_va ()) ~len:((1 + (a mod 4)) * page)
  | 7 -> ignore (Os.Reclaim.scan (K.reclaim k) ~target_frames:(1 + b))
  | 8 when !vmas <> [] -> ignore (Os.Thp.collapse_window k p ~va:(vma_va ()))
  | 9 when !vmas <> [] -> ignore (Os.Thp.split_huge k p ~va:(vma_va ()))
  | 10 when List.length m.procs > 1 ->
    K.exit_process k p;
    m.procs <- List.filter (fun (q, _) -> q != p) m.procs;
    forget m pid ~va:0 ~len:max_int
  | _ -> ()

let op_name = function
  | 0 -> "mmap" | 1 -> "write" | 2 -> "read" | 3 -> "fork" | 4 -> "munmap"
  | 5 -> "dontneed" | 6 -> "mlock" | 7 -> "reclaim" | 8 -> "collapse" | 9 -> "split"
  | _ -> "exit"

let print_ops ops =
  String.concat "; "
    (List.map (fun (op, a, b) -> Printf.sprintf "%s %d %d" (op_name op) a b) ops)

let prop_vm_model =
  qtest "baseline VM matches a page-contents model" ~count:100 ~print:print_ops
    QCheck2.Gen.(
      list_size (int_range 1 20) (triple (int_bound 10) (int_bound 1000) (int_bound 1000)))
    (fun ops ->
      let k = mk_kernel () in
      let procs = [ (K.create_process k (), ref []) ] in
      let m = { k; procs; bytes = Hashtbl.create 64; stamp = 0 } in
      List.iter
        (fun op ->
          step m op;
          model_check m)
        ops;
      true)

let suite =
  [
    Alcotest.test_case "defect 1: fork, then reclaim" `Quick test_fork_then_reclaim;
    Alcotest.test_case "defect 2: fork, then THP collapse" `Quick test_fork_then_collapse;
    Alcotest.test_case "defect 3: THP collapse, then fork" `Quick test_collapse_then_fork;
    Alcotest.test_case "defect 4: fork's child pages stay dirty" `Quick test_fork_child_dirty;
    Alcotest.test_case "split: collapsed pages stay dirty" `Quick test_collapse_keeps_dirty;
    Alcotest.test_case "defect 5: swap-out of a shared frame" `Quick test_swap_out_shared;
    Alcotest.test_case "defect 6: munmap of mlocked pages" `Quick test_munmap_mlocked;
    Alcotest.test_case "defect 7: munmap of a collapsed page" `Quick test_munmap_huge;
    Alcotest.test_case "reclaim: evicted frame laundered once" `Quick test_evicted_frame_laundered;
    Alcotest.test_case "defect 8: exit leaves its page table" `Quick test_exit_returns_page_table;
    Alcotest.test_case "defect 9: munmap of a private file mapping" `Quick test_munmap_private_file;
    Alcotest.test_case "defect 10: a crash's dead processes" `Quick test_crash_returns_frames;
    Alcotest.test_case "defect 11: exit gives back userfault pages" `Quick
      test_exit_returns_userfault_pages;
    prop_vm_model;
  ]
