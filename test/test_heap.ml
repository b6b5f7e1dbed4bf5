open Helpers
module K = Os.Kernel

let mk_malloc () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  (k, p, Heap.Malloc_sim.create k p)

let test_malloc_basic () =
  let _, _, h = mk_malloc () in
  let a = Heap.Malloc_sim.malloc h ~bytes:100 in
  let b = Heap.Malloc_sim.malloc h ~bytes:100 in
  check_bool "distinct" true (a <> b);
  check_bool "size class rounding" true (Heap.Malloc_sim.size_of h a = Some 128);
  Heap.Malloc_sim.free h a;
  let a' = Heap.Malloc_sim.malloc h ~bytes:100 in
  check_int "free-list reuse" a a'

let test_malloc_large_uses_mmap () =
  let _, _, h = mk_malloc () in
  let before = Heap.Malloc_sim.arena_count h in
  let big = Heap.Malloc_sim.malloc h ~bytes:(Sim.Units.kib 256) in
  check_int "no arena used for large" before (Heap.Malloc_sim.arena_count h);
  check_bool "page-rounded" true (Heap.Malloc_sim.size_of h big = Some (Sim.Units.kib 256));
  Heap.Malloc_sim.free h big;
  check_bool "freed" true (Heap.Malloc_sim.size_of h big = None)

let test_malloc_touch_faults () =
  let k, p, h = mk_malloc () in
  let va = Heap.Malloc_sim.malloc h ~bytes:(Sim.Units.kib 256) in
  ignore (K.access_range k p ~va ~len:(Sim.Units.kib 256) ~write:true ~stride:Sim.Units.page_size);
  check_int "touching mallocd memory faults per page" 64
    (Sim.Stats.get (K.stats k) "minor_fault")

let test_malloc_accounting () =
  let _, _, h = mk_malloc () in
  let a = Heap.Malloc_sim.malloc h ~bytes:1000 in
  check_int "live" 1024 (Heap.Malloc_sim.live_bytes h);
  check_bool "footprint covers arena" true (Heap.Malloc_sim.footprint_bytes h >= Sim.Units.mib 1);
  Heap.Malloc_sim.free h a;
  check_int "live zero" 0 (Heap.Malloc_sim.live_bytes h);
  Alcotest.check_raises "double free" (Invalid_argument "Malloc_sim.free: unknown block")
    (fun () -> Heap.Malloc_sim.free h a)

let mk_fheap () =
  let kernel, fom = mk_fom () in
  let proc = Os.Kernel.create_process kernel () in
  (kernel, fom, proc, Heap.Fom_heap.create fom proc ())

let test_fom_heap_basic () =
  let _, _, _, h = mk_fheap () in
  let a = Heap.Fom_heap.malloc h ~bytes:100 in
  let b = Heap.Fom_heap.malloc h ~bytes:5000 in
  check_bool "distinct" true (a <> b);
  check_bool "sizes" true (Heap.Fom_heap.size_of h a = Some 128);
  Heap.Fom_heap.free h a;
  let a' = Heap.Fom_heap.malloc h ~bytes:90 in
  check_int "reuse" a a'

let test_fom_heap_large_is_own_file () =
  let _, fom, _, h = mk_fheap () in
  let files_before = Fs.Memfs.file_count (O1mem.Fom.fs fom) in
  let big = Heap.Fom_heap.malloc h ~bytes:(Sim.Units.mib 1) in
  check_int "one more file" (files_before + 1) (Fs.Memfs.file_count (O1mem.Fom.fs fom));
  Heap.Fom_heap.free h big;
  check_int "file deleted on free" files_before (Fs.Memfs.file_count (O1mem.Fom.fs fom))

let test_fom_heap_no_faults_on_touch () =
  let kernel, fom, proc, h = mk_fheap () in
  let va = Heap.Fom_heap.malloc h ~bytes:(Sim.Units.kib 256) in
  ignore
    (O1mem.Fom.access_range fom proc ~va ~len:(Sim.Units.kib 256) ~write:true
       ~stride:Sim.Units.page_size);
  check_int "no faults" 0 (Sim.Stats.get (Os.Kernel.stats kernel) "page_fault")

let test_fom_heap_destroy () =
  let _, fom, _, h = mk_fheap () in
  let fs = O1mem.Fom.fs fom in
  let free0 = Fs.Memfs.free_bytes fs in
  ignore (Heap.Fom_heap.malloc h ~bytes:1000);
  ignore (Heap.Fom_heap.malloc h ~bytes:(Sim.Units.mib 1));
  check_bool "space in use" true (Fs.Memfs.free_bytes fs < free0);
  Heap.Fom_heap.destroy h;
  check_int "all space returned" free0 (Fs.Memfs.free_bytes fs);
  check_int "no regions" 0 (Heap.Fom_heap.region_count h)

(* Reattach into a fresh process: VAs move, arena-relative names do not. *)
let test_fom_heap_reattach () =
  let kernel, fom = mk_fom () in
  let h = Heap.Fom_heap.create fom (K.create_process kernel ()) ~file_prefix:"/heap" () in
  let blocks = List.init 48 (fun i -> Heap.Fom_heap.malloc h ~bytes:(1 + (i * 7919 mod 65_536))) in
  check_bool "several arenas" true (Heap.Fom_heap.arena_count h > 1);
  let loc va = Option.get (Heap.Fom_heap.locate h va) in
  let named va = (loc va, Option.get (Heap.Fom_heap.size_of h va)) in
  let freed = List.nth blocks 5 and last = List.nth blocks 47 in
  let (freed_arena, freed_off), _ = named freed in
  let (last_arena, last_off), last_size = named last in
  Heap.Fom_heap.free h freed;
  let live () =
    let l = ref [] in
    Heap.Fom_heap.iter_live h (fun va _ -> l := named va :: !l);
    List.sort compare !l
  in
  let before = live () in
  let proc = K.create_process kernel () in
  ignore (O1mem.Fom.alloc fom proc ~len:(Sim.Units.mib 1) ~prot:Hw.Prot.rw ());
  Heap.Fom_heap.reattach h proc;
  check_bool "arenas moved" true (Heap.Fom_heap.address h ~arena:last_arena ~off:last_off <> last);
  check_bool "every live block keeps its (arena, offset) and size" true (live () = before);
  check_int "a freed class hands out the freed block"
    (Heap.Fom_heap.address h ~arena:freed_arena ~off:freed_off)
    (Heap.Fom_heap.malloc h ~bytes:(1 + (5 * 7919 mod 65_536)));
  check_bool "the next carve continues the last arena" true
    (loc (Heap.Fom_heap.malloc h ~bytes:16) = (last_arena, last_off + last_size))

(* One model for every backend: interleaved mallocs and frees against a
   pure map of the live blocks. *)
module S = Heap.Size_class
module IM = Map.Make (Int)

type heap = {
  malloc : int -> int;
  free : int -> unit;
  size_of : int -> int option;
  live_bytes : unit -> int;
  footprint : unit -> int;
}

let heaps () =
  let k, fom = mk_fom () in
  let mh = Heap.Malloc_sim.create k (K.create_process k ()) in
  let th = Heap.Tcmalloc_sim.create k (K.create_process k ()) in
  let fh = Heap.Fom_heap.create fom (K.create_process k ()) () in
  [
    ( "malloc",
      {
        malloc = (fun bytes -> Heap.Malloc_sim.malloc mh ~bytes);
        free = Heap.Malloc_sim.free mh;
        size_of = Heap.Malloc_sim.size_of mh;
        live_bytes = (fun () -> Heap.Malloc_sim.live_bytes mh);
        footprint = (fun () -> Heap.Malloc_sim.footprint_bytes mh);
      } );
    ( "tcmalloc",
      {
        malloc = (fun bytes -> Heap.Tcmalloc_sim.malloc th ~thread:0 ~bytes);
        free = Heap.Tcmalloc_sim.free th ~thread:0;
        size_of = Heap.Tcmalloc_sim.size_of th;
        live_bytes = (fun () -> Heap.Tcmalloc_sim.live_bytes th);
        footprint = (fun () -> Heap.Tcmalloc_sim.footprint_bytes th);
      } );
    ( "fom",
      {
        malloc = (fun bytes -> Heap.Fom_heap.malloc fh ~bytes);
        free = Heap.Fom_heap.free fh;
        size_of = Heap.Fom_heap.size_of fh;
        live_bytes = (fun () -> Heap.Fom_heap.live_bytes fh);
        footprint = (fun () -> Heap.Fom_heap.footprint_bytes fh);
      } );
  ]

let model_size bytes =
  if bytes >= S.large_threshold then Sim.Units.round_up bytes ~align:Sim.Units.page_size
  else S.class_size (S.class_of bytes)

(* [`Free i] frees the i-th live block (mod the live count). *)
let run_model (name, h) ops =
  let fail fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) name in
  let live = ref IM.empty (* va -> requested bytes *) and freed = Array.make S.classes [] in
  List.iter
    (fun op ->
      (match op with
      | `Malloc bytes ->
        let va = h.malloc bytes and size = model_size bytes in
        if h.size_of va <> Some size then fail "malloc %d: size_of is not %d" bytes size;
        (match IM.find_last_opt (fun v -> v < va + size) !live with
        | Some (v, b) when v + model_size b > va ->
          fail "malloc %d at %d overlaps the block at %d" bytes va v
        | _ -> ());
        (if bytes < S.large_threshold then
           match freed.(S.class_of bytes) with
           | last :: rest ->
             if va <> last then fail "malloc %d: got %d, not the freed %d" bytes va last;
             freed.(S.class_of bytes) <- rest
           | [] -> ());
        live := IM.add va bytes !live
      | `Free i when not (IM.is_empty !live) ->
        let va, bytes = List.nth (IM.bindings !live) (i mod IM.cardinal !live) in
        h.free va;
        live := IM.remove va !live;
        if h.size_of va <> None then fail "free %d: still live" va;
        if bytes < S.large_threshold then freed.(S.class_of bytes) <- va :: freed.(S.class_of bytes)
      | `Free _ -> ());
      let model_live = IM.fold (fun _ b acc -> acc + model_size b) !live 0 in
      let live_bytes = h.live_bytes () and footprint = h.footprint () in
      if live_bytes <> model_live then fail "live_bytes %d, model %d" live_bytes model_live;
      if footprint < model_live then fail "footprint %d below live %d" footprint model_live)
    ops

let prop_heap_model =
  let op =
    QCheck2.Gen.(
      frequency
        [
          (4, map (fun b -> `Malloc b) (int_range 1 20_000));
          (1, map (fun b -> `Malloc b) (int_range 20_000 400_000));
          (4, map (fun i -> `Free i) nat);
        ])
  in
  let print = function
    | `Malloc b -> Printf.sprintf "malloc %d" b
    | `Free i -> Printf.sprintf "free #%d" i
  in
  qtest "heap model: three backends" ~count:50 ~print:(QCheck2.Print.list print)
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 60) op)
    (fun ops ->
      List.iter (fun h -> run_model h ops) (heaps ());
      true)

let suite =
  [
    Alcotest.test_case "malloc: size classes + reuse" `Quick test_malloc_basic;
    Alcotest.test_case "malloc: large goes to mmap" `Quick test_malloc_large_uses_mmap;
    Alcotest.test_case "malloc: touches fault per page" `Quick test_malloc_touch_faults;
    Alcotest.test_case "malloc: accounting + double free" `Quick test_malloc_accounting;
    Alcotest.test_case "fom heap: size classes + reuse" `Quick test_fom_heap_basic;
    Alcotest.test_case "fom heap: large blocks are files" `Quick test_fom_heap_large_is_own_file;
    Alcotest.test_case "fom heap: no faults on touch" `Quick test_fom_heap_no_faults_on_touch;
    Alcotest.test_case "fom heap: destroy returns space" `Quick test_fom_heap_destroy;
    Alcotest.test_case "fom heap: reattach keeps locations" `Quick test_fom_heap_reattach;
    prop_heap_model;
  ]
