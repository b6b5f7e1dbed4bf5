(* E3/E9/E14/E15 — allocation-path experiments (paper Figure 2/7, the
   §4.1 erase discussion, the headline O(1) claim, and the
   space-for-time trade). *)
open Bench_env

(* E3 / Figure 2-7: allocating + touching N pages via malloc(MAP_ANON)
   vs a PMFS file. The paper: "using the file system to allocate memory
   has little extra cost". *)
let fig7 () =
  let t = Sim.Table.create ~title:"Figure 2/7 - allocate+touch N pages: malloc vs PMFS file (us)"
      ~columns:[ "pages"; "malloc (anon)"; "pmfs file (FOM)"; "pmfs/malloc" ]
  in
  List.iter
    (fun pages ->
      let len = pages * Sim.Units.page_size in
      let t_malloc =
        let k = kernel ~dram:(Sim.Units.mib 512) () in
        let p = K.create_process k () in
        let h = Heap.Malloc_sim.create k p in
        time_us k (fun () ->
            let va = Heap.Malloc_sim.malloc h ~bytes:len in
            touch_pages_kernel k p ~va ~len ~write:true)
      in
      let t_pmfs =
        let k, fom = kernel_and_fom () in
        let p = K.create_process k () in
        time_us k (fun () ->
            let r = F.alloc fom p ~len ~prot:Hw.Prot.rw () in
            touch_pages_fom fom p ~va:r.F.va ~len ~write:true)
      in
      Sim.Table.add_row t
        [
          Sim.Table.cell_int pages;
          Sim.Table.cell_float t_malloc;
          Sim.Table.cell_float t_pmfs;
          Sim.Table.cell_float (t_pmfs /. t_malloc);
        ])
    (Wl.Workload.page_sweep ());
  t

(* E9: erase strategies across extent sizes; the critical-path cost the
   allocator pays before memory can be reused. *)
let tab_erase () =
  let t = Sim.Table.create ~title:"E9 - erase-on-reuse critical path (us)"
      ~columns:[ "extent"; "eager memset"; "background queue"; "bulk device erase" ]
  in
  List.iter
    (fun mb ->
      let frames = Sim.Units.mib mb / Sim.Units.page_size in
      let cost strategy =
        let mem =
          Physmem.Phys_mem.create
            ~clock:(Sim.Clock.create ())
            ~stats:(Sim.Stats.create ()) ~dram_bytes:(Sim.Units.gib 2) ~nvm_bytes:0 ()
        in
        let e = O1mem.Erase.create ~mem ~strategy in
        let c =
          O1mem.Erase.critical_path_cycles e (fun () ->
              O1mem.Erase.erase_extent e ~first:0 ~count:frames)
        in
        Sim.Clock.us c
      in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes (Sim.Units.mib mb);
          Sim.Table.cell_float (cost O1mem.Erase.Eager);
          Sim.Table.cell_float (cost O1mem.Erase.Background);
          Sim.Table.cell_float (cost O1mem.Erase.Bulk_device);
        ])
    [ 1; 4; 16; 64; 256; 1024 ];
  t

(* E14 / headline: the mapping operation itself should be O(1)-ish in
   size. The map-only columns compare installing translations for an
   existing file (baseline populate vs FOM graft/range); the end-to-end
   columns add allocation, zeroing and touching every page (inherently
   linear work, where FOM still wins by a constant factor). *)
let tab_o1 () =
  let t = Sim.Table.create
      ~title:"E14 - map-only and end-to-end: baseline vs FOM (us)"
      ~columns:
        [ "size"; "map: populate"; "map: graft"; "map: range"; "e2e: demand"; "e2e: FOM cold" ]
  in
  let pts_pop = ref [] and pts_graft = ref [] and pts_range = ref [] in
  List.iter
    (fun mb ->
      let len = Sim.Units.mib mb in
      (* Map-only: the file already exists; time only the mapping call. *)
      let map_populate =
        let k = kernel ~dram:(Sim.Units.gib 2) () in
        let p = K.create_process k () in
        let fs, path, _ = tmpfs_file k ~bytes:len in
        time_us k (fun () ->
            ignore (K.mmap_file k p ~fs ~path ~prot:Hw.Prot.rw ~share:Os.Vma.Shared ~populate:true ()))
      in
      let map_fom strategy range =
        let k, fom = kernel_and_fom ~nvm:(Sim.Units.gib 2) () in
        let p0 = K.create_process k ~range_translations:range () in
        ignore (F.alloc fom p0 ~name:"/file" ~strategy ~len ~prot:Hw.Prot.rw ());
        let p = K.create_process k ~range_translations:range () in
        time_us k (fun () -> ignore (F.map_path fom p ~strategy "/file"))
      in
      (* End-to-end: allocate fresh memory and touch every page. *)
      let e2e_demand =
        let k = kernel ~dram:(Sim.Units.gib 2) () in
        let p = K.create_process k () in
        time_us k (fun () ->
            let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
            touch_pages_kernel k p ~va ~len ~write:true)
      in
      let e2e_fom =
        let k, fom = kernel_and_fom ~nvm:(Sim.Units.gib 2) () in
        let p = K.create_process k () in
        time_us k (fun () ->
            let r = F.alloc fom p ~len ~prot:Hw.Prot.rw () in
            touch_pages_fom fom p ~va:r.F.va ~len ~write:true)
      in
      let map_graft = map_fom F.Shared_subtree false in
      let map_range = map_fom F.Range_translation true in
      Sim.Table.add_row t
        [
          Sim.Table.cell_bytes len;
          Sim.Table.cell_float map_populate;
          Sim.Table.cell_float map_graft;
          Sim.Table.cell_float map_range;
          Sim.Table.cell_float e2e_demand;
          Sim.Table.cell_float e2e_fom;
        ];
      pts_pop := (float_of_int mb, map_populate) :: !pts_pop;
      pts_graft := (float_of_int mb, map_graft) :: !pts_graft;
      pts_range := (float_of_int mb, map_range) :: !pts_range)
    [ 1; 4; 16; 64; 256 ];
  let chart =
    Sim.Chart.render ~logx:true ~logy:true
      ~title:"E14 (chart): map-only us vs size (MB), log-log"
      [
        { Sim.Chart.label = "populate PTEs"; points = List.rev !pts_pop };
        { Sim.Chart.label = "graft subtrees"; points = List.rev !pts_graft };
        { Sim.Chart.label = "range entry (flat)"; points = List.rev !pts_range };
      ]
  in
  (t, chart)

(* E15 / space-for-time: what the waste side of the trade looks like
   under an allocation churn workload. *)
let tab_space () =
  let t = Sim.Table.create ~title:"E15 - space overhead under churn (waste = footprint - live)"
      ~columns:[ "backend"; "live"; "footprint"; "waste"; "waste %" ]
  in
  let trace =
    Wl.Churn.generate ~rng:(Sim.Rng.create ~seed:7) ~ops:400 ~max_bytes:(Sim.Units.kib 512) ()
  in
  (* Stop the replay at peak live volume (before the final drain). *)
  let prefix =
    let n = List.length trace in
    List.filteri (fun i _ -> i < n * 3 / 4) trace
    |> List.filter (fun op -> match op with Wl.Churn.Touch _ -> false | _ -> true)
  in
  let replay malloc free =
    let vas = Hashtbl.create 64 in
    List.iter
      (fun op ->
        match op with
        | Wl.Churn.Alloc { id; bytes } -> Hashtbl.replace vas id (malloc bytes)
        | Wl.Churn.Free { id } -> (
          match Hashtbl.find_opt vas id with
          | Some va ->
            free va;
            Hashtbl.remove vas id
          | None -> ())
        | Wl.Churn.Touch _ -> ())
      prefix
  in
  let k = kernel ~dram:(Sim.Units.gib 1) () in
  let p = K.create_process k () in
  let mh = Heap.Malloc_sim.create k p in
  replay (fun bytes -> Heap.Malloc_sim.malloc mh ~bytes) (Heap.Malloc_sim.free mh);
  let row name live fp =
    Sim.Table.add_row t
      [
        name;
        Sim.Table.cell_bytes live;
        Sim.Table.cell_bytes fp;
        Sim.Table.cell_bytes (fp - live);
        Sim.Table.cell_float ~dp:1 (100.0 *. float_of_int (fp - live) /. float_of_int (max 1 fp));
      ]
  in
  row "malloc (4K pages)" (Heap.Malloc_sim.live_bytes mh) (Heap.Malloc_sim.footprint_bytes mh);
  let k2, fom = kernel_and_fom () in
  let p2 = K.create_process k2 () in
  let fh = Heap.Fom_heap.create fom p2 () in
  replay (fun bytes -> Heap.Fom_heap.malloc fh ~bytes) (Heap.Fom_heap.free fh);
  row "FOM heap (files)" (Heap.Fom_heap.live_bytes fh) (Heap.Fom_heap.footprint_bytes fh);
  (* Slab over buddy: the paper's suggestion for physical-memory
     management; measure its internal fragmentation at a fixed object mix. *)
  let mem =
    Physmem.Phys_mem.create
      ~clock:(Sim.Clock.create ())
      ~stats:(Sim.Stats.create ()) ~dram_bytes:(Sim.Units.mib 512) ~nvm_bytes:0 ()
  in
  let buddy = Alloc.Buddy.create ~mem ~first:0 ~count:(128 * 1024) () in
  let cache = Alloc.Slab.create_cache ~mem ~backing:buddy ~name:"obj" ~obj_bytes:3000 () in
  for _ = 1 to 1000 do
    ignore (Alloc.Slab.alloc cache)
  done;
  row "slab cache (3000B objs)"
    (Alloc.Slab.live_objects cache * 3000)
    (Alloc.Slab.footprint_bytes cache);
  (* Log-structured memory at 50% utilization. *)
  let extents =
    Alloc.Extent_alloc.create ~mem ~first:(128 * 1024) ~count:2048
      ~policy:Alloc.Extent_alloc.First_fit
  in
  let log = Alloc.Log_alloc.create ~mem ~backing:extents ~segment_frames:256 () in
  let handles = List.init 64 (fun _ -> Option.get (Alloc.Log_alloc.alloc log ~bytes:65536)) in
  List.iteri (fun i h -> if i mod 2 = 0 then Alloc.Log_alloc.free log h) handles;
  row "log-structured (pre-clean)" (Alloc.Log_alloc.live_bytes log)
    (Alloc.Log_alloc.footprint_bytes log);
  t

let run () =
  print_header "E3" "Allocating through the file system costs about the same as anonymous malloc.";
  Sim.Table.print (fig7 ());
  print_header "E9" "Erase-on-reuse: eager zeroing is linear; background and device erase are O(1).";
  Sim.Table.print (tab_erase ());
  print_header "E14" "The headline: baseline cost grows with size; FOM map cost stays near-flat.";
  let t14, chart14 = tab_o1 () in
  Sim.Table.print t14;
  print_string chart14;
  print_header "E15" "The price: space wasted by whole-file/huge/slab allocation.";
  Sim.Table.print (tab_space ())
