exception Segfault of int

type ctx = {
  mem : Physmem.Phys_mem.t;
  meta : Page_meta.t;
  buddy : Alloc.Buddy.t;
  swap : Swap.t;
  zero : Physmem.Zero_engine.t;
  reclaim : Reclaim.t;
}

type kind = Minor | Major

let clock ctx = Physmem.Phys_mem.clock ctx.mem
let stats ctx = Physmem.Phys_mem.stats ctx.mem
let faults ctx = Sim.Trace.faults (Physmem.Phys_mem.trace ctx.mem)

(* Every frame source below returns a frame or [Frame.none], so a
   handout boxes no option. *)

(* The kernel's frame source, with the injection site in front: when
   "frame_alloc_fail" fires the buddy pretends to be empty, pushing the
   caller down its degradation path. *)
let buddy_alloc ctx ~order =
  if Sim.Fault_inject.fires (faults ctx) ~site:Sim.Fault_inject.site_frame_alloc_fail then
    Physmem.Frame.none
  else match Alloc.Buddy.alloc ctx.buddy ~order with Some pfn -> pfn | None -> Physmem.Frame.none

(* A frame with unspecified contents: buddy first; when the buddy is dry
   the memory may be sitting in the zero engine, pending or pooled (the
   reclaim-then-retry pass parks frames there), rather than OOM. *)
let raw_frame ctx =
  let pfn = buddy_alloc ctx ~order:0 in
  if pfn >= 0 then pfn else Physmem.Zero_engine.launder ctx.zero

(* Graceful degradation: a failed [alloc ctx] (a top-level function: no
   closure per call) gets one reclaim-then-retry pass before the typed OOM. *)
let with_reclaim_retry ctx alloc =
  let pfn = alloc ctx in
  if pfn >= 0 then pfn
  else begin
    Sim.Stats.incr (stats ctx) "alloc_retry_reclaim";
    let trace = Physmem.Phys_mem.trace ctx.mem in
    let causal = Sim.Trace.causal trace in
    let core = Sim.Trace.current_core trace in
    let stall = Sim.Causal.emit causal ~core ~op:"alloc_stall" () in
    let got = Reclaim.scan ctx.reclaim ~target_frames:8 in
    if got > 0 then Sim.Stats.add (stats ctx) "alloc_reclaimed_frames" got;
    (* Reclaimed frames land in the zero engine's dirty queue; launder
       enough of them for the retry to see clean memory. *)
    ignore (Physmem.Zero_engine.background_step ctx.zero ~budget_frames:(max 1 got));
    let wake = Sim.Causal.emit causal ~core ~op:"reclaim_wake" ~detail:(string_of_int got) () in
    Sim.Causal.link causal ~src:stall ~dst:wake ~kind:"reclaim";
    alloc ctx
  end

let oom ctx what =
  Sim.Stats.incr (stats ctx) "alloc_oom";
  Sim.Errno.fail Sim.Errno.ENOMEM what

let raw_frame_exn ?(what = "raw frame") ctx =
  let pfn = with_reclaim_retry ctx raw_frame in
  if pfn >= 0 then pfn else oom ctx what

(* Each frame source is asked once: the pre-zeroed pool (O(1)), then
   the buddy plus an eager zero, then a frame laundered on demand. *)
let fresh_zero_frame_once ctx =
  let pfn = Physmem.Zero_engine.take ctx.zero in
  if pfn >= 0 then pfn
  else
    let pfn = buddy_alloc ctx ~order:0 in
    if pfn >= 0 then begin
      Physmem.Zero_engine.eager_zero ctx.zero pfn;
      pfn
    end
    else Physmem.Zero_engine.launder ctx.zero

let fresh_zero_frame ctx =
  let pfn = with_reclaim_retry ctx fresh_zero_frame_once in
  if pfn >= 0 then pfn else oom ctx "zero frame"

let install ctx aspace ~va ~pfn ~prot ~dirty ~anon =
  Page_meta.map ctx.meta aspace
    ~va:(Sim.Units.round_down va ~align:Sim.Units.page_size)
    ~pfn ~prot ~size:Hw.Page_size.Small ~dirty ~anon;
  Page_meta.set_flag ctx.meta pfn Page_meta.Uptodate true;
  (* NUMA placement accounting: did the faulting core get a frame from
     its own domain? (Every install funnels through here.) *)
  if Physmem.Phys_mem.numa_nodes ctx.mem > 1 then
    Sim.Stats.incr (stats ctx)
      (if Physmem.Phys_mem.node_of_frame ctx.mem pfn = Physmem.Phys_mem.accessor_node ctx.mem
       then "numa_local_alloc"
       else "numa_remote_alloc")

let populate_anon_page ctx ~aspace ~va ~prot =
  let pfn = fresh_zero_frame ctx in
  Page_meta.set_flag ctx.meta pfn Page_meta.Swapbacked true;
  install ctx aspace ~va ~pfn ~prot ~dirty:false ~anon:true

let file_frame_of (vma : Vma.t) ~va =
  match vma.Vma.backing with
  | Vma.Anon -> invalid_arg "Fault.file_frame_of: anonymous VMA"
  | Vma.File { fs; ino; _ } -> (
    let page = Vma.file_page_of_va vma ~va in
    let node = Fs.Memfs.inode fs ino in
    match Fs.Extent_tree.lookup (Fs.Inode.extents node) ~page with
    | Some pfn -> pfn
    | None -> raise (Segfault va) (* access beyond EOF *))

let populate_file_page ctx ~aspace ~(vma : Vma.t) ~va =
  let pfn = file_frame_of vma ~va in
  let prot =
    match vma.Vma.share with
    | Vma.Shared -> vma.Vma.prot
    | Vma.Private ->
      (* Map read-only so a later write takes a CoW fault. *)
      { vma.Vma.prot with Hw.Prot.write = false }
  in
  install ctx aspace ~va ~pfn ~prot ~dirty:false ~anon:false

let cow ctx aspace ~va ~(old_leaf : Hw.Page_table.leaf) ~(vma : Vma.t) =
  let old_pfn = old_leaf.Hw.Page_table.pfn in
  (* No zeroing needed: the copy below overwrites the whole page. *)
  let pfn = raw_frame_exn ctx in
  Physmem.Phys_mem.copy ctx.mem ~src:(Physmem.Frame.to_addr old_pfn) ~dst:(Physmem.Frame.to_addr pfn)
    ~len:Sim.Units.page_size;
  let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size in
  (* A file's frame (outside the buddy's pool) stays with its file
     system; an anonymous page or an earlier CoW copy is the VM's. *)
  Page_meta.unmap ctx.meta ~zero:ctx.zero aspace ~va:page_va old_leaf
    ~owned:(Alloc.Buddy.owns ctx.buddy old_pfn);
  Hw.Mmu.invalidate_page (Address_space.mmu aspace) ~va:page_va;
  install ctx aspace ~va:page_va ~pfn ~prot:vma.Vma.prot ~dirty:false
    ~anon:(vma.Vma.backing = Vma.Anon);
  Sim.Stats.incr (stats ctx) "cow_fault"

let handle_inner ctx ~aspace ~pid ~va ~write =
  Sim.Clock.charge (clock ctx) Sim.Cost_model.fault_trap;
  Sim.Stats.incr (stats ctx) "page_fault";
  match Address_space.find_vma aspace ~va with
  | None -> raise (Segfault va)
  | Some vma ->
    if not (Hw.Prot.allows vma.Vma.prot ~write ~exec:false) then raise (Segfault va);
    let table = Address_space.page_table aspace in
    let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size in
    let leaf = Hw.Page_table.find table ~va in
    if leaf != Hw.Page_table.no_leaf then begin
      (* Mapped but the access faulted: protection. Legal only as CoW. *)
      if
        write
        && (not leaf.Hw.Page_table.prot.Hw.Prot.write)
        && vma.Vma.prot.Hw.Prot.write
        && vma.Vma.share = Vma.Private
      then begin
        cow ctx aspace ~va ~old_leaf:leaf ~vma;
        Sim.Stats.incr (stats ctx) "minor_fault";
        Minor
      end
      else raise (Segfault va)
    end
    else
      match vma.Vma.backing with
      | Vma.Anon ->
        if Swap.contains ctx.swap ~pid ~va:page_va then begin
          (* Major fault: bring the page back from the device. *)
          let pfn = raw_frame_exn ctx in
          let ok = Swap.swap_in ctx.swap ~key:(pid, page_va) ~pfn in
          assert ok;
          Page_meta.set_flag ctx.meta pfn Page_meta.Swapbacked true;
          (* Real contents: keep the page dirty so a later eviction
             writes it out again. *)
          install ctx aspace ~va ~pfn ~prot:vma.Vma.prot ~dirty:true ~anon:true;
          Sim.Stats.incr (stats ctx) "major_fault";
          Major
        end
        else begin
          populate_anon_page ctx ~aspace ~va ~prot:vma.Vma.prot;
          Sim.Stats.incr (stats ctx) "minor_fault";
          Minor
        end
      | Vma.File _ ->
        populate_file_page ctx ~aspace ~vma ~va;
        Sim.Stats.incr (stats ctx) "minor_fault";
        Minor

let handle ctx ~aspace ~pid ~va ~write =
  let trace = Physmem.Phys_mem.trace ctx.mem in
  let start = Sim.Trace.enter trace ~op:"fault" in
  match handle_inner ctx ~aspace ~pid ~va ~write with
  | kind ->
    Sim.Trace.leave trace ~op:"fault" ~start ~arg:0
      ~outcome:(match kind with Minor -> "minor" | Major -> "major");
    Sim.Stats.sample (stats ctx) ~now:(Sim.Clock.now (clock ctx));
    kind
  | exception e ->
    Sim.Trace.leave_raised trace ~op:"fault" ~start;
    raise e
