(* Cross-layer invariant checking. Everything here is host-side
   introspection: no cycles are charged, no counters move, so a check can
   run after any scenario (or between fault injections) without
   perturbing the measurement it is validating. *)

type violation = { check : string; detail : string }

let page_size = Sim.Units.page_size

let violation_to_string v = Printf.sprintf "[%s] %s" v.check v.detail

(* Every leaf in the ranges the VM layer owns: VMAs and userfault
   registrations. FOM mappings (grafted subtrees, range translations)
   deliberately bypass struct-page accounting — the file system owns
   those frames — so they are out of scope here. A leaf is listed once
   per address space at its size-aligned base, matching how THP accounts
   a huge mapping as one mapcount on the block head. The same scan holds
   every page of a VMA to the rule that its leaf never grants an access
   the VMA forbids (the converse is legal: CoW leaves are write-protected
   below a writable VMA). *)
let vm_leaves acc kernel procs =
  let leaves = ref [] in
  let seen = Hashtbl.create 256 in
  let scan_range ?(vma_prot = Hw.Prot.rwx) pid table ~start ~len =
    let rec go va =
      if va < start + len then begin
        (match Hw.Page_table.lookup table ~va with
        | Some (_, leaf) ->
          if not (Hw.Prot.subset leaf.Hw.Page_table.prot ~of_:vma_prot) then
            acc :=
              {
                check = "vma_pt_prot";
                detail = Printf.sprintf "pid %d va 0x%x: leaf grants more than its VMA" pid va;
              }
              :: !acc;
          let span = Hw.Page_size.bytes leaf.Hw.Page_table.size in
          let base = Sim.Units.round_down va ~align:span in
          if not (Hashtbl.mem seen (pid, base)) then begin
            Hashtbl.add seen (pid, base) ();
            leaves := leaf :: !leaves
          end
        | None -> ());
        go (va + page_size)
      end
    in
    go start
  in
  List.iter
    (fun (proc : Proc.t) ->
      let table = Address_space.page_table proc.Proc.aspace in
      Address_space.iter_vmas proc.Proc.aspace (fun vma ->
          scan_range ~vma_prot:vma.Vma.prot proc.Proc.pid table ~start:vma.Vma.start
            ~len:vma.Vma.len))
    procs;
  Userfault.iter_regions (Kernel.userfault kernel) (fun ~pid ~va ~len ->
      match List.find_opt (fun (p : Proc.t) -> p.Proc.pid = pid) procs with
      | Some proc -> scan_range pid (Address_space.page_table proc.Proc.aspace) ~start:va ~len
      | None -> ());
  List.rev !leaves

(* Page-table references per frame. *)
let count_refs leaves =
  let refs = Hashtbl.create 256 in
  List.iter
    (fun (leaf : Hw.Page_table.leaf) ->
      let pfn = leaf.Hw.Page_table.pfn in
      Hashtbl.replace refs pfn (1 + Option.value (Hashtbl.find_opt refs pfn) ~default:0))
    leaves;
  refs

(* Frame refcounts vs mapcounts: every VM-owned mapping we can reach must
   be accounted, and a mapping never outlives its reference. *)
let check_mapcounts acc kernel leaves =
  let meta = Kernel.page_meta kernel in
  let refs = count_refs leaves in
  Page_meta.iter_counts meta (fun pfn ~refcount ~mapcount ->
      let expected = Option.value (Hashtbl.find_opt refs pfn) ~default:0 in
      if mapcount <> expected then
        acc :=
          {
            check = "mapcount";
            detail =
              Printf.sprintf "frame %d: mapcount %d but %d page-table reference(s)" pfn mapcount
                expected;
          }
          :: !acc;
      if mapcount > refcount then
        acc :=
          {
            check = "refcount";
            detail = Printf.sprintf "frame %d: mapcount %d exceeds refcount %d" pfn mapcount refcount;
          }
          :: !acc);
  (* Frames referenced by a page table but with no metadata record at all
     would be invisible above; flag them too. *)
  Hashtbl.iter
    (fun pfn n ->
      let mapcount = Page_meta.mapcount meta pfn in
      if mapcount = 0 && n > 0 then
        acc :=
          {
            check = "mapcount";
            detail = Printf.sprintf "frame %d: %d page-table reference(s) but mapcount 0" pfn n;
          }
          :: !acc)
    refs

(* The buddy and the zero engine's pending queue and pool hold the
   anonymous pool's free frames. A frame a VM-owned leaf maps must be in
   none of them, no frame may sit in them twice, and a pooled frame
   holds no reference: a frame recycled while still in use shows up here
   before its next owner overwrites it. *)
let check_free_mapped acc kernel leaves =
  let buddy = Kernel.buddy kernel in
  let pooled = Hashtbl.create 256 in
  let is_free pfn = Hashtbl.mem pooled pfn || Alloc.Buddy.is_free buddy pfn in
  let flag detail = acc := { check = "free_mapped"; detail } :: !acc in
  let pool pfn =
    if is_free pfn then flag (Printf.sprintf "frame %d is in the free pools twice" pfn)
    else Hashtbl.add pooled pfn ()
  in
  Physmem.Zero_engine.iter_free (Kernel.zero_engine kernel) pool;
  Page_meta.iter_counts (Kernel.page_meta kernel) (fun pfn ~refcount ~mapcount:_ ->
      if refcount > 0 && is_free pfn then
        flag (Printf.sprintf "frame %d is free but holds %d reference(s)" pfn refcount));
  List.iter
    (fun (leaf : Hw.Page_table.leaf) ->
      let first = leaf.Hw.Page_table.pfn in
      for pfn = first to first + Hw.Page_size.frames leaf.Hw.Page_table.size - 1 do
        if is_free pfn then flag (Printf.sprintf "frame %d is mapped but free" pfn)
      done)
    leaves

(* Every frame of the buddy's pool is in exactly one place: the buddy,
   the zero engine (pending or pooled), a page-table node or a
   VM-owned page (a frame a VM leaf covers, or any other that holds a
   reference). Page-table nodes are counted by the kernel's one source
   and sink, so FOM masters and the PBM table count too. The places must
   sum to the pool: a frame that left every place without coming back is
   missing here, and one held by two places is counted twice. *)
let check_conservation acc kernel leaves =
  let buddy = Kernel.buddy kernel in
  (* A huge leaf's reference sits on its first frame; the others are its
     tail, mapped by no other leaf (fork splits a huge leaf first). *)
  let vm = ref 0 and heads = Hashtbl.create 8 in
  Page_meta.iter_counts (Kernel.page_meta kernel) (fun pfn ~refcount ~mapcount:_ ->
      if refcount > 0 && Alloc.Buddy.owns buddy pfn then incr vm);
  List.iter
    (fun (leaf : Hw.Page_table.leaf) ->
      let pfn = leaf.Hw.Page_table.pfn in
      if leaf.Hw.Page_table.size <> Hw.Page_size.Small && Alloc.Buddy.owns buddy pfn
         && not (Hashtbl.mem heads pfn)
      then begin
        Hashtbl.add heads pfn ();
        vm := !vm + Hw.Page_size.frames leaf.Hw.Page_table.size - 1
      end)
    leaves;
  let zero = Kernel.zero_engine kernel in
  let places =
    [
      ("buddy", Alloc.Buddy.free_frames_count buddy);
      ("zero engine", Physmem.Zero_engine.pending zero + Physmem.Zero_engine.available zero);
      ("page-table", Kernel.pt_frames kernel);
      ("VM-owned", !vm);
    ]
  in
  let held = List.fold_left (fun n (_, c) -> n + c) 0 places in
  let pool = Alloc.Buddy.frames buddy in
  if held <> pool then
    acc :=
      {
        check = "conservation";
        detail =
          Printf.sprintf "the %d-frame pool holds %d: %s" pool held
            (String.concat ", "
               (List.map (fun (place, n) -> Printf.sprintf "%d %s" n place) places));
      }
      :: !acc

(* After every batched shootdown completed, no core's TLB may hold a
   translation the owning page table no longer backs — a lost shootdown
   ack (the victim core skipped its invalidate) shows up here, on
   whichever core kept the stale entry. Entries are resolved to their
   address space through the ASID (= pid). *)
let check_tlb acc kernel procs =
  let by_asid = Hashtbl.create 16 in
  List.iter (fun (p : Proc.t) -> Hashtbl.replace by_asid p.Proc.pid p) procs;
  Hw.Smp.iter_cores (Kernel.smp kernel) (fun core ->
      Hw.Tlb.iter core.Hw.Smp.tlb (fun ~asid ~va ~size ~pfn ~prot ->
          let stale detail =
            acc :=
              {
                check = "tlb_coherence";
                detail = Printf.sprintf "core %d asid %d va 0x%x: %s" core.Hw.Smp.id asid va detail;
              }
              :: !acc
          in
          match Hashtbl.find_opt by_asid asid with
          | None -> stale "TLB entry for dead address space"
          | Some proc -> (
            let table = Address_space.page_table proc.Proc.aspace in
            match Hw.Page_table.lookup table ~va with
            | None -> stale "TLB entry with no page-table leaf"
            | Some (_, leaf) ->
              if leaf.Hw.Page_table.size <> size then stale "page-size mismatch"
              else if leaf.Hw.Page_table.pfn <> pfn then stale "frame mismatch"
              else if leaf.Hw.Page_table.prot <> prot then stale "protection mismatch")))

(* Per-core TLB counters are local mirrors of the machine-wide stats:
   their sums must reconcile exactly, whichever invalidation branch
   (per-page INVLPG, range, full flush) did the bumping. *)
let check_tlb_accounting acc kernel =
  let stats = Kernel.stats kernel in
  let shootdowns = ref 0 and flushes = ref 0 in
  Hw.Smp.iter_cores (Kernel.smp kernel) (fun core ->
      shootdowns := !shootdowns + Hw.Tlb.shootdowns core.Hw.Smp.tlb;
      flushes := !flushes + Hw.Tlb.flushes core.Hw.Smp.tlb);
  let reconcile name local =
    let global = Sim.Stats.get stats name in
    if local <> global then
      acc :=
        {
          check = "tlb_accounting";
          detail =
            Printf.sprintf "per-core %s counters sum to %d but the global stat is %d" name local
              global;
        }
        :: !acc
  in
  reconcile "tlb_shootdown" !shootdowns;
  reconcile "tlb_flush" !flushes

(* Every node on the reclaim lists names a live mapping of its frame,
   and the lists count every node on the frames' chains. *)
let check_lru acc kernel =
  let nodes = ref 0 and tracked = Reclaim.tracked (Kernel.reclaim kernel) in
  let flag detail = acc := { check = "lru"; detail } :: !acc in
  Page_meta.iter_lru (Kernel.page_meta kernel) (fun pfn aspace ~va ->
      incr nodes;
      let leaf = Hw.Page_table.find (Address_space.page_table aspace) ~va in
      if leaf == Hw.Page_table.no_leaf || leaf.Hw.Page_table.pfn <> pfn then
        flag (Printf.sprintf "frame %d: its node at va 0x%x names no mapping of it" pfn va));
  if !nodes <> tracked then flag (Printf.sprintf "the chains hold %d node(s), the lists %d" !nodes tracked)

(* Every swap slot keys a page of a live process's anonymous VMA that no
   leaf maps: a slot no fault can bring back is a leak. *)
let check_swap acc kernel procs =
  let swapped_out ~pid ~va ({ Proc.pid = owner; aspace; _ } : Proc.t) =
    owner = pid && Sim.Units.is_aligned va ~align:page_size
    && (match Address_space.find_vma aspace ~va with Some v -> v.Vma.backing = Vma.Anon | None -> false)
    && Hw.Page_table.find (Address_space.page_table aspace) ~va == Hw.Page_table.no_leaf
  in
  Swap.iter (Kernel.swap kernel) (fun ~pid ~va ->
      if not (List.exists (swapped_out ~pid ~va) procs) then
        let detail = Printf.sprintf "pid %d va 0x%x: no fault can bring its slot back" pid va in
        acc := { check = "swap"; detail } :: !acc)

(* The quota, the extent trees and the space bitmap are three views of
   the same resource; they must agree exactly. *)
let check_fs acc ~name fs =
  let quota = Fs.Memfs.quota_used_frames fs in
  let extents = Fs.Memfs.data_pages fs in
  let bitmap = Fs.Memfs.used_bytes fs / page_size in
  if quota <> extents then
    acc :=
      {
        check = "fs_accounting";
        detail = Printf.sprintf "%s: quota holds %d frames, extent trees hold %d" name quota extents;
      }
      :: !acc;
  if bitmap <> extents then
    acc :=
      {
        check = "fs_accounting";
        detail =
          Printf.sprintf "%s: space bitmap has %d frames used, extent trees hold %d" name bitmap
            extents;
      }
      :: !acc

let run kernel =
  let acc = ref [] in
  let procs =
    Hashtbl.fold (fun _ p l -> if p.Proc.alive then p :: l else l) (Kernel.processes kernel) []
    |> List.sort (fun (a : Proc.t) b -> compare a.Proc.pid b.Proc.pid)
  in
  let leaves = vm_leaves acc kernel procs in
  check_mapcounts acc kernel leaves;
  check_free_mapped acc kernel leaves;
  check_conservation acc kernel leaves;
  check_tlb acc kernel procs;
  check_tlb_accounting acc kernel;
  check_lru acc kernel;
  check_swap acc kernel procs;
  check_fs acc ~name:"tmpfs" (Kernel.tmpfs kernel);
  (match Kernel.pmfs kernel with Some fs -> check_fs acc ~name:"pmfs" fs | None -> ());
  List.rev !acc
