type t = {
  kernel : Os.Kernel.t;
  table : Hw.Page_table.t; (* the global PBM table *)
  mutable regions : (Physmem.Frame.t * int) list;
  attached : (int, unit) Hashtbl.t; (* pids *)
}

(* 0x4000_0000_0000 = 2^46: 512 GiB-aligned, inside the 48-bit canonical
   space, clear of Proc layouts and the Shared_pt master base window's
   root entry would be distinct too (masters are never attached; only
   grafted window-by-window). *)
let pbm_offset = 0x4000_0000_0000 + (1 lsl 39)

let va_of_addr pa = pa + pbm_offset
let addr_of_va va = va - pbm_offset

let create kernel =
  let table = Os.Kernel.create_page_table kernel in
  (* Pre-create the window's depth-1 node so processes can attach before
     any region is mapped; nothing unmaps from the table, so it stays. *)
  Hw.Page_table.ensure_node table ~va:pbm_offset ~depth:1;
  { kernel; table; regions = []; attached = Hashtbl.create 8 }

let map_region t ~first ~count ~prot =
  if count <= 0 then invalid_arg "Pbm.map_region: empty region";
  let pa = Physmem.Frame.to_addr first in
  let va = va_of_addr pa in
  ignore
    (Hw.Page_table.map_range t.table ~va ~pfn:first ~len:(count * Sim.Units.page_size) ~prot
       ~huge:true);
  t.regions <- (first, count) :: t.regions;
  Sim.Stats.incr (Os.Kernel.stats t.kernel) "pbm_map_region";
  va

(* The PBM window is the root-entry span containing pbm_offset. *)
let window_base t =
  Sim.Units.round_down pbm_offset ~align:(Hw.Page_table.entry_span t.table ~depth:0)

let attach t (proc : Os.Proc.t) =
  if Hashtbl.mem t.attached proc.Os.Proc.pid then invalid_arg "Pbm.attach: already attached";
  let dst = Os.Address_space.page_table proc.Os.Proc.aspace in
  Hw.Page_table.share_subtree ~src:t.table ~src_va:(window_base t) ~dst
    ~dst_va:(window_base t) ~depth:1;
  Hashtbl.replace t.attached proc.Os.Proc.pid ();
  Sim.Stats.incr (Os.Kernel.stats t.kernel) "pbm_attach"

let detach t (proc : Os.Proc.t) =
  if not (Hashtbl.mem t.attached proc.Os.Proc.pid) then invalid_arg "Pbm.detach: not attached";
  let dst = Os.Address_space.page_table proc.Os.Proc.aspace in
  Hw.Page_table.unshare dst ~va:(window_base t) ~depth:1;
  Hashtbl.remove t.attached proc.Os.Proc.pid

let metadata_bytes t = Hw.Page_table.metadata_bytes t.table
