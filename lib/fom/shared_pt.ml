type master = {
  table : Hw.Page_table.t;
  ino : int;
  prot : Hw.Prot.t;
  windows : int;
  window_bytes : int;  (* 2 MiB, or 1 GiB for GiB-scale files *)
  mutable grafts : int;  (* regions grafted from it now *)
}

(* The registry: a file's masters, one per protection it is mapped at. *)
type t = { kernel : Os.Kernel.t; masters : (int, master list) Hashtbl.t }

(* Every master maps its file at the same fixed, 1 GiB-aligned VA, so
   window w of any file always begins at a 2 MiB boundary with offset 0. *)
let master_base = 0x4000_0000_0000

let create kernel = { kernel; masters = Hashtbl.create 16 }

let build_master t ~fs ~ino ~prot =
  let table = Os.Kernel.create_page_table t.kernel in
  let node = Fs.Memfs.inode fs ino in
  (* 4 KiB leaves throughout: grafting shares the leaf-holding nodes, so
     the master must not collapse windows into huge-page leaves. *)
  Fs.Extent_tree.iter (Fs.Inode.extents node) (fun e ->
      ignore
        (Hw.Page_table.map_range table
           ~va:(master_base + (e.Fs.Extent.logical * Sim.Units.page_size))
           ~pfn:e.Fs.Extent.start
           ~len:(e.Fs.Extent.count * Sim.Units.page_size)
           ~prot ~huge:false));
  let file_bytes = Fs.Extent_tree.pages (Fs.Inode.extents node) * Sim.Units.page_size in
  (* GiB-scale files graft whole GiB subtrees: even fewer pointers. *)
  let window_bytes =
    if file_bytes >= Sim.Units.huge_1g then Sim.Units.huge_1g else Sim.Units.huge_2m
  in
  let windows = (file_bytes + window_bytes - 1) / window_bytes in
  Sim.Stats.incr (Os.Kernel.stats t.kernel) "fom_master_built";
  { table; ino; prot; windows; window_bytes; grafts = 0 }

let masters_of t ino = Option.value (Hashtbl.find_opt t.masters ino) ~default:[]

let master_for t ~fs ~ino ~prot =
  match List.find_opt (fun m -> m.prot = prot) (masters_of t ino) with
  | Some m -> m
  | None ->
    let m = build_master t ~fs ~ino ~prot in
    Hashtbl.replace t.masters ino (m :: masters_of t ino);
    m

(* A master out of the registry lives only for its grafts. *)
let free_if_unused t m =
  if m.grafts = 0 && not (List.memq m (masters_of t m.ino)) then
    Hw.Page_table.release m.table ignore

let graft_depth m =
  let levels = Hw.Page_table.levels m.table in
  if m.window_bytes = Sim.Units.huge_1g then levels - 2 else levels - 1

let graft t m ~dst ~dst_va =
  if not (Sim.Units.is_aligned dst_va ~align:m.window_bytes) then
    invalid_arg "Shared_pt.graft: destination not aligned to the graft window";
  let depth = graft_depth m in
  for w = 0 to m.windows - 1 do
    Hw.Page_table.share_subtree ~src:m.table
      ~src_va:(master_base + (w * m.window_bytes))
      ~dst
      ~dst_va:(dst_va + (w * m.window_bytes))
      ~depth
  done;
  m.grafts <- m.grafts + 1;
  Sim.Stats.add (Os.Kernel.stats t.kernel) "fom_grafts" m.windows;
  m.windows

let forget_graft t m =
  m.grafts <- m.grafts - 1;
  free_if_unused t m

let ungraft t m ~dst ~dst_va =
  let depth = graft_depth m in
  for w = 0 to m.windows - 1 do
    Hw.Page_table.unshare dst ~va:(dst_va + (w * m.window_bytes)) ~depth
  done;
  Sim.Stats.add (Os.Kernel.stats t.kernel) "fom_ungrafts" m.windows;
  forget_graft t m;
  m.windows

let windows m = m.windows
let window_bytes m = m.window_bytes

let drop t ~ino =
  let doomed = masters_of t ino in
  Hashtbl.remove t.masters ino;
  List.iter (free_if_unused t) doomed;
  List.length doomed

let inodes t = Hashtbl.fold (fun ino _ acc -> ino :: acc) t.masters []
let master_count t = Hashtbl.fold (fun _ ms acc -> acc + List.length ms) t.masters 0

let metadata_bytes t =
  Hashtbl.fold
    (fun _ ms acc ->
      List.fold_left (fun acc m -> acc + Hw.Page_table.metadata_bytes m.table) acc ms)
    t.masters 0
