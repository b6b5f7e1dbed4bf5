type strategy = Per_page | Huge_pages | Shared_subtree | Range_translation

let strategy_name = function
  | Per_page -> "per-page"
  | Huge_pages -> "huge-pages"
  | Shared_subtree -> "shared-subtree"
  | Range_translation -> "range-translation"

type region = {
  va : int;
  len : int;
  ino : int;
  path : string;
  temp : bool;
  strategy : strategy;
  prot : Hw.Prot.t;
  master : Shared_pt.master option;
}

type t = {
  kernel : Os.Kernel.t;
  fs : Fs.Memfs.t;
  default_strategy : strategy;
  shared_pt : Shared_pt.t;
  regions : (int * int, region) Hashtbl.t; (* (pid, va) -> region *)
  mutable next_temp : int;
  recovery_hooks : (string, unit -> int) Hashtbl.t;
}

let create kernel ?fs ?(strategy = Shared_subtree) () =
  let fs =
    match fs with
    | Some fs -> fs
    | None -> (
      match Os.Kernel.pmfs kernel with Some p -> p | None -> Os.Kernel.tmpfs kernel)
  in
  {
    kernel;
    fs;
    default_strategy = strategy;
    shared_pt = Shared_pt.create kernel;
    regions = Hashtbl.create 64;
    next_temp = 0;
    recovery_hooks = Hashtbl.create 4;
  }

(* Recovery hooks: components above Fom (the object store) register
   here so recovery stays application-independent — Persistence runs
   them by name without knowing what they recover. Replace-by-name
   keeps re-registration (fresh store over the same files) idempotent. *)
let on_recover t ~name f = Hashtbl.replace t.recovery_hooks name f
let remove_hooks t ~name = Hashtbl.remove t.recovery_hooks name

let run_recovery_hooks t =
  Hashtbl.fold (fun name f acc -> (name, f) :: acc) t.recovery_hooks []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, f) -> (name, f ()))

let kernel t = t.kernel
let fs t = t.fs
let trace t = Os.Kernel.trace t.kernel
let shared_pt t = t.shared_pt

let charge_syscall t = Sim.Clock.charge (Os.Kernel.clock t.kernel) Sim.Cost_model.syscall

(* Map every extent of [ino] into the process according to [strategy],
   over the region [at] when the file still has its length, else at a
   fresh base VA that reserves all the mapping covers (a graft covers
   whole windows); returns the base VA, the length and the master grafted
   from. *)
let install_mapping ?at t (proc : Os.Proc.t) ~ino ~prot ~strategy =
  let aspace = proc.Os.Proc.aspace in
  let table = Os.Address_space.page_table aspace in
  let node = Fs.Memfs.inode t.fs ino in
  let len =
    Fs.Extent_tree.pages (Fs.Inode.extents node) * Sim.Units.page_size
  in
  if len = 0 then invalid_arg "Fom: cannot map an empty file";
  let place ?(span = len) ~align () =
    match at with
    | Some r when r.len = len -> r.va
    | Some _ | None -> Os.Address_space.alloc_va aspace ~len:span ~align
  in
  match strategy with
  | Shared_subtree ->
    let m = Shared_pt.master_for t.shared_pt ~fs:t.fs ~ino ~prot in
    let bytes = Shared_pt.window_bytes m in
    let va = place ~span:(Shared_pt.windows m * bytes) ~align:bytes () in
    ignore
      (Sim.Trace.span (trace t) ~op:"fom_graft" ~arg:Fun.id @@ fun () ->
       Shared_pt.graft t.shared_pt m ~dst:table ~dst_va:va);
    (va, len, Some m)
  | Per_page | Huge_pages ->
    let huge = strategy = Huge_pages in
    let va = place ~align:(if huge then Sim.Units.huge_2m else Sim.Units.page_size) () in
    Fs.Extent_tree.iter (Fs.Inode.extents node) (fun e ->
        ignore
          (Hw.Page_table.map_range table
             ~va:(va + (e.Fs.Extent.logical * Sim.Units.page_size))
             ~pfn:e.Fs.Extent.start
             ~len:(e.Fs.Extent.count * Sim.Units.page_size)
             ~prot ~huge));
    (va, len, None)
  | Range_translation -> (
    match Os.Address_space.range_table aspace with
    | None ->
      invalid_arg "Fom: process has no range table (create it with ~range_translations:true)"
    | Some rt ->
      let va = place ~align:Sim.Units.page_size () in
      Fs.Extent_tree.iter (Fs.Inode.extents node) (fun e ->
          let base = va + (e.Fs.Extent.logical * Sim.Units.page_size) in
          let pa = Physmem.Frame.to_addr e.Fs.Extent.start in
          Hw.Range_table.insert rt ~base
            ~limit:(e.Fs.Extent.count * Sim.Units.page_size)
            ~offset:(pa - base) ~prot);
      (va, len, None))

let register_region t (proc : Os.Proc.t) region =
  Hashtbl.replace t.regions (proc.Os.Proc.pid, region.va) region

let temp_dir = "/tmp"

let ensure_temp_dir t =
  if Fs.Memfs.lookup t.fs temp_dir = None then Fs.Memfs.mkdir t.fs temp_dir

let alloc t proc ?name ?persistence ?strategy ?(guard = false) ~len ~prot () =
  Sim.Trace.span (trace t) ~op:"fom_alloc" ~arg:(fun r -> r.len) @@ fun () ->
  charge_syscall t;
  if len <= 0 then Sim.Errno.fail Sim.Errno.EINVAL "Fom.alloc: empty allocation";
  let strategy = match strategy with Some s -> s | None -> t.default_strategy in
  let path, temp, persistence =
    match name with
    | Some p -> (p, false, Option.value persistence ~default:Fs.Inode.Persistent)
    | None ->
      ensure_temp_dir t;
      let p = Printf.sprintf "%s/fom.%d" temp_dir t.next_temp in
      t.next_temp <- t.next_temp + 1;
      (p, true, Option.value persistence ~default:Fs.Inode.Volatile)
  in
  let ino = Fs.Memfs.create_file t.fs path ~persistence in
  (* ENOSPC degrades gracefully: undo the create so the namespace holds no
     empty husk, then let the typed error surface to the caller. *)
  (try Fs.Memfs.extend t.fs ino ~bytes_wanted:len
   with Sim.Errno.Error (Sim.Errno.ENOSPC, _) as e ->
     Fs.Memfs.unlink t.fs path;
     Sim.Stats.incr (Os.Kernel.stats t.kernel) "fom_alloc_enospc";
     raise e);
  Fs.Memfs.set_prot t.fs ino prot;
  Fs.Memfs.open_file t.fs ino;
  let va, len, master = install_mapping t proc ~ino ~prot ~strategy in
  if guard then
    (* Burn one page of VA so nothing can ever be mapped flush against
       the region's end. *)
    ignore
      (Os.Address_space.alloc_va proc.Os.Proc.aspace ~len:Sim.Units.page_size
         ~align:Sim.Units.page_size);
  let region = { va; len; ino; path; temp; strategy; prot; master } in
  register_region t proc region;
  Sim.Stats.incr (Os.Kernel.stats t.kernel) "fom_alloc";
  region

let map_path t proc ?prot ?strategy path =
  Sim.Trace.span (trace t) ~op:"fom_map" ~arg:(fun r -> r.len) @@ fun () ->
  charge_syscall t;
  let strategy = match strategy with Some s -> s | None -> t.default_strategy in
  let ino =
    match Fs.Memfs.lookup t.fs path with
    | Some ino -> ino
    | None -> Sim.Errno.fail Sim.Errno.ENOENT ("Fom.map_path: no such file: " ^ path)
  in
  let node = Fs.Memfs.inode t.fs ino in
  let prot = Option.value prot ~default:node.Fs.Inode.prot in
  if not (Hw.Prot.subset prot ~of_:node.Fs.Inode.prot) then
    Sim.Errno.fail Sim.Errno.EACCES "Fom.map_path: permission denied (whole-file check)";
  Fs.Memfs.open_file t.fs ino;
  let va, len, master = install_mapping t proc ~ino ~prot ~strategy in
  let region = { va; len; ino; path; temp = false; strategy; prot; master } in
  register_region t proc region;
  Sim.Stats.incr (Os.Kernel.stats t.kernel) "fom_map";
  region

let remove_mapping ?batch t (proc : Os.Proc.t) region =
  let aspace = proc.Os.Proc.aspace in
  let table = Os.Address_space.page_table aspace in
  (match region.strategy with
  | Shared_subtree ->
    Option.iter
      (fun m -> ignore (Shared_pt.ungraft t.shared_pt m ~dst:table ~dst_va:region.va))
      region.master
  | Per_page | Huge_pages ->
    ignore (Hw.Page_table.unmap_range table ~va:region.va ~len:region.len)
  | Range_translation -> (
    match Os.Address_space.range_table aspace with
    | None -> assert false
    | Some rt ->
      (* Remove every entry whose base falls inside the region, shooting
         down its range-TLB entry as we go (the paper's unmap: one table
         update plus one shootdown per extent). *)
      let mmu = Os.Address_space.mmu aspace in
      List.iter
        (fun base ->
          (* Through the MMU, not the raw range TLB: the shootdown must
             carry this address space's ASID and IPI every other core
             that may cache the entry. *)
          Hw.Mmu.invalidate_base mmu ~base;
          ignore (Hw.Range_table.remove rt ~base))
        (Hw.Range_table.bases_in rt ~va:region.va ~len:region.len)));
  (* Ungraft feeds the caller's shootdown batch when one is in flight
     (process exit); otherwise invalidate immediately as before. *)
  match batch with
  | Some b -> Hw.Tlb_batch.add b ~va:region.va ~len:region.len
  | None -> Hw.Mmu.invalidate_range (Os.Address_space.mmu aspace) ~va:region.va ~len:region.len

let unmap ?batch t (proc : Os.Proc.t) region =
  Sim.Trace.span (trace t) ~op:"fom_unmap" ~arg:(fun () -> region.len) @@ fun () ->
  charge_syscall t;
  (* The registered region: a [protect] since may have regrafted it. *)
  let region =
    match Hashtbl.find_opt t.regions (proc.Os.Proc.pid, region.va) with
    | None -> Sim.Errno.fail Sim.Errno.EINVAL "Fom.unmap: unknown region"
    | Some r -> r
  in
  ignore (Fs.Memfs.inode t.fs region.ino);
  remove_mapping ?batch t proc region;
  Hashtbl.remove t.regions (proc.Os.Proc.pid, region.va);
  Fs.Memfs.close_file t.fs region.ino;
  Sim.Stats.incr (Os.Kernel.stats t.kernel) "fom_unmap"

let free ?batch t proc region =
  (* Capture before unmap: close_file may reap an already-unlinked file. *)
  let was_temp = region.temp && Fs.Memfs.lookup t.fs region.path = Some region.ino in
  unmap ?batch t proc region;
  if was_temp then begin
    ignore (Shared_pt.drop t.shared_pt ~ino:region.ino);
    Fs.Memfs.unlink t.fs region.path
  end

(* A closure-free span, as on the kernel's access path: it runs per page. *)
let access t (proc : Os.Proc.t) ~va ~write =
  let trace = trace t in
  let start = Sim.Trace.enter trace ~op:"access" in
  let mmu = Os.Address_space.mmu proc.Os.Proc.aspace in
  match Hw.Mmu.access mmu ~mem:(Os.Kernel.mem t.kernel) ~va ~write with
  | pa when pa >= 0 -> Sim.Trace.leave trace ~op:"access" ~start ~arg:0 ~outcome:"ok"
  | _ ->
    Sim.Trace.leave_raised trace ~op:"access" ~start;
    raise (Os.Fault.Segfault va)
  | exception e ->
    Sim.Trace.leave_raised trace ~op:"access" ~start;
    raise e

let access_range t proc ~va ~len ~write ~stride =
  if stride <= 0 then invalid_arg "Fom.access_range: bad stride";
  let count = ref 0 in
  let cursor = ref va in
  while !cursor < va + len do
    access t proc ~va:!cursor ~write;
    incr count;
    cursor := !cursor + stride
  done;
  !count

let protect t proc region ~prot =
  Sim.Trace.span (trace t) ~op:"fom_protect" ~arg:(fun r -> r.len) @@ fun () ->
  charge_syscall t;
  remove_mapping t proc region;
  Fs.Memfs.set_prot t.fs region.ino prot;
  (* The file's masters carry the protection it replaces. *)
  ignore (Shared_pt.drop t.shared_pt ~ino:region.ino);
  (* Remap under the new protection, at the same VA unless the file grew
     since the region was mapped. *)
  let va, len, master =
    install_mapping ~at:region t proc ~ino:region.ino ~prot ~strategy:region.strategy
  in
  let updated = { region with va; len; prot; master } in
  Hashtbl.remove t.regions (proc.Os.Proc.pid, region.va);
  register_region t proc updated;
  updated

let grow t (proc : Os.Proc.t) region ~new_len =
  Sim.Trace.span (trace t) ~op:"fom_grow" ~arg:(fun _ -> new_len) @@ fun () ->
  charge_syscall t;
  if new_len <= region.len then
    Sim.Errno.fail Sim.Errno.EINVAL "Fom.grow: new length not larger";
  (* mremap, file-only style: extend the file, then remap it whole at a
     fresh base — which FOM makes cheap (O(windows) or O(extents)), so
     "growing" never needs the in-place contortions of VMA merging. An
     ENOSPC from the extend leaves the region as it was. *)
  Fs.Memfs.extend t.fs region.ino ~bytes_wanted:(new_len - region.len);
  remove_mapping t proc region;
  Hashtbl.remove t.regions (proc.Os.Proc.pid, region.va);
  (* The file's masters cover only the old pages: each lives on for the
     grafts other processes hold, and the next map builds a new one. *)
  ignore (Shared_pt.drop t.shared_pt ~ino:region.ino);
  let va, len, master =
    install_mapping t proc ~ino:region.ino ~prot:region.prot ~strategy:region.strategy
  in
  let updated = { region with va; len; master } in
  register_region t proc updated;
  Sim.Stats.incr (Os.Kernel.stats t.kernel) "fom_grow";
  updated

let copy_region t proc region ?name () =
  let src = Fs.Memfs.inode t.fs region.ino in
  let size = src.Fs.Inode.size in
  let dst = alloc t proc ?name ~len:(max size region.len) ~prot:region.prot () in
  (* Stream the contents extent by extent through the file API. *)
  let chunk = Sim.Units.mib 1 in
  let rec copy off =
    if off < size then begin
      let n = min chunk (size - off) in
      let data = Fs.Memfs.read_file t.fs region.ino ~off ~len:n in
      Fs.Memfs.write_file t.fs dst.ino ~off (Bytes.unsafe_to_string data);
      copy (off + n)
    end
  in
  copy 0;
  Sim.Stats.incr (Os.Kernel.stats t.kernel) "fom_copy_region";
  dst

let persist t region = Fs.Memfs.set_persistence t.fs region.ino Fs.Inode.Persistent

let regions_of t (proc : Os.Proc.t) =
  Hashtbl.fold
    (fun (pid, _) r acc -> if pid = proc.Os.Proc.pid then r :: acc else acc)
    t.regions []
  |> List.sort (fun a b -> compare a.va b.va)

let region_of t proc ~va =
  List.find_opt (fun r -> va >= r.va && va < r.va + r.len) (regions_of t proc)

let smaps t (proc : Os.Proc.t) =
  let buf = Buffer.create 256 in
  let total = ref 0 in
  List.iter
    (fun r ->
      total := !total + r.len;
      Buffer.add_string buf
        (Format.asprintf "%012x-%012x %a %-17s %s\n" r.va (r.va + r.len) Hw.Prot.pp r.prot
           (strategy_name r.strategy) r.path))
    (regions_of t proc);
  Buffer.add_string buf
    (Printf.sprintf "total %s in %d regions; own PT %s; shared masters %s (%d)\n"
       (Sim.Units.bytes_to_string !total)
       (List.length (regions_of t proc))
       (Sim.Units.bytes_to_string
          (Hw.Page_table.metadata_bytes (Os.Address_space.page_table proc.Os.Proc.aspace)))
       (Sim.Units.bytes_to_string (Shared_pt.metadata_bytes t.shared_pt))
       (Shared_pt.master_count t.shared_pt));
  Buffer.contents buf

let code_path = "/fom-code-segment"

let launch t ~code_bytes ~heap_bytes ~stack_bytes =
  let use_rt = t.default_strategy = Range_translation in
  let proc = Os.Kernel.create_process t.kernel ~range_translations:use_rt () in
  let code =
    match Fs.Memfs.lookup t.fs code_path with
    | Some _ -> map_path t proc ~prot:Hw.Prot.rx code_path
    | None ->
      alloc t proc ~name:code_path ~persistence:Fs.Inode.Persistent ~len:code_bytes
        ~prot:Hw.Prot.rx ()
  in
  let heap = alloc t proc ~len:heap_bytes ~prot:Hw.Prot.rw () in
  let stack = alloc t proc ~len:stack_bytes ~prot:Hw.Prot.rw () in
  (proc, [ code; heap; stack ])

let exit_process t proc =
  (* Gather every region's shootdown into one batch: exit pays one flush
     no matter how many files the process had mapped. *)
  let batch = Hw.Tlb_batch.create (Os.Address_space.mmu proc.Os.Proc.aspace) in
  List.iter (fun r -> free ~batch t proc r) (regions_of t proc);
  Hw.Tlb_batch.flush batch;
  Os.Kernel.exit_process t.kernel proc

let reset_after_crash t =
  (* The grafting processes died with the machine; the kernel released
     their tables. *)
  Hashtbl.iter (fun _ r -> Option.iter (Shared_pt.forget_graft t.shared_pt) r.master) t.regions;
  Hashtbl.reset t.regions
