module Frame = Physmem.Frame
module Phys_mem = Physmem.Phys_mem

type mode = Tmpfs | Pmfs

type erase_policy = Eager_zero | Background_zero | Device_erase

type t = {
  mem : Phys_mem.t;
  mode : mode;
  space : Alloc.Bitmap_alloc.t;
  quota : Quota.t;
  inodes : (int, Inode.t) Hashtbl.t;
  mutable next_ino : int;
  root : int;
  zero : Physmem.Zero_engine.t;
  erase : erase_policy;
  journal : Wal.t option;
  mutable checkpoints : int;
}

let clock t = Phys_mem.clock t.mem
let stats t = Phys_mem.stats t.mem
let trace t = Phys_mem.trace t.mem
let charge t c = Sim.Clock.charge (clock t) c

(* Frames reserved at the front of a PMFS region for its metadata
   journal. *)
let journal_frames = 16

let create ~mem ~first ~count ~mode ?quota_frames ?(erase = Eager_zero) () =
  (match mode with
  | Pmfs -> assert (Phys_mem.region_of_frame mem first = Physmem.Phys_mem.Nvm)
  | Tmpfs -> ());
  let journal, data_first, data_count =
    match mode with
    | Tmpfs -> (None, first, count)
    | Pmfs ->
      if count <= journal_frames then invalid_arg "Memfs.create: PMFS region too small";
      let wal =
        Wal.create ~mem
          ~base:(Frame.to_addr first)
          ~capacity:(journal_frames * Sim.Units.page_size)
      in
      (Some wal, first + journal_frames, count - journal_frames)
  in
  let t =
    {
      mem;
      mode;
      space = Alloc.Bitmap_alloc.create ~mem ~first:data_first ~count:data_count;
      quota = Quota.create ?limit_frames:quota_frames ();
      inodes = Hashtbl.create 64;
      next_ino = 1;
      root = 0;
      zero = Physmem.Zero_engine.create mem;
      erase;
      journal = None;
      checkpoints = 0;
    }
  in
  let t = { t with journal } in
  Hashtbl.replace t.inodes t.root (Inode.make_dir ~ino:t.root);
  t

(* Journal a metadata mutation. The journal is a bounded redo log: when
   it fills, the file system checkpoints (in a real PMFS, writing the
   full metadata image; here: a charge proportional to metadata size)
   and the log restarts. *)
let checkpoint t wal =
  (* Checkpoint: pay to rewrite the metadata image durably. *)
  let meta_bytes = Hashtbl.fold (fun _ n acc -> acc + Inode.metadata_bytes n) t.inodes 0 in
  Sim.Clock.charge (clock t)
    (Sim.Cost_model.copy_cost ~bytes:meta_bytes
    + (meta_bytes / 64 * Sim.Cost_model.mem_ref_nvm_write));
  Wal.reset wal;
  t.checkpoints <- t.checkpoints + 1;
  Sim.Stats.incr (stats t) "fs_checkpoint"

let journal_op t record =
  match t.journal with
  | None -> ()
  | Some wal ->
    (match Wal.append wal record with
    | Ok () -> ()
    | Error Wal.Wal_full -> (
      checkpoint t wal;
      (* One retry against the emptied log: a record that still doesn't
         fit can never fit, so surface ENOSPC instead of looping. *)
      match Wal.append wal record with
      | Ok () -> ()
      | Error Wal.Wal_full -> Sim.Errno.fail Sim.Errno.ENOSPC "Memfs.journal_op: record exceeds WAL capacity"));
    Sim.Stats.set_gauge (stats t) "wal_bytes" (Wal.used_bytes wal)

let journal_records t = match t.journal with None -> [] | Some wal -> Wal.entries wal
let journal_checkpoints t = t.checkpoints

let background_zero_step t ~budget_frames = Physmem.Zero_engine.background_step t.zero ~budget_frames
let zero_pool_available t = Physmem.Zero_engine.available t.zero

let mem t = t.mem

let inode t ino =
  match Hashtbl.find_opt t.inodes ino with Some i -> i | None -> raise Not_found

let exists t ino = Hashtbl.mem t.inodes ino

let charge_lookup t =
  charge t Sim.Cost_model.fs_lookup;
  Sim.Stats.incr (stats t) "fs_lookup"

(* Resolve a segment list to an inode, or None. *)
let resolve t segs =
  let rec loop ino = function
    | [] -> Some ino
    | seg :: rest -> (
      let node = inode t ino in
      if not (Inode.is_dir node) then None
      else
        match Hashtbl.find_opt (Inode.dir_entries node) seg with
        | Some child -> loop child rest
        | None -> None)
  in
  loop t.root segs

let lookup t path =
  charge_lookup t;
  resolve t (Fs_path.split path)

let resolve_dir_exn t segs ~what =
  match resolve t segs with
  | Some ino when Inode.is_dir (inode t ino) -> inode t ino
  | Some _ -> invalid_arg (what ^ ": parent is not a directory")
  | None -> Sim.Errno.fail Sim.Errno.ENOENT (what ^ ": missing parent directory")

let mkdir t path =
  charge_lookup t;
  let dir_segs, name = Fs_path.dirname_basename path in
  if not (Fs_path.valid_name name) then invalid_arg "Memfs.mkdir: bad name";
  let parent = resolve_dir_exn t dir_segs ~what:"Memfs.mkdir" in
  let entries = Inode.dir_entries parent in
  if Hashtbl.mem entries name then Sim.Errno.fail Sim.Errno.EEXIST "Memfs.mkdir: name exists";
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  Hashtbl.replace t.inodes ino (Inode.make_dir ~ino);
  Hashtbl.replace entries name ino

let create_file t path ~persistence =
  Sim.Trace.span (trace t) ~op:"fs_create" @@ fun () ->
  charge_lookup t;
  let dir_segs, name = Fs_path.dirname_basename path in
  if not (Fs_path.valid_name name) then invalid_arg "Memfs.create_file: bad name";
  let parent = resolve_dir_exn t dir_segs ~what:"Memfs.create_file" in
  let entries = Inode.dir_entries parent in
  if Hashtbl.mem entries name then Sim.Errno.fail Sim.Errno.EEXIST "Memfs.create_file: name exists";
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  let node = Inode.make_regular ~ino ~persistence in
  node.Inode.last_access <- Sim.Clock.now (clock t);
  Hashtbl.replace t.inodes ino node;
  Hashtbl.replace entries name ino;
  journal_op t
    (Printf.sprintf "create %s %c" path
       (match persistence with Inode.Persistent -> 'P' | Inode.Volatile -> 'V'));
  Sim.Stats.incr (stats t) "fs_create";
  ino

(* Returning frames: under Background_zero they enter the dirty queue so
   the zeroer can refill the handout pool; under Device_erase the extent
   is bulk-erased (constant time) and is immediately clean. *)
let release_extent t ~first ~count =
  Alloc.Bitmap_alloc.free_range t.space ~first ~count;
  Quota.release t.quota ~frames:count;
  match t.erase with
  | Eager_zero -> () (* zeroed lazily, at the next extend *)
  | Background_zero -> Physmem.Zero_engine.put_dirty t.zero ~first ~count
  | Device_erase -> Physmem.Zero_engine.bulk_erase t.zero ~first ~count

let free_file_frames t node =
  let tree = Inode.extents node in
  Extent_tree.iter tree (fun e ->
      release_extent t ~first:e.Extent.start ~count:e.Extent.count);
  ignore (Extent_tree.truncate_to tree ~pages:0);
  node.Inode.size <- 0

let maybe_reap t node =
  if node.Inode.nlink = 0 && node.Inode.refs = 0 then begin
    if not (Inode.is_dir node) then free_file_frames t node;
    Hashtbl.remove t.inodes node.Inode.ino;
    Sim.Stats.incr (stats t) "fs_reap"
  end

let unlink t path =
  charge_lookup t;
  let dir_segs, name = Fs_path.dirname_basename path in
  let parent = resolve_dir_exn t dir_segs ~what:"Memfs.unlink" in
  let entries = Inode.dir_entries parent in
  match Hashtbl.find_opt entries name with
  | None -> Sim.Errno.fail Sim.Errno.ENOENT "Memfs.unlink: no such entry"
  | Some ino ->
    let node = inode t ino in
    if Inode.is_dir node && Hashtbl.length (Inode.dir_entries node) > 0 then
      Sim.Errno.fail Sim.Errno.ENOTEMPTY "Memfs.unlink: directory not empty";
    Hashtbl.remove entries name;
    node.Inode.nlink <- node.Inode.nlink - 1;
    journal_op t (Printf.sprintf "unlink %s" path);
    maybe_reap t node

let link t ~existing ~new_path =
  charge_lookup t;
  let ino =
    match lookup t existing with
    | Some ino -> ino
    | None -> Sim.Errno.fail Sim.Errno.ENOENT "Memfs.link: no such file"
  in
  let node = inode t ino in
  if Inode.is_dir node then invalid_arg "Memfs.link: cannot link a directory";
  let dir_segs, name = Fs_path.dirname_basename new_path in
  if not (Fs_path.valid_name name) then invalid_arg "Memfs.link: bad name";
  let parent = resolve_dir_exn t dir_segs ~what:"Memfs.link" in
  let entries = Inode.dir_entries parent in
  if Hashtbl.mem entries name then Sim.Errno.fail Sim.Errno.EEXIST "Memfs.link: name exists";
  Hashtbl.replace entries name ino;
  node.Inode.nlink <- node.Inode.nlink + 1;
  journal_op t (Printf.sprintf "link %s %s" existing new_path)

let rename t ~old_path ~new_path =
  charge_lookup t;
  let old_segs, old_name = Fs_path.dirname_basename old_path in
  let old_parent = resolve_dir_exn t old_segs ~what:"Memfs.rename" in
  let ino =
    match Hashtbl.find_opt (Inode.dir_entries old_parent) old_name with
    | Some ino -> ino
    | None -> Sim.Errno.fail Sim.Errno.ENOENT "Memfs.rename: no such entry"
  in
  let new_segs, new_name = Fs_path.dirname_basename new_path in
  if not (Fs_path.valid_name new_name) then invalid_arg "Memfs.rename: bad name";
  let new_parent = resolve_dir_exn t new_segs ~what:"Memfs.rename" in
  let new_entries = Inode.dir_entries new_parent in
  if Hashtbl.mem new_entries new_name then
    Sim.Errno.fail Sim.Errno.EEXIST "Memfs.rename: destination exists";
  Hashtbl.remove (Inode.dir_entries old_parent) old_name;
  Hashtbl.replace new_entries new_name ino;
  journal_op t (Printf.sprintf "rename %s %s" old_path new_path)

let readdir t path =
  charge_lookup t;
  match resolve t (Fs_path.split path) with
  | Some ino when Inode.is_dir (inode t ino) ->
    Hashtbl.fold (fun k _ acc -> k :: acc) (Inode.dir_entries (inode t ino)) []
    |> List.sort String.compare
  | Some _ -> invalid_arg "Memfs.readdir: not a directory"
  | None -> invalid_arg "Memfs.readdir: no such directory"

(* Allocate [pages] frames as few extents as possible: try the whole run,
   then halve. Returns extents newest-first. *)
let allocate_extents t pages =
  let rec loop remaining acc =
    if remaining = 0 then Some acc
    else
      (* Try the whole remaining run first, then halves: biggest first. *)
      let try_sizes =
        let rec sizes n acc = if n = 0 then acc else sizes (n / 2) (n :: acc) in
        List.rev (sizes remaining [])
      in
      let rec attempt = function
        | [] -> None
        | size :: rest -> (
          match Alloc.Bitmap_alloc.alloc_contig t.space ~count:size with
          | Some first -> Some (first, size)
          | None -> attempt rest)
      in
      match attempt try_sizes with
      | None ->
        (* Roll back partial allocation. *)
        List.iter
          (fun (first, size) -> Alloc.Bitmap_alloc.free_range t.space ~first ~count:size)
          acc;
        None
      | Some (first, size) -> loop (remaining - size) ((first, size) :: acc)
  in
  loop pages []

let extend t ino ~bytes_wanted =
  if bytes_wanted < 0 then invalid_arg "Memfs.extend: negative size";
  Sim.Trace.span (trace t) ~op:"fs_extend" ~arg:(fun () -> bytes_wanted) @@ fun () ->
  let node = inode t ino in
  let tree = Inode.extents node in
  let pages = Sim.Units.pages_of_bytes bytes_wanted in
  if pages > 0 then begin
    (* Injected quota refusal exercises the same ENOSPC path a genuinely
       full quota would. *)
    if
      Sim.Fault_inject.fires (Sim.Trace.faults (trace t)) ~site:Sim.Fault_inject.site_quota_enospc
      || not (Quota.try_charge t.quota ~frames:pages)
    then Sim.Errno.fail Sim.Errno.ENOSPC "Memfs.extend: quota";
    match allocate_extents t pages with
    | None ->
      Quota.release t.quota ~frames:pages;
      Sim.Errno.fail Sim.Errno.ENOSPC "Memfs.extend: no extents"
    | Some runs ->
      Sim.Stats.incr (stats t) "fs_extend";
      List.iter
        (fun (first, count) ->
          charge t Sim.Cost_model.fs_extent_op;
          match t.erase with
          | Eager_zero ->
            for pfn = first to first + count - 1 do
              Physmem.Zero_engine.eager_zero t.zero pfn
            done
          | Background_zero ->
            (* Frames from the pre-zeroed pool are clean already; any not
               covered by the pool must still be zeroed now. The pool is
               an overlay: we only count how many handouts it can cover,
               one charged take per frame. *)
            let covered = ref 0 in
            for _ = 1 to count do
              if Physmem.Zero_engine.take t.zero >= 0 then incr covered
            done;
            for pfn = first to first + count - 1 - !covered do
              Physmem.Zero_engine.eager_zero t.zero pfn
            done;
            (* The covered tail is clean by construction; clear contents
               host-side with no charge (they were zeroed when pooled). *)
            for pfn = first + count - !covered to first + count - 1 do
              Phys_mem.discard_frame t.mem pfn
            done
          | Device_erase ->
            (* Freed extents were erased on the way out: nothing to do. *)
            ())
        (List.rev runs);
      List.iter (fun (first, count) -> Extent_tree.append tree ~start:first ~count) (List.rev runs);
      journal_op t (Printf.sprintf "extend %d %d" ino pages)
  end;
  node.Inode.size <- node.Inode.size + bytes_wanted

(* A truncate to the current size or beyond touches nothing, but it is
   still a call: every call is one event and one frame. *)
let truncate t ino ~bytes =
  let node = inode t ino in
  Sim.Trace.span (trace t) ~op:"fs_truncate" ~arg:(fun () -> bytes) @@ fun () ->
  if bytes < node.Inode.size then begin
    let pages = Sim.Units.pages_of_bytes bytes in
    let cut = Extent_tree.truncate_to (Inode.extents node) ~pages in
    List.iter
      (fun e ->
        charge t Sim.Cost_model.fs_extent_op;
        release_extent t ~first:e.Extent.start ~count:e.Extent.count)
      cut;
    journal_op t (Printf.sprintf "truncate %d %d" ino pages);
    node.Inode.size <- bytes
  end

let touch_access t node = node.Inode.last_access <- Sim.Clock.now (clock t)

(* Map a byte range of the file to (phys addr, run length) chunks. *)
let chunks_of t node ~off ~len =
  let tree = Inode.extents node in
  let rec loop off remaining acc =
    if remaining = 0 then List.rev acc
    else
      let page = off / Sim.Units.page_size in
      match Extent_tree.find_extent tree ~page with
      | None -> invalid_arg "Memfs: hole in file (corrupt state)"
      | Some e ->
        let in_extent_off = off - (e.Extent.logical * Sim.Units.page_size) in
        let extent_bytes = Extent.bytes e in
        let run = min remaining (extent_bytes - in_extent_off) in
        let pa = Frame.to_addr e.Extent.start + in_extent_off in
        charge t Sim.Cost_model.fs_extent_resolve;
        loop (off + run) (remaining - run) ((pa, run) :: acc)
  in
  ignore t;
  loop off len []

let write_file t ino ~off data =
  charge_lookup t;
  let node = inode t ino in
  if off < 0 then invalid_arg "Memfs.write_file: negative offset";
  let len = String.length data in
  let needed = off + len - node.Inode.size in
  if needed > 0 then extend t ino ~bytes_wanted:needed;
  touch_access t node;
  (* [write_sub] only reads [data]. *)
  let src = Bytes.unsafe_of_string data in
  let rec copy chunks pos =
    match chunks with
    | [] -> ()
    | (pa, run) :: rest ->
      Phys_mem.write_sub t.mem ~addr:pa src ~pos ~len:run;
      copy rest (pos + run)
  in
  copy (chunks_of t node ~off ~len) 0

let read_file t ino ~off ~len =
  charge_lookup t;
  let node = inode t ino in
  if off < 0 || len < 0 then invalid_arg "Memfs.read_file: negative offset/length";
  touch_access t node;
  let len = max 0 (min len (node.Inode.size - off)) in
  let buf = Bytes.create len in
  ignore
    (List.fold_left
       (fun pos (pa, run) ->
         Phys_mem.read_into t.mem ~addr:pa ~len:run buf ~pos;
         pos + run)
       0 (chunks_of t node ~off ~len));
  buf

let file_extents t ino = Extent_tree.to_list (Inode.extents (inode t ino))

let open_file t ino =
  let node = inode t ino in
  node.Inode.refs <- node.Inode.refs + 1;
  touch_access t node

let close_file t ino =
  let node = inode t ino in
  if node.Inode.refs <= 0 then invalid_arg "Memfs.close_file: not open";
  node.Inode.refs <- node.Inode.refs - 1;
  maybe_reap t node

let set_prot t ino prot =
  charge t Sim.Cost_model.fs_attr_write;
  (inode t ino).Inode.prot <- prot

let set_persistence t ino p =
  charge t Sim.Cost_model.fs_attr_write;
  journal_op t
    (Printf.sprintf "persist %d %c" ino (match p with Inode.Persistent -> 'P' | Inode.Volatile -> 'V'));
  (inode t ino).Inode.persistence <- p

let set_discardable t ino d =
  charge t Sim.Cost_model.fs_attr_write;
  (inode t ino).Inode.discardable <- d

(* Path of every regular file, for iteration and recovery. *)
let all_files t =
  let acc = ref [] in
  let rec walk ino prefix =
    let node = inode t ino in
    match node.Inode.kind with
    | Inode.Regular _ -> acc := (prefix, node) :: !acc
    | Inode.Dir entries ->
      Hashtbl.iter (fun name child -> walk child (prefix ^ "/" ^ name)) entries
  in
  walk t.root "";
  !acc

let iter_files t f = List.iter (fun (p, n) -> f p n) (all_files t)

let average_extents_per_file t =
  let files = ref 0 and extents = ref 0 in
  Hashtbl.iter
    (fun _ node ->
      match node.Inode.kind with
      | Inode.Regular tree when Extent_tree.pages tree > 0 ->
        incr files;
        extents := !extents + Extent_tree.extent_count tree
      | Inode.Regular _ | Inode.Dir _ -> ())
    t.inodes;
  if !files = 0 then 1.0 else float_of_int !extents /. float_of_int !files

let compact_file t node =
  let tree = Inode.extents node in
  let pages = Extent_tree.pages tree in
  match Alloc.Bitmap_alloc.alloc_contig t.space ~count:pages with
  | None -> false
  | Some dst ->
    if not (Quota.try_charge t.quota ~frames:pages) then begin
      Alloc.Bitmap_alloc.free_range t.space ~first:dst ~count:pages;
      false
    end
    else begin
      (* Copy page by page into the new run, then retire the old extents. *)
      let old_extents = Extent_tree.to_list tree in
      List.iter
        (fun (e : Extent.t) ->
          for i = 0 to e.Extent.count - 1 do
            Phys_mem.copy t.mem ~src:(Frame.to_addr (e.Extent.start + i))
              ~dst:(Frame.to_addr (dst + e.Extent.logical + i)) ~len:Sim.Units.page_size
          done)
        old_extents;
      ignore (Extent_tree.truncate_to tree ~pages:0);
      Extent_tree.append tree ~start:dst ~count:pages;
      List.iter
        (fun (e : Extent.t) -> release_extent t ~first:e.Extent.start ~count:e.Extent.count)
        old_extents;
      Sim.Stats.incr (stats t) "fs_compact";
      true
    end

let defragment t () =
  let candidates = ref [] in
  Hashtbl.iter
    (fun _ node ->
      match node.Inode.kind with
      | Inode.Regular tree
        when Extent_tree.extent_count tree > 1 && node.Inode.refs = 0 && node.Inode.nlink > 0 ->
        candidates := node :: !candidates
      | Inode.Regular _ | Inode.Dir _ -> ())
    t.inodes;
  (* Worst-fragmented first. *)
  let sorted =
    List.sort
      (fun a b ->
        compare
          (Extent_tree.extent_count (Inode.extents b))
          (Extent_tree.extent_count (Inode.extents a)))
      !candidates
  in
  let moved = ref 0 in
  List.iter (fun node -> if compact_file t node then incr moved) sorted;
  !moved

let reclaim_discardable t ~target_bytes =
  let candidates =
    all_files t
    |> List.filter (fun (_, n) -> n.Inode.discardable && n.Inode.refs = 0)
    |> List.sort (fun (_, a) (_, b) -> compare a.Inode.last_access b.Inode.last_access)
  in
  let freed = ref 0 in
  List.iter
    (fun (path, node) ->
      if !freed < target_bytes then begin
        let sz = node.Inode.size in
        unlink t path;
        freed := !freed + sz;
        Sim.Stats.incr (stats t) "fs_discard"
      end)
    candidates;
  !freed

let crash t =
  match t.mode with
  | Pmfs ->
    (* Metadata is in NVM: survives. Phys_mem.crash reverts the journal's
       unflushed lines and wipes DRAM. *)
    ()
  | Tmpfs ->
    (* The whole FS was in DRAM: its frames go back to the space bitmap
       and the quota (uncharged: the machine is off); wipe the namespace. *)
    let free (e : Extent.t) =
      Alloc.Bitmap_alloc.free_range t.space ~first:e.Extent.start ~count:e.Extent.count;
      Quota.release t.quota ~frames:e.Extent.count
    in
    Sim.Clock.off (clock t) (fun () ->
        Hashtbl.iter (fun _ n -> if not (Inode.is_dir n) then Extent_tree.iter (Inode.extents n) free) t.inodes);
    Hashtbl.reset t.inodes;
    Hashtbl.replace t.inodes t.root (Inode.make_dir ~ino:t.root);
    t.next_ino <- 1

let recover t =
  (match t.mode with Pmfs -> () | Tmpfs -> invalid_arg "Memfs.recover: tmpfs does not recover");
  let files = all_files t in
  let scanned = List.length files in
  List.iter
    (fun (path, node) ->
      charge t Sim.Cost_model.fs_recovery_scan;
      node.Inode.refs <- 0;
      match node.Inode.persistence with
      | Inode.Persistent -> ()
      | Inode.Volatile ->
        (* Volatile file in a persistent FS: erase in O(1) per extent. *)
        Extent_tree.iter (Inode.extents node) (fun e ->
            Physmem.Zero_engine.bulk_erase t.zero ~first:e.Extent.start ~count:e.Extent.count);
        unlink t path)
    files;
  Sim.Stats.add (stats t) "fs_recover_files" scanned;
  scanned

let total_bytes t = Alloc.Bitmap_alloc.total_frames t.space * Sim.Units.page_size
let free_bytes t = Alloc.Bitmap_alloc.free_frames t.space * Sim.Units.page_size
let used_bytes t = total_bytes t - free_bytes t
let quota_used_frames t = Quota.used t.quota

let data_pages t =
  Hashtbl.fold
    (fun _ node acc ->
      match node.Inode.kind with
      | Inode.Regular tree -> acc + Extent_tree.pages tree
      | Inode.Dir _ -> acc)
    t.inodes 0

let journal_bytes t = match t.journal with None -> 0 | Some wal -> Wal.used_bytes wal
let utilization t = Alloc.Bitmap_alloc.utilization t.space

let metadata_bytes t =
  Alloc.Bitmap_alloc.metadata_bytes t.space
  + Hashtbl.fold (fun _ n acc -> acc + Inode.metadata_bytes n) t.inodes 0

let file_count t =
  Hashtbl.fold (fun _ n acc -> if Inode.is_dir n then acc else acc + 1) t.inodes 0
