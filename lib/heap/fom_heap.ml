let large_threshold = Sim.Units.kib 128
let min_class = 16
let classes = 14

type t = {
  fom : O1mem.Fom.t;
  mutable proc : Os.Proc.t;
  arena_bytes : int;
  file_prefix : string option;
  free_lists : int list array;
  live : (int, int) Hashtbl.t; (* va -> size *)
  large_regions : (int, O1mem.Fom.region) Hashtbl.t; (* va -> region *)
  mutable arena_regions : O1mem.Fom.region list; (* creation order *)
  mutable arena_cursor : int;
  mutable arena_tail : int;
  mutable live_bytes : int;
}

let create fom proc ?(arena_bytes = Sim.Units.mib 1) ?file_prefix () =
  {
    fom;
    proc;
    arena_bytes;
    file_prefix;
    free_lists = Array.make classes [];
    live = Hashtbl.create 256;
    large_regions = Hashtbl.create 16;
    arena_regions = [];
    arena_cursor = 0;
    arena_tail = 0;
    live_bytes = 0;
  }

let class_of bytes =
  let rec loop k size = if size >= bytes then k else loop (k + 1) (size * 2) in
  loop 0 min_class

let class_size k = min_class lsl k

let arena_path prefix n = Printf.sprintf "%s.%d" prefix n

let grow_arena t =
  let r =
    match t.file_prefix with
    | None -> O1mem.Fom.alloc t.fom t.proc ~len:t.arena_bytes ~prot:Hw.Prot.rw ()
    | Some prefix ->
      (* Named, persistent arenas: the heap's memory survives a crash and
         can be re-mapped by path, in creation order, after recovery. *)
      O1mem.Fom.alloc t.fom t.proc
        ~name:(arena_path prefix (List.length t.arena_regions))
        ~persistence:Fs.Inode.Persistent ~len:t.arena_bytes ~prot:Hw.Prot.rw ()
  in
  t.arena_regions <- t.arena_regions @ [ r ];
  t.arena_cursor <- r.O1mem.Fom.va;
  t.arena_tail <- r.O1mem.Fom.va + r.O1mem.Fom.len

let malloc t ~bytes =
  if bytes <= 0 then invalid_arg "Fom_heap.malloc: non-positive size";
  if bytes >= large_threshold then begin
    let r = O1mem.Fom.alloc t.fom t.proc ~len:bytes ~prot:Hw.Prot.rw () in
    Hashtbl.replace t.large_regions r.O1mem.Fom.va r;
    Hashtbl.replace t.live r.O1mem.Fom.va r.O1mem.Fom.len;
    t.live_bytes <- t.live_bytes + r.O1mem.Fom.len;
    r.O1mem.Fom.va
  end
  else begin
    let k = class_of bytes in
    let size = class_size k in
    match t.free_lists.(k) with
    | va :: rest ->
      t.free_lists.(k) <- rest;
      Hashtbl.replace t.live va size;
      t.live_bytes <- t.live_bytes + size;
      va
    | [] ->
      if t.arena_cursor + size > t.arena_tail then grow_arena t;
      let va = t.arena_cursor in
      t.arena_cursor <- va + size;
      Hashtbl.replace t.live va size;
      t.live_bytes <- t.live_bytes + size;
      va
  end

let free t va =
  match Hashtbl.find_opt t.live va with
  | None -> invalid_arg "Fom_heap.free: unknown block"
  | Some size ->
    Hashtbl.remove t.live va;
    t.live_bytes <- t.live_bytes - size;
    (match Hashtbl.find_opt t.large_regions va with
    | Some r ->
      Hashtbl.remove t.large_regions va;
      O1mem.Fom.free t.fom t.proc r
    | None -> t.free_lists.(class_of size) <- va :: t.free_lists.(class_of size))

let size_of t va = Hashtbl.find_opt t.live va
let live_bytes t = t.live_bytes

let footprint_bytes t =
  List.fold_left (fun acc (r : O1mem.Fom.region) -> acc + r.O1mem.Fom.len) 0 t.arena_regions
  + Hashtbl.fold (fun _ (r : O1mem.Fom.region) acc -> acc + r.O1mem.Fom.len) t.large_regions 0

let region_count t = List.length t.arena_regions + Hashtbl.length t.large_regions

(* Arena-relative addressing: stable block identities for persistent
   callers. A (arena index, byte offset) pair survives crashes and
   re-mapping at new VAs, which raw virtual addresses do not. *)

let arena_count t = List.length t.arena_regions

let arena_region t i =
  match List.nth_opt t.arena_regions i with
  | Some r -> r
  | None -> invalid_arg "Fom_heap.arena_region: no such arena"

let locate t va =
  let rec loop i = function
    | [] -> None
    | (r : O1mem.Fom.region) :: rest ->
      if va >= r.O1mem.Fom.va && va < r.O1mem.Fom.va + r.O1mem.Fom.len then
        Some (i, va - r.O1mem.Fom.va)
      else loop (i + 1) rest
  in
  loop 0 t.arena_regions

let address t ~arena ~off =
  let r = arena_region t arena in
  if off < 0 || off >= r.O1mem.Fom.len then invalid_arg "Fom_heap.address: offset out of arena";
  r.O1mem.Fom.va + off

let iter_live t f = Hashtbl.iter f t.live

let reattach t proc =
  if t.file_prefix = None then invalid_arg "Fom_heap.reattach: heap has no file_prefix";
  if Hashtbl.length t.large_regions > 0 then
    invalid_arg "Fom_heap.reattach: large regions do not survive reattach";
  let old_arenas = t.arena_regions in
  let fresh =
    List.map
      (fun (r : O1mem.Fom.region) -> O1mem.Fom.map_path t.fom proc ~prot:Hw.Prot.rw r.O1mem.Fom.path)
      old_arenas
  in
  (* Rebase every VA-keyed structure: same arena index + offset, new base. *)
  let translate va =
    let rec loop olds news =
      match (olds, news) with
      | (o : O1mem.Fom.region) :: otl, (n : O1mem.Fom.region) :: ntl ->
        if va >= o.O1mem.Fom.va && va < o.O1mem.Fom.va + o.O1mem.Fom.len then
          n.O1mem.Fom.va + (va - o.O1mem.Fom.va)
        else loop otl ntl
      | _ -> invalid_arg "Fom_heap.reattach: va outside every arena"
    in
    loop old_arenas fresh
  in
  let live' = Hashtbl.fold (fun va size acc -> (translate va, size) :: acc) t.live [] in
  Hashtbl.reset t.live;
  List.iter (fun (va, size) -> Hashtbl.replace t.live va size) live';
  Array.iteri (fun k l -> t.free_lists.(k) <- List.map translate l) t.free_lists;
  (match (List.rev old_arenas, List.rev fresh) with
  | last_old :: _, last_fresh :: _ ->
    t.arena_cursor <- last_fresh.O1mem.Fom.va + (t.arena_cursor - last_old.O1mem.Fom.va);
    t.arena_tail <- last_fresh.O1mem.Fom.va + last_fresh.O1mem.Fom.len
  | _ -> ());
  t.arena_regions <- fresh;
  t.proc <- proc;
  (* A crash inside grow_arena can leave the next arena's file behind
     with no committed slot in it; drop it, or the next growth collides
     with its name. The scan is host-side, so a heap without such a file
     pays nothing. *)
  let fs = O1mem.Fom.fs t.fom in
  let orphan = arena_path (Option.get t.file_prefix) (List.length fresh) in
  let found = ref None in
  Fs.Memfs.iter_files fs (fun path node -> if path = orphan then found := Some node.Fs.Inode.ino);
  Option.iter
    (fun ino ->
      O1mem.Shared_pt.drop_masters_for (O1mem.Fom.shared_pt t.fom) ~ino;
      Fs.Memfs.unlink fs orphan)
    !found

let destroy t =
  List.iter (fun r -> O1mem.Fom.free t.fom t.proc r) t.arena_regions;
  Hashtbl.iter (fun _ r -> O1mem.Fom.free t.fom t.proc r) t.large_regions;
  t.arena_regions <- [];
  Hashtbl.reset t.large_regions;
  Hashtbl.reset t.live;
  Array.fill t.free_lists 0 classes [];
  t.live_bytes <- 0;
  t.arena_cursor <- 0;
  t.arena_tail <- 0
