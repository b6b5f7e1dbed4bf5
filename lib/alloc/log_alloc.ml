module Frame = Physmem.Frame
module IntMap = Map.Make (Int)

type obj = { mutable addr : int; size : int; mutable live : bool }

type segment = {
  base : Frame.t;
  mutable used : int; (* bump offset, bytes *)
  mutable live_bytes : int;
  mutable objects : obj list; (* objects placed here, newest first *)
}

type handle = int

type t = {
  mem : Physmem.Phys_mem.t;
  backing : Extent_alloc.t;
  segment_frames : int;
  mutable head : segment option;
  mutable closed : segment list;
  objects : (handle, obj) Hashtbl.t;
  mutable next_handle : int;
  mutable live : int;
}

let segment_bytes t = t.segment_frames * Sim.Units.page_size

let create ~mem ~backing ?(segment_frames = 2048) () =
  if segment_frames <= 0 then invalid_arg "Log_alloc.create: bad segment size";
  {
    mem;
    backing;
    segment_frames;
    head = None;
    closed = [];
    objects = Hashtbl.create 256;
    next_handle = 0;
    live = 0;
  }

let charge t n = Sim.Clock.charge (Physmem.Phys_mem.clock t.mem) n

let open_segment t =
  match Extent_alloc.alloc t.backing ~frames:t.segment_frames with
  | None -> None
  | Some base ->
    let seg = { base; used = 0; live_bytes = 0; objects = [] } in
    t.head <- Some seg;
    Sim.Stats.incr (Physmem.Phys_mem.stats t.mem) "log_segment_open";
    Some seg

let place t seg ~bytes =
  let addr = Frame.to_addr seg.base + seg.used in
  seg.used <- seg.used + bytes;
  seg.live_bytes <- seg.live_bytes + bytes;
  let o = { addr; size = bytes; live = true } in
  seg.objects <- o :: seg.objects;
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Hashtbl.replace t.objects h o;
  t.live <- t.live + bytes;
  o.addr <- addr;
  h

let rec alloc t ~bytes =
  if bytes <= 0 then invalid_arg "Log_alloc.alloc: non-positive size";
  let bytes_al = Sim.Units.round_up bytes ~align:16 in
  if bytes_al > segment_bytes t then invalid_arg "Log_alloc.alloc: object larger than segment";
  charge t Sim.Cost_model.log_alloc_op;
  match t.head with
  | Some seg when seg.used + bytes_al <= segment_bytes t -> Some (place t seg ~bytes:bytes_al)
  | Some seg ->
    (* Head full: close it and retry with a fresh head. *)
    t.closed <- seg :: t.closed;
    t.head <- None;
    alloc t ~bytes
  | None -> (
    match open_segment t with
    | Some _ -> alloc t ~bytes
    | None ->
      (* Out of backing space: try cleaning, then retry once. *)
      if clean t ~max_segments:4 > 0 then alloc t ~bytes else None)

and free t h =
  match Hashtbl.find_opt t.objects h with
  | None -> invalid_arg "Log_alloc.free: unknown or already-freed handle"
  | Some o ->
    if not o.live then invalid_arg "Log_alloc.free: double free";
    o.live <- false;
    Hashtbl.remove t.objects h;
    t.live <- t.live - o.size;
    let seg_of_addr addr =
      let in_seg s =
        addr >= Frame.to_addr s.base && addr < Frame.to_addr s.base + segment_bytes t
      in
      match t.head with
      | Some s when in_seg s -> Some s
      | _ -> List.find_opt in_seg t.closed
    in
    (match seg_of_addr o.addr with
    | Some seg -> seg.live_bytes <- seg.live_bytes - o.size
    | None -> ());
    charge t Sim.Cost_model.log_alloc_op

and clean t ~max_segments =
  (* Pick the emptiest closed segments and evacuate their live objects into
     the head. A victim is only freed once every survivor has moved; if we
     run out of space mid-evacuation the victim goes back to the closed
     list with its remaining objects intact. *)
  let victims =
    List.sort (fun a b -> compare a.live_bytes b.live_bytes) t.closed
    |> List.filteri (fun i _ -> i < max_segments)
  in
  let reclaimed = ref 0 in
  let evacuate o =
    let dest =
      match t.head with
      | Some h when h.used + o.size <= segment_bytes t -> Some h
      | _ ->
        (match t.head with Some h -> t.closed <- h :: t.closed | None -> ());
        t.head <- None;
        open_segment t
    in
    match dest with
    | None -> false
    | Some h ->
      charge t (Sim.Cost_model.copy_cost ~bytes:o.size);
      let addr = Frame.to_addr h.base + h.used in
      h.used <- h.used + o.size;
      h.live_bytes <- h.live_bytes + o.size;
      h.objects <- o :: h.objects;
      o.addr <- addr;
      true
  in
  List.iter
    (fun seg ->
      t.closed <- List.filter (fun s -> s != seg) t.closed;
      let rec move : obj list -> obj list = function
        | [] -> []
        | o :: rest when not o.live -> move rest
        | o :: rest -> if evacuate o then move rest else o :: rest
      in
      let leftovers = move seg.objects in
      if leftovers = [] then begin
        Extent_alloc.free t.backing ~first:seg.base ~frames:t.segment_frames;
        Sim.Stats.incr (Physmem.Phys_mem.stats t.mem) "log_segment_clean";
        incr reclaimed
      end
      else begin
        seg.objects <- leftovers;
        seg.live_bytes <- List.fold_left (fun acc o -> acc + o.size) 0 leftovers;
        t.closed <- seg :: t.closed
      end)
    victims;
  !reclaimed

let addr_of t h =
  match Hashtbl.find_opt t.objects h with
  | Some o when o.live -> o.addr
  | _ -> raise Not_found

let size_of t h =
  match Hashtbl.find_opt t.objects h with
  | Some o when o.live -> o.size
  | _ -> raise Not_found

let live_bytes t = t.live

let footprint_bytes t =
  let n = List.length t.closed + (match t.head with Some _ -> 1 | None -> 0) in
  n * segment_bytes t

let segment_count t = List.length t.closed + (match t.head with Some _ -> 1 | None -> 0)

let utilization t =
  let fp = footprint_bytes t in
  if fp = 0 then 0.0 else float_of_int t.live /. float_of_int fp
