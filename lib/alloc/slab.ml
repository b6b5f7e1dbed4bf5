module Frame = Physmem.Frame

type slab = {
  base : Frame.t;
  mutable free_list : int list; (* object addresses free in this slab *)
  mutable live : int;
}

type cache = {
  mem : Physmem.Phys_mem.t;
  backing : Buddy.t;
  name : string;
  obj_bytes : int;
  slab_frames : int;
  objs_per_slab : int;
  slabs : (Frame.t, slab) Hashtbl.t;
  (* Slabs with at least one free object, by base frame. *)
  mutable partial : Frame.t list;
  mutable live : int;
}

let create_cache ~mem ~backing ~name ~obj_bytes () =
  if obj_bytes <= 0 then invalid_arg "Slab.create_cache: non-positive object size";
  let obj_bytes = Sim.Units.round_up obj_bytes ~align:64 in
  let slab_frames = 1 lsl Sim.Units.log2_ceil (Sim.Units.pages_of_bytes (8 * obj_bytes)) in
  if Sim.Units.log2_ceil slab_frames > Buddy.max_order backing then
    invalid_arg "Slab.create_cache: slab larger than buddy max order";
  let slab_bytes = slab_frames * Sim.Units.page_size in
  {
    mem;
    backing;
    name;
    obj_bytes;
    slab_frames;
    objs_per_slab = slab_bytes / obj_bytes;
    slabs = Hashtbl.create 16;
    partial = [];
    live = 0;
  }

let obj_bytes c = c.obj_bytes

let charge c n = Sim.Clock.charge (Physmem.Phys_mem.clock c.mem) n

let grow c =
  match Buddy.alloc c.backing ~order:(Sim.Units.log2_ceil c.slab_frames) with
  | None -> None
  | Some base ->
    let addr0 = Frame.to_addr base in
    let free_list =
      List.init c.objs_per_slab (fun i -> addr0 + (i * c.obj_bytes))
    in
    let slab = { base; free_list; live = 0 } in
    Hashtbl.replace c.slabs base slab;
    c.partial <- base :: c.partial;
    Sim.Stats.incr (Physmem.Phys_mem.stats c.mem) "slab_grow";
    Some slab

let alloc c =
  charge c Sim.Cost_model.slab_op;
  let slab =
    match c.partial with
    | base :: _ -> Some (Hashtbl.find c.slabs base)
    | [] -> grow c
  in
  match slab with
  | None -> None
  | Some slab -> (
    match slab.free_list with
    | [] -> assert false (* partial list invariant *)
    | addr :: rest ->
      slab.free_list <- rest;
      slab.live <- slab.live + 1;
      c.live <- c.live + 1;
      if rest = [] then c.partial <- List.filter (fun b -> b <> slab.base) c.partial;
      Some addr)

let slab_of_addr c addr =
  let slab_bytes = c.slab_frames * Sim.Units.page_size in
  let base = Frame.of_addr (Sim.Units.round_down addr ~align:slab_bytes) in
  Hashtbl.find_opt c.slabs base

let free c addr =
  charge c Sim.Cost_model.slab_op;
  match slab_of_addr c addr with
  | None -> invalid_arg "Slab.free: address not in any slab of this cache"
  | Some slab ->
    let off = addr - Frame.to_addr slab.base in
    if off mod c.obj_bytes <> 0 then invalid_arg "Slab.free: misaligned object address";
    if List.mem addr slab.free_list then invalid_arg "Slab.free: double free";
    let was_full = slab.free_list = [] in
    slab.free_list <- addr :: slab.free_list;
    slab.live <- slab.live - 1;
    c.live <- c.live - 1;
    if slab.live = 0 then begin
      (* Fully free slab: return it to the buddy allocator. *)
      Hashtbl.remove c.slabs slab.base;
      c.partial <- List.filter (fun b -> b <> slab.base) c.partial;
      Buddy.free c.backing slab.base ~order:(Sim.Units.log2_ceil c.slab_frames);
      Sim.Stats.incr (Physmem.Phys_mem.stats c.mem) "slab_reap"
    end
    else if was_full then c.partial <- slab.base :: c.partial

let live_objects c = c.live
let slab_count c = Hashtbl.length c.slabs

let footprint_bytes c = slab_count c * c.slab_frames * Sim.Units.page_size
let wasted_bytes c = footprint_bytes c - (c.live * c.obj_bytes)
