module Frame = Physmem.Frame

type t = {
  mem : Physmem.Phys_mem.t;
  first : Frame.t;
  count : int;
  max_order : int;
  merge : bool;
  (* free.(k) maps block start frame -> () for free blocks of order k. *)
  free : (Frame.t, unit) Hashtbl.t array;
  mutable free_frames : int;
}

let charge t c = Sim.Clock.charge (Physmem.Phys_mem.clock t.mem) c
let stats t = Physmem.Phys_mem.stats t.mem

let create ~mem ~first ~count ?(max_order = 10) ?(merge = true) () =
  let block = 1 lsl max_order in
  if count <= 0 || count mod block <> 0 then
    invalid_arg "Buddy.create: count must be a positive multiple of 2^max_order";
  if first mod block <> 0 then invalid_arg "Buddy.create: first not aligned to max order";
  let t =
    {
      mem;
      first;
      count;
      max_order;
      merge;
      free = Array.init (max_order + 1) (fun _ -> Hashtbl.create 64);
      free_frames = count;
    }
  in
  let top = t.free.(max_order) in
  let rec seed pfn = if pfn < first + count then (Hashtbl.replace top pfn (); seed (pfn + block)) in
  seed first;
  t

let max_order t = t.max_order

let in_range t pfn = pfn >= t.first && pfn < t.first + t.count
let owns = in_range
let frames t = t.count

let buddy_of t pfn ~order = t.first + ((pfn - t.first) lxor (1 lsl order))

let rec find_order t order =
  if order > t.max_order then None
  else if Hashtbl.length t.free.(order) > 0 then Some order
  else find_order t (order + 1)

let pop_any tbl =
  (* Deterministic choice: smallest start frame, keeping layouts stable. *)
  let best = Hashtbl.fold (fun k () acc -> match acc with None -> Some k | Some b -> Some (min b k)) tbl None in
  match best with
  | None -> None
  | Some k ->
    Hashtbl.remove tbl k;
    Some k

let alloc t ~order =
  if order < 0 || order > t.max_order then invalid_arg "Buddy.alloc: bad order";
  charge t Sim.Cost_model.frame_alloc;
  match find_order t order with
  | None -> None
  | Some avail ->
    let pfn =
      match pop_any t.free.(avail) with Some p -> p | None -> assert false
    in
    (* Split down to the requested order, freeing the upper halves. *)
    let rec split pfn k =
      if k = order then pfn
      else begin
        let k = k - 1 in
        let upper = pfn + (1 lsl k) in
        Hashtbl.replace t.free.(k) upper ();
        Sim.Stats.incr (stats t) "buddy_split";
        charge t Sim.Cost_model.buddy_split_merge;
        split pfn k
      end
    in
    let pfn = split pfn avail in
    t.free_frames <- t.free_frames - (1 lsl order);
    Some pfn

let rec insert_and_merge t pfn order =
  if t.merge && order < t.max_order then begin
    let buddy = buddy_of t pfn ~order in
    if Hashtbl.mem t.free.(order) buddy then begin
      Hashtbl.remove t.free.(order) buddy;
      Sim.Stats.incr (stats t) "buddy_merge";
      charge t Sim.Cost_model.buddy_split_merge;
      insert_and_merge t (min pfn buddy) (order + 1)
    end
    else Hashtbl.replace t.free.(order) pfn ()
  end
  else Hashtbl.replace t.free.(order) pfn ()

let is_free t pfn =
  if not (in_range t pfn) then false
  else
    let rec probe order =
      if order > t.max_order then false
      else
        let start = t.first + Sim.Units.round_down (pfn - t.first) ~align:(1 lsl order) in
        Hashtbl.mem t.free.(order) start || probe (order + 1)
    in
    probe 0

let free t pfn ~order =
  if order < 0 || order > t.max_order then invalid_arg "Buddy.free: bad order";
  if not (in_range t pfn) then invalid_arg "Buddy.free: frame out of range";
  if (pfn - t.first) land ((1 lsl order) - 1) <> 0 then
    invalid_arg "Buddy.free: misaligned block";
  if is_free t pfn then invalid_arg "Buddy.free: double free";
  charge t Sim.Cost_model.frame_alloc;
  insert_and_merge t pfn order;
  t.free_frames <- t.free_frames + (1 lsl order)

let alloc_frames t ~frames =
  if frames <= 0 then invalid_arg "Buddy.alloc_frames: non-positive size";
  let order = Sim.Units.log2_ceil frames in
  if order > t.max_order then None else alloc t ~order

let free_frames_count t = t.free_frames

let largest_free_order t =
  let rec loop k = if k < 0 then None else if Hashtbl.length t.free.(k) > 0 then Some k else loop (k - 1) in
  loop t.max_order

let free_blocks_per_order t = Array.map Hashtbl.length t.free


