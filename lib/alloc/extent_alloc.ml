module IntMap = Map.Make (Int)

type policy = First_fit | Best_fit

type t = {
  mem : Physmem.Phys_mem.t;
  first : Physmem.Frame.t;
  count : int;
  policy : policy;
  mutable by_addr : int IntMap.t; (* start frame -> length *)
  mutable free : int;
}

let charge t = Sim.Clock.charge (Physmem.Phys_mem.clock t.mem) Sim.Cost_model.fs_extent_op

let create ~mem ~first ~count ~policy =
  if count <= 0 then invalid_arg "Extent_alloc.create: empty range";
  { mem; first; count; policy; by_addr = IntMap.singleton first count; free = count }

let pick_extent t frames =
  match t.policy with
  | First_fit ->
    IntMap.to_seq t.by_addr
    |> Seq.find (fun (_, len) -> len >= frames)
  | Best_fit ->
    IntMap.fold
      (fun start len acc ->
        if len < frames then acc
        else
          match acc with
          | Some (_, best_len) when best_len <= len -> acc
          | _ -> Some (start, len))
      t.by_addr None

let alloc t ~frames =
  if frames <= 0 then invalid_arg "Extent_alloc.alloc: non-positive size";
  charge t;
  match pick_extent t frames with
  | None -> None
  | Some (start, len) ->
    t.by_addr <- IntMap.remove start t.by_addr;
    if len > frames then t.by_addr <- IntMap.add (start + frames) (len - frames) t.by_addr;
    t.free <- t.free - frames;
    Some start

let alloc_largest t =
  charge t;
  let best =
    IntMap.fold
      (fun start len acc ->
        match acc with Some (_, bl) when bl >= len -> acc | _ -> Some (start, len))
      t.by_addr None
  in
  match best with
  | None -> None
  | Some (start, len) ->
    t.by_addr <- IntMap.remove start t.by_addr;
    t.free <- t.free - len;
    Some (start, len)

let free t ~first ~frames =
  if frames <= 0 then invalid_arg "Extent_alloc.free: non-positive size";
  if first < t.first || first + frames > t.first + t.count then
    invalid_arg "Extent_alloc.free: out of range";
  charge t;
  (* Check overlap with the free extent at or below, and the one above. *)
  let below = IntMap.find_last_opt (fun s -> s <= first) t.by_addr in
  (match below with
  | Some (s, l) when s + l > first -> invalid_arg "Extent_alloc.free: overlaps free space"
  | _ -> ());
  let above = IntMap.find_first_opt (fun s -> s > first) t.by_addr in
  (match above with
  | Some (s, _) when first + frames > s -> invalid_arg "Extent_alloc.free: overlaps free space"
  | _ -> ());
  (* Coalesce with neighbours. *)
  let start, len =
    match below with
    | Some (s, l) when s + l = first ->
      t.by_addr <- IntMap.remove s t.by_addr;
      (s, l + frames)
    | _ -> (first, frames)
  in
  let len =
    match above with
    | Some (s, l) when start + len = s ->
      t.by_addr <- IntMap.remove s t.by_addr;
      len + l
    | _ -> len
  in
  t.by_addr <- IntMap.add start len t.by_addr;
  t.free <- t.free + frames

let free_frames t = t.free

let largest_free t = IntMap.fold (fun _ len acc -> max len acc) t.by_addr 0

let extent_count t = IntMap.cardinal t.by_addr

let fragmentation t =
  if t.free = 0 then 0.0 else 1.0 -. (float_of_int (largest_free t) /. float_of_int t.free)
