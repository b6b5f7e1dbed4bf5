type 'r backend = {
  name : string;
  map_arena : int -> 'r;
  map_large : int -> 'r;
  unmap : 'r -> unit;
  va : 'r -> int;
  len : 'r -> int;
}

let min_class = 16
let classes = 14 (* 16 B .. 128 KiB *)
let large_threshold = Sim.Units.kib 128
let arena_bytes = Sim.Units.mib 1

type 'r t = {
  b : 'r backend;
  free_lists : int list array;
  live : (int, int) Hashtbl.t; (* va -> size *)
  large : (int, 'r) Hashtbl.t; (* va -> region *)
  mutable arenas : 'r array; (* creation order *)
  mutable cursor : int; (* next free byte of the current arena *)
  mutable tail : int;
  mutable live_bytes : int;
  mutable footprint : int;
}

let create b =
  { b; free_lists = Array.make classes []; live = Hashtbl.create 256; large = Hashtbl.create 16;
    arenas = [||]; cursor = 0; tail = 0; live_bytes = 0; footprint = 0 }

let class_of bytes =
  let rec loop k size = if size >= bytes then k else loop (k + 1) (size * 2) in
  loop 0 min_class

let class_size k = min_class lsl k

let carve t n =
  if t.cursor + n > t.tail then begin
    let r = t.b.map_arena (Array.length t.arenas) in
    t.arenas <- Array.append t.arenas [| r |];
    t.footprint <- t.footprint + t.b.len r;
    t.cursor <- t.b.va r;
    t.tail <- t.b.va r + t.b.len r
  end;
  let va = t.cursor in
  t.cursor <- va + n;
  va

let track t va size =
  Hashtbl.replace t.live va size;
  t.live_bytes <- t.live_bytes + size

let untrack t va =
  match Hashtbl.find t.live va with
  | size ->
    Hashtbl.remove t.live va;
    t.live_bytes <- t.live_bytes - size;
    size
  | exception Not_found -> invalid_arg (t.b.name ^ ".free: unknown block")

let malloc t ~bytes =
  if bytes <= 0 then invalid_arg (t.b.name ^ ".malloc: non-positive size");
  if bytes >= large_threshold then begin
    let r = t.b.map_large bytes in
    let va = t.b.va r in
    Hashtbl.replace t.large va r;
    t.footprint <- t.footprint + t.b.len r;
    track t va (t.b.len r);
    va
  end
  else begin
    let k = class_of bytes in
    let va =
      match t.free_lists.(k) with
      | va :: rest ->
        t.free_lists.(k) <- rest;
        va
      | [] -> carve t (class_size k)
    in
    track t va (class_size k);
    va
  end

let free t va =
  let size = untrack t va in
  match Hashtbl.find_opt t.large va with
  | None ->
    let k = class_of size in
    t.free_lists.(k) <- va :: t.free_lists.(k)
  | Some r ->
    Hashtbl.remove t.large va;
    t.footprint <- t.footprint - t.b.len r;
    t.b.unmap r

let size_of t va = Hashtbl.find_opt t.live va
let live_bytes t = t.live_bytes
let footprint_bytes t = t.footprint
let arena_count t = Array.length t.arenas
let region_count t = Array.length t.arenas + Hashtbl.length t.large
let iter_live t f = Hashtbl.iter f t.live
let is_large t va = Hashtbl.mem t.large va
let free_lists t = t.free_lists

let arena t i =
  if i < 0 || i >= Array.length t.arenas then invalid_arg (t.b.name ^ ".arena: no such arena");
  t.arenas.(i)

let locate t va =
  let rec loop i =
    if i = Array.length t.arenas then None
    else
      let base = t.b.va t.arenas.(i) in
      if va >= base && va < base + t.b.len t.arenas.(i) then Some (i, va - base) else loop (i + 1)
  in
  loop 0

let address t ~arena:i ~off =
  let r = arena t i in
  if off < 0 || off >= t.b.len r then invalid_arg (t.b.name ^ ".address: offset out of arena");
  t.b.va r + off

let relocate t fresh =
  (* Same arena index and offset, new base. *)
  let translate va =
    match locate t va with
    | Some (i, off) -> t.b.va fresh.(i) + off
    | None -> invalid_arg (t.b.name ^ ".relocate: va outside every arena")
  in
  let live = Hashtbl.fold (fun va size acc -> (translate va, size) :: acc) t.live [] in
  Hashtbl.reset t.live;
  List.iter (fun (va, size) -> Hashtbl.replace t.live va size) live;
  Array.iteri (fun k l -> t.free_lists.(k) <- List.map translate l) t.free_lists;
  let n = Array.length fresh in
  if n > 0 then begin
    t.cursor <- t.b.va fresh.(n - 1) + (t.cursor - t.b.va t.arenas.(n - 1));
    t.tail <- t.b.va fresh.(n - 1) + t.b.len fresh.(n - 1)
  end;
  t.arenas <- fresh

let destroy t =
  Array.iter t.b.unmap t.arenas;
  Hashtbl.iter (fun _ r -> t.b.unmap r) t.large;
  t.arenas <- [||];
  Hashtbl.reset t.large;
  Hashtbl.reset t.live;
  Array.fill t.free_lists 0 classes [];
  t.live_bytes <- 0;
  t.footprint <- 0;
  t.cursor <- 0;
  t.tail <- 0
