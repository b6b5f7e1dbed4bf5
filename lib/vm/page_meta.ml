type flag = Uptodate | Lru | Active | Head | Swapbacked | Unevictable | Mlocked | Pinned

let bit_of = function
  | Uptodate -> 0
  | Lru -> 1
  | Active -> 2
  | Head -> 3
  | Swapbacked -> 4
  | Unevictable -> 5
  | Mlocked -> 6
  | Pinned -> 7

(* The fields are pfn-indexed: frames are grouped into chunks of
   [chunk_frames], each holding one int array per field, allocated on the
   chunk's first update. A frame of a chunk never updated reads zero.
   [heads] starts each frame's chain of reclaim-list nodes (-1: none). *)
let chunk_bits = 9
let chunk_frames = 1 lsl chunk_bits

type chunk = { flags : int array; refcount : int array; mapcount : int array; heads : int array }

let no_chunk = { flags = [||]; refcount = [||]; mapcount = [||]; heads = [||] }

(* The reclaim lists: a node per registered mapping, in blocks of 64
   reused through a free list. A node is four ints (its page VA with its
   list in the low bit, its neighbours on that list, the next node of its
   frame's chain) and its address space. Per list (inactive, active): its
   oldest and newest node (-1: none) and its length. *)
type block = { ints : int array; owners : Address_space.t array }

type lists = {
  mutable blocks : block array;
  mutable made : int; (* node slots made; free ones are linked through [next] *)
  mutable free : int;
  first : int array;
  last : int array;
  length : int array;
}

let no_lists () =
  { blocks = [||]; made = 0; free = -1; first = [| -1; -1 |]; last = [| -1; -1 |]; length = [| 0; 0 |] }

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  frames : int;
  chunks : chunk array; (* by [pfn lsr chunk_bits] *)
  mutable lists : lists;
}

let bytes_per_page = 64

let create ~clock ~stats ~frames =
  let chunks = Array.make ((frames + chunk_frames - 1) lsr chunk_bits) no_chunk in
  { clock; stats; frames; chunks; lists = no_lists () }

let check t pfn = if pfn < 0 || pfn >= t.frames then invalid_arg "Page_meta: frame out of range"

(* For reads: [no_chunk] when never updated, whose fields read zero. *)
let chunk t pfn =
  check t pfn;
  t.chunks.(pfn lsr chunk_bits)

let slot pfn = pfn land (chunk_frames - 1)

let read field t pfn =
  let c = chunk t pfn in
  if c == no_chunk then 0 else (field c).(slot pfn)

(* For updates: the frame's chunk, allocated on first use. *)
let writable t pfn =
  let c = chunk t pfn in
  if c != no_chunk then c
  else begin
    let c =
      {
        flags = Array.make chunk_frames 0;
        refcount = Array.make chunk_frames 0;
        mapcount = Array.make chunk_frames 0;
        heads = Array.make chunk_frames (-1);
      }
    in
    t.chunks.(pfn lsr chunk_bits) <- c;
    c
  end

let charge_meta t =
  Sim.Clock.charge t.clock Sim.Cost_model.struct_page_update;
  Sim.Stats.incr t.stats "struct_page_update"

let get_flag t pfn f = read (fun c -> c.flags) t pfn land (1 lsl bit_of f) <> 0

let set_flag t pfn f v =
  charge_meta t;
  let c = writable t pfn and i = slot pfn in
  let mask = 1 lsl bit_of f in
  c.flags.(i) <- (if v then c.flags.(i) lor mask else c.flags.(i) land lnot mask)

let refcount t pfn = read (fun c -> c.refcount) t pfn

let get_page t pfn =
  charge_meta t;
  let c = writable t pfn and i = slot pfn in
  c.refcount.(i) <- c.refcount.(i) + 1

let put_page t pfn =
  charge_meta t;
  let c = writable t pfn and i = slot pfn in
  if c.refcount.(i) <= 0 then invalid_arg "Page_meta.put_page: refcount underflow";
  c.refcount.(i) <- c.refcount.(i) - 1

let mapcount t pfn = read (fun c -> c.mapcount) t pfn

(* Mapcount 0 -> 1 / 1 -> 0 transitions are the machine-wide choke point
   for residency: a frame is resident iff some address space maps it. *)
let inc_mapcount t pfn =
  charge_meta t;
  let c = writable t pfn and i = slot pfn in
  c.mapcount.(i) <- c.mapcount.(i) + 1;
  if c.mapcount.(i) = 1 then Sim.Stats.add_gauge t.stats "resident_pages" 1

let dec_mapcount t pfn =
  charge_meta t;
  let c = writable t pfn and i = slot pfn in
  if c.mapcount.(i) <= 0 then invalid_arg "Page_meta.dec_mapcount: underflow";
  c.mapcount.(i) <- c.mapcount.(i) - 1;
  if c.mapcount.(i) = 0 then Sim.Stats.add_gauge t.stats "resident_pages" (-1)

(* An mlock pin: one reference plus these flags, taken once per frame. *)
let pin_flags = [ Pinned; Mlocked; Unevictable ]

let mlock t pfn =
  if not (get_flag t pfn Mlocked) then begin
    get_page t pfn;
    List.iter (fun f -> set_flag t pfn f true) pin_flags
  end

let key, prev, next, chain = (0, 1, 2, 3) (* a node's four ints *)

let get l n f = l.blocks.(n lsr 6).ints.(((n land 63) lsl 2) + f)
let set l n f v = l.blocks.(n lsr 6).ints.(((n land 63) lsl 2) + f) <- v
let node_aspace t n = t.lists.blocks.(n lsr 6).owners.(n land 63)
let node_va t n = get t.lists n key land lnot 1

(* Put node [n] at the tail of list [w], or take it off its list. *)
let append l n w =
  set l n key (get l n key land lnot 1 lor w);
  set l n prev l.last.(w);
  set l n next (-1);
  if l.last.(w) < 0 then l.first.(w) <- n else set l l.last.(w) next n;
  l.last.(w) <- n;
  l.length.(w) <- l.length.(w) + 1

let detach l n =
  let w = get l n key land 1 and p = get l n prev and x = get l n next in
  if p < 0 then l.first.(w) <- x else set l p next x;
  if x < 0 then l.last.(w) <- p else set l x prev p;
  l.length.(w) <- l.length.(w) - 1

let link t aspace ~va ~pfn =
  set_flag t pfn Lru true;
  let l = t.lists and c = t.chunks.(pfn lsr chunk_bits) and i = slot pfn in
  let n = if l.free >= 0 then l.free else l.made in
  if n = l.free then l.free <- get l n next
  else begin
    let dir = Array.length l.blocks and empty = { ints = [||]; owners = [||] } in
    if n lsr 6 = dir then l.blocks <- Array.append l.blocks (Array.make (max 4 dir) empty);
    if n land 63 = 0 then
      l.blocks.(n lsr 6) <- { ints = Array.make 256 0; owners = Array.make 64 aspace };
    l.made <- n + 1
  end;
  l.blocks.(n lsr 6).owners.(n land 63) <- aspace;
  set l n key va;
  append l n 0;
  set l n chain c.heads.(i);
  c.heads.(i) <- n

(* Free [aspace]'s node at [va] on [pfn]'s chain, found from its head. *)
let unlink t aspace ~va ~pfn =
  let c = chunk t pfn and l = t.lists and i = slot pfn in
  let p = ref (-1) and n = ref (if c == no_chunk then -1 else c.heads.(i)) in
  while !n >= 0 && not (node_va t !n = va && node_aspace t !n == aspace) do
    p := !n;
    n := get l !n chain
  done;
  if !n >= 0 then begin
    if !p < 0 then c.heads.(i) <- get l !n chain else set l !p chain (get l !n chain);
    detach l !n;
    set l !n next l.free;
    l.free <- !n
  end

let lru_length t ~active = t.lists.length.(Bool.to_int active)
let lru_first t ~active = t.lists.first.(Bool.to_int active)
let requeue t n ~active = detach t.lists n; append t.lists n (Bool.to_int active)

(* The one frame hand-off of the baseline VM: every user page gets its
   frame through [map] and gives it back through [unmap]. An anonymous
   base page joins the reclaim lists here, so no mapping path can skip it. *)
let map t aspace ~va ~pfn ~prot ~size ~dirty ~anon =
  let table = Address_space.page_table aspace in
  Hw.Page_table.map_page table ~va ~pfn ~prot ~size;
  if dirty then (Hw.Page_table.find table ~va).Hw.Page_table.dirty <- true;
  get_page t pfn;
  inc_mapcount t pfn;
  if anon && size = Hw.Page_size.Small then link t aspace ~va ~pfn

(* Counts first, then the leaf. The last mapping of a frame its caller
   owns drops the mlock pin and hands every frame of the leaf to the zero
   engine, the only code that scrubs a freed frame, with its flags
   cleared (host-side, uncharged, like [unlink]). *)
let unmap t ~zero aspace ~va (leaf : Hw.Page_table.leaf) ~owned =
  let pfn = leaf.Hw.Page_table.pfn in
  dec_mapcount t pfn;
  put_page t pfn;
  if owned && mapcount t pfn = 0 then begin
    if get_flag t pfn Mlocked then begin
      put_page t pfn;
      List.iter (fun f -> set_flag t pfn f false) pin_flags
    end;
    let count = Hw.Page_size.frames leaf.Hw.Page_table.size in
    for f = pfn to pfn + count - 1 do
      let c = chunk t f in
      if c != no_chunk then c.flags.(slot f) <- 0
    done;
    Physmem.Zero_engine.put_dirty zero ~first:pfn ~count
  end;
  unlink t aspace ~va ~pfn;
  Hw.Page_table.unmap_page (Address_space.page_table aspace) ~va

let init_range t ~first ~count =
  if first < 0 || count < 0 || first + count > t.frames then
    invalid_arg "Page_meta.init_range: out of range";
  Sim.Clock.charge t.clock (count * Sim.Cost_model.struct_page_init);
  Sim.Stats.add t.stats "struct_page_init" count

let metadata_bytes t = t.frames * bytes_per_page

let reset_after_crash t =
  (* struct pages live in DRAM: a crash reinitializes them all. The
     residency gauge must follow, or post-crash observability reports
     mappings of processes that no longer exist. *)
  Array.fill t.chunks 0 (Array.length t.chunks) no_chunk;
  t.lists <- no_lists ();
  Sim.Stats.set_gauge t.stats "resident_pages" 0

let iter_counts t f =
  Array.iteri
    (fun ci c ->
      let first = ci lsl chunk_bits in
      for i = 0 to min (Array.length c.mapcount) (t.frames - first) - 1 do
        f (first + i) ~refcount:c.refcount.(i) ~mapcount:c.mapcount.(i)
      done)
    t.chunks

let iter_lru t f =
  let rec walk pfn n =
    if n >= 0 then begin
      f pfn (node_aspace t n) ~va:(node_va t n);
      walk pfn (get t.lists n chain)
    end
  in
  Array.iteri (fun ci c -> Array.iteri (fun i n -> walk ((ci lsl chunk_bits) + i) n) c.heads) t.chunks
