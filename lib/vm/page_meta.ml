type flag =
  | Locked
  | Referenced
  | Uptodate
  | Dirty
  | Lru
  | Active
  | Slab_page
  | Reserved
  | Private
  | Writeback
  | Head
  | Swapcache
  | Swapbacked
  | Mappedtodisk
  | Reclaim
  | Unevictable
  | Mlocked
  | Pinned

let bit_of = function
  | Locked -> 0
  | Referenced -> 1
  | Uptodate -> 2
  | Dirty -> 3
  | Lru -> 4
  | Active -> 5
  | Slab_page -> 6
  | Reserved -> 7
  | Private -> 8
  | Writeback -> 9
  | Head -> 10
  | Swapcache -> 11
  | Swapbacked -> 12
  | Mappedtodisk -> 13
  | Reclaim -> 14
  | Unevictable -> 15
  | Mlocked -> 16
  | Pinned -> 17

(* The fields are pfn-indexed: frames are grouped into chunks of
   [chunk_frames], each holding one int array per field, allocated on the
   chunk's first update. A frame of a chunk never updated reads zero. *)
let chunk_bits = 9
let chunk_frames = 1 lsl chunk_bits

type chunk = { flags : int array; refcount : int array; mapcount : int array }

let no_chunk = { flags = [||]; refcount = [||]; mapcount = [||] }

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  frames : int;
  chunks : chunk array; (* by [pfn lsr chunk_bits] *)
}

let bytes_per_page = 64

let create ~clock ~stats ~frames =
  { clock; stats; frames; chunks = Array.make ((frames + chunk_frames - 1) lsr chunk_bits) no_chunk }

let frames t = t.frames

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
      }
    in
    t.chunks.(pfn lsr chunk_bits) <- c;
    c
  end

let charge_meta t =
  Sim.Clock.charge t.clock 8;
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

(* The one frame hand-off of the baseline VM: every user page gets its
   frame through [map] and gives it back through [unmap]. *)
let map t table ~va ~pfn ~prot ~size ~dirty =
  Hw.Page_table.map_page table ~va ~pfn ~prot ~size;
  if dirty then (Hw.Page_table.find table ~va).Hw.Page_table.dirty <- true;
  get_page t pfn;
  inc_mapcount t pfn

(* Counts first, then the leaf. The last mapping of a frame its caller
   owns drops the mlock pin and hands every frame of the leaf to the zero
   engine, the only code that scrubs a freed frame. *)
let unmap t ~zero table ~va (leaf : Hw.Page_table.leaf) ~owned =
  let pfn = leaf.Hw.Page_table.pfn in
  dec_mapcount t pfn;
  put_page t pfn;
  if owned && mapcount t pfn = 0 then begin
    if get_flag t pfn Mlocked then begin
      put_page t pfn;
      List.iter (fun f -> set_flag t pfn f false) pin_flags
    end;
    Physmem.Zero_engine.put_dirty zero ~first:pfn ~count:(Hw.Page_size.frames leaf.Hw.Page_table.size)
  end;
  Hw.Page_table.unmap_page table ~va

let init_range t ~first ~count =
  if first < 0 || count < 0 || first + count > t.frames then
    invalid_arg "Page_meta.init_range: out of range";
  let model = Sim.Clock.model t.clock in
  Sim.Clock.charge t.clock (count * model.Sim.Cost_model.struct_page_init);
  Sim.Stats.add t.stats "struct_page_init" count

let metadata_bytes t = t.frames * bytes_per_page

let reset_after_crash t =
  (* struct pages live in DRAM: a crash reinitializes them all. The
     residency gauge must follow, or post-crash observability reports
     mappings of processes that no longer exist. *)
  Array.fill t.chunks 0 (Array.length t.chunks) no_chunk;
  Sim.Stats.set_gauge t.stats "resident_pages" 0

let iter_counts t f =
  Array.iteri
    (fun ci c ->
      let first = ci lsl chunk_bits in
      for i = 0 to min (Array.length c.mapcount) (t.frames - first) - 1 do
        f (first + i) ~refcount:c.refcount.(i) ~mapcount:c.mapcount.(i)
      done)
    t.chunks

let resident_pages t =
  Array.fold_left
    (fun acc c -> Array.fold_left (fun acc m -> if m > 0 then acc + 1 else acc) acc c.mapcount)
    0 t.chunks
