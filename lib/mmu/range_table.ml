type entry = { base : int; limit : int; offset : int; prot : Prot.t }

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  entries : entry Btree.t;
}

let create ~clock ~stats ?(trace = Sim.Trace.disabled) () =
  { clock; stats; trace; entries = Btree.create () }

let charge_op t ~op =
  Sim.Trace.span t.trace ~op @@ fun () ->
  Sim.Clock.charge t.clock Sim.Cost_model.range_table_op;
  Sim.Stats.incr t.stats "range_table_op"

let overlaps t ~base ~limit =
  (match Btree.find_last_leq t.entries ~key:base with
  | Some (_, e) -> e.base + e.limit > base
  | None -> false)
  ||
  match Btree.find_first_gt t.entries ~key:base with
  | Some (_, e) -> base + limit > e.base
  | None -> false

let insert t ~base ~limit ~offset ~prot =
  if limit <= 0 then invalid_arg "Range_table.insert: empty range";
  if not (Sim.Units.is_aligned base ~align:Sim.Units.page_size)
     || not (Sim.Units.is_aligned limit ~align:Sim.Units.page_size)
  then invalid_arg "Range_table.insert: unaligned range";
  if overlaps t ~base ~limit then invalid_arg "Range_table.insert: overlapping range";
  charge_op t ~op:"range_table_insert";
  Btree.insert t.entries ~key:base { base; limit; offset; prot }

let remove t ~base =
  match Btree.remove t.entries ~key:base with
  | None -> raise Not_found
  | Some e ->
    charge_op t ~op:"range_table_remove";
    e

let lookup t ~va =
  match Btree.find_last_leq t.entries ~key:va with
  | Some (_, e) when va < e.base + e.limit -> Some e
  | _ -> None

let walk t ~va =
  (* A hardware refill reads one B-tree node per level. *)
  let refs = Btree.height t.entries in
  Sim.Trace.span t.trace ~op:"range_table_walk" ~arg:(fun _ -> refs)
    ~outcome:(function Some _ -> "hit" | None -> "miss")
  @@ fun () ->
  Sim.Clock.charge t.clock (refs * Sim.Cost_model.mem_ref_dram);
  Sim.Stats.add t.stats "range_walk_refs" refs;
  Sim.Stats.incr t.stats "range_walks";
  lookup t ~va

let entry_count t = Btree.cardinal t.entries
let metadata_bytes t = 32 * Btree.cardinal t.entries

let bases_in t ~va ~len =
  let rec loop key acc =
    match Btree.find_first_gt t.entries ~key with
    | Some (base, _) when base < va + len -> loop base (base :: acc)
    | Some _ | None -> acc
  in
  loop (va - 1) []
