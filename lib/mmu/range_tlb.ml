(* Entries are kept in two interval-ordered maps keyed by (asid, base):
   [by_key] for O(log n) point lookup and overlap eviction, [by_tick] for
   O(log n) LRU victim selection. Cached ranges are pairwise disjoint per
   ASID (insert evicts overlaps), so a point query is one predecessor
   probe. Like the page {!Tlb}, one physical range TLB per core is shared
   by every address space scheduled there, hence the ASID tag. *)

module KeyMap = Map.Make (struct
  type t = int * int (* asid, base *)

  let compare = compare
end)

module IntMap = Map.Make (Int)

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  capacity : int;
  mutable by_key : (Range_table.entry * int) KeyMap.t; (* (asid, base) -> entry, tick *)
  mutable by_tick : (int * int) IntMap.t; (* tick -> (asid, base); min tick = LRU *)
  mutable tick : int;
}

let create ~clock ~stats ?(trace = Sim.Trace.disabled) ?(entries = 32) () =
  if entries <= 0 then invalid_arg "Range_tlb.create: no capacity";
  {
    clock;
    stats;
    trace;
    capacity = entries;
    by_key = KeyMap.empty;
    by_tick = IntMap.empty;
    tick = 0;
  }

let capacity t = t.capacity

let model t = Sim.Clock.model t.clock

let touch t =
  t.tick <- t.tick + 1;
  t.tick

(* Occupancy gauge, maintained as deltas like [Tlb]'s: the machine-wide
   Stats aggregates every range TLB sharing it. *)
let gauge_delta t d = if d <> 0 then Sim.Stats.add_gauge t.stats "range_tlb_entries" d

let drop t ~key ~tick =
  t.by_key <- KeyMap.remove key t.by_key;
  t.by_tick <- IntMap.remove tick t.by_tick;
  gauge_delta t (-1)

let lookup t ?(asid = 0) ~va () =
  Sim.Trace.span t.trace ~op:"range_tlb_lookup" ~outcome:(function Some _ -> "hit" | None -> "miss")
    (fun () ->
      Sim.Clock.charge t.clock (model t).Sim.Cost_model.tlb_hit;
      let hit =
        match KeyMap.find_last_opt (fun (a, base) -> a < asid || (a = asid && base <= va)) t.by_key with
        | Some (((a, _) as key), ((e : Range_table.entry), tick))
          when a = asid && va < e.base + e.limit ->
          let now = touch t in
          t.by_tick <- IntMap.add now key (IntMap.remove tick t.by_tick);
          t.by_key <- KeyMap.add key (e, now) t.by_key;
          Some e
        | _ -> None
      in
      (match hit with
      | Some _ -> Sim.Stats.incr t.stats "range_tlb_hit"
      | None -> Sim.Stats.incr t.stats "range_tlb_miss");
      hit)

let insert t ?(asid = 0) (e : Range_table.entry) =
  (* Evict anything of the same ASID overlapping the new range, not just
     an equal base — a stale overlapping entry would otherwise keep
     winning lookups. Cached ranges are disjoint per ASID, so overlaps are
     the base-order predecessor plus a run of successors starting inside
     [e]. *)
  (match KeyMap.find_last_opt (fun (a, base) -> a < asid || (a = asid && base < e.base)) t.by_key with
  | Some (((a, _) as key), ((prev : Range_table.entry), tick))
    when a = asid && prev.base + prev.limit > e.base ->
    drop t ~key ~tick
  | _ -> ());
  let rec evict_from lo =
    match KeyMap.find_first_opt (fun (a, base) -> a > asid || (a = asid && base >= lo)) t.by_key with
    | Some (((a, base) as key), (_, tick)) when a = asid && base < e.base + e.limit ->
      drop t ~key ~tick;
      evict_from (base + 1)
    | _ -> ()
  in
  evict_from e.base;
  while KeyMap.cardinal t.by_key >= t.capacity do
    let tick, key = IntMap.min_binding t.by_tick in
    drop t ~key ~tick
  done;
  let now = touch t in
  t.by_key <- KeyMap.add (asid, e.base) (e, now) t.by_key;
  t.by_tick <- IntMap.add now (asid, e.base) t.by_tick;
  gauge_delta t 1

let invalidate t ?(asid = 0) ~base () =
  Sim.Trace.span t.trace ~op:"range_tlb_shootdown" ~arg:(fun () -> 1) @@ fun () ->
  Sim.Clock.charge t.clock (Sim.Cost_model.shootdown_cost (model t));
  Sim.Stats.incr t.stats "range_tlb_shootdown";
  match KeyMap.find_opt (asid, base) t.by_key with
  | Some (_, tick) -> drop t ~key:(asid, base) ~tick
  | None -> ()

let clear t =
  gauge_delta t (-KeyMap.cardinal t.by_key);
  t.by_key <- KeyMap.empty;
  t.by_tick <- IntMap.empty

let flush t =
  Sim.Clock.charge t.clock (Sim.Cost_model.shootdown_cost (model t));
  clear t

let entry_count t = KeyMap.cardinal t.by_key
