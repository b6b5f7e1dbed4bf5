type policy = Clock | Two_q

type entry = { pid : int; aspace : Address_space.t; va : int; pfn : Physmem.Frame.t }

type t = {
  mem : Physmem.Phys_mem.t;
  meta : Page_meta.t;
  buddy : Alloc.Buddy.t;
  swap : Swap.t;
  zero : Physmem.Zero_engine.t;
  policy : policy;
  active : entry Queue.t; (* Two_q only *)
  inactive : entry Queue.t; (* Clock uses just this one *)
  mutable examined : int;
}

let create ~mem ~meta ~buddy ~swap ~zero ~policy =
  {
    mem;
    meta;
    buddy;
    swap;
    zero;
    policy;
    active = Queue.create ();
    inactive = Queue.create ();
    examined = 0;
  }

let clock t = Physmem.Phys_mem.clock t.mem
let stats t = Physmem.Phys_mem.stats t.mem

let clear t =
  Queue.clear t.active;
  Queue.clear t.inactive

let register t ~pid ~aspace ~va ~pfn =
  Page_meta.set_flag t.meta pfn Page_meta.Lru true;
  Queue.add { pid; aspace; va; pfn } t.inactive

(* The entry is current iff the page table still maps this VA to this
   frame; otherwise the page went away (munmap, CoW replacement). *)
let current e =
  match Hw.Page_table.lookup (Address_space.page_table e.aspace) ~va:e.va with
  | Some (_, leaf) -> if leaf.Hw.Page_table.pfn = e.pfn then Some leaf else None
  | None -> None

let examine_cost = 50

(* One shootdown batch per distinct address space touched during a scan:
   evictions only gather ranges here, and the scan flushes each batch
   once at the end instead of paying one shootdown per evicted page. *)
let batch_for batches aspace =
  match List.find_opt (fun (a, _) -> a == aspace) !batches with
  | Some (_, b) -> b
  | None ->
    let b = Hw.Tlb_batch.create (Address_space.mmu aspace) in
    batches := (aspace, b) :: !batches;
    b

let flush_batches batches = List.iter (fun (_, b) -> Hw.Tlb_batch.flush b) !batches

let evict t e (leaf : Hw.Page_table.leaf) ~batch =
  let table = Address_space.page_table e.aspace in
  if leaf.Hw.Page_table.dirty then begin
    Swap.swap_out t.swap ~key:(e.pid, e.va) ~pfn:e.pfn;
    Sim.Stats.incr (stats t) "reclaim_swapped"
  end
  else Sim.Stats.incr (stats t) "reclaim_dropped";
  Hw.Page_table.unmap_page table ~va:e.va;
  Hw.Tlb_batch.add batch ~va:e.va ~len:Sim.Units.page_size;
  Page_meta.dec_mapcount t.meta e.pfn;
  Page_meta.put_page t.meta e.pfn;
  Page_meta.set_flag t.meta e.pfn Page_meta.Lru false;
  (* Freed frames go back through the zeroing pipeline. *)
  Physmem.Zero_engine.put_dirty t.zero [ e.pfn ];
  ignore (Physmem.Zero_engine.background_step t.zero ~budget_frames:2)

let scan_clock t ~target_frames =
  let reclaimed = ref 0 in
  let batches = ref [] in
  let budget = ref (4 * (Queue.length t.inactive + 1)) in
  while !reclaimed < target_frames && (not (Queue.is_empty t.inactive)) && !budget > 0 do
    decr budget;
    let e = Queue.pop t.inactive in
    t.examined <- t.examined + 1;
    Sim.Clock.charge (clock t) examine_cost;
    Sim.Stats.incr (stats t) "reclaim_examined";
    match current e with
    | None -> () (* stale: drop silently *)
    | Some leaf ->
      if Page_meta.get_flag t.meta e.pfn Page_meta.Unevictable then
        (* mlocked: parked off the LRU for good, as on Linux's
           unevictable list. *)
        Sim.Stats.incr (stats t) "reclaim_unevictable"
      else if leaf.Hw.Page_table.accessed then begin
        (* Second chance. *)
        leaf.Hw.Page_table.accessed <- false;
        Queue.add e t.inactive
      end
      else begin
        evict t e leaf ~batch:(batch_for batches e.aspace);
        incr reclaimed
      end
  done;
  flush_batches batches;
  !reclaimed

let scan_two_q t ~target_frames =
  let reclaimed = ref 0 in
  let batches = ref [] in
  let budget = ref (4 * (Queue.length t.inactive + Queue.length t.active + 1)) in
  while !reclaimed < target_frames
        && (not (Queue.is_empty t.inactive && Queue.is_empty t.active))
        && !budget > 0
  do
    decr budget;
    (* Keep the inactive list at least a third of the tracked pages. *)
    if
      Queue.length t.inactive * 2 < Queue.length t.active
      && not (Queue.is_empty t.active)
    then begin
      let e = Queue.pop t.active in
      t.examined <- t.examined + 1;
      Sim.Clock.charge (clock t) examine_cost;
      match current e with
      | None -> ()
      | Some leaf ->
        leaf.Hw.Page_table.accessed <- false;
        Queue.add e t.inactive
    end
    else if not (Queue.is_empty t.inactive) then begin
      let e = Queue.pop t.inactive in
      t.examined <- t.examined + 1;
      Sim.Clock.charge (clock t) examine_cost;
      Sim.Stats.incr (stats t) "reclaim_examined";
      match current e with
      | None -> ()
      | Some leaf ->
        if Page_meta.get_flag t.meta e.pfn Page_meta.Unevictable then
          Sim.Stats.incr (stats t) "reclaim_unevictable"
        else if leaf.Hw.Page_table.accessed then begin
          (* Promote to the active list. *)
          leaf.Hw.Page_table.accessed <- false;
          Page_meta.set_flag t.meta e.pfn Page_meta.Active true;
          Queue.add e t.active
        end
        else begin
          evict t e leaf ~batch:(batch_for batches e.aspace);
          incr reclaimed
        end
    end
  done;
  flush_batches batches;
  !reclaimed

let scan t ~target_frames =
  Sim.Profile.span (Sim.Trace.profile (Physmem.Phys_mem.trace t.mem)) "reclaim" @@ fun () ->
  match t.policy with
  | Clock -> scan_clock t ~target_frames
  | Two_q -> scan_two_q t ~target_frames

let tracked t = Queue.length t.inactive + Queue.length t.active
let pages_examined t = t.examined
