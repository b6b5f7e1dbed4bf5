type policy = Clock | Two_q

type t = {
  mem : Physmem.Phys_mem.t;
  meta : Page_meta.t;
  swap : Swap.t;
  zero : Physmem.Zero_engine.t;
  policy : policy;
  mutable examined : int;
}

let create ~mem ~meta ~swap ~zero ~policy = { mem; meta; swap; zero; policy; examined = 0 }

let clock t = Physmem.Phys_mem.clock t.mem
let stats t = Physmem.Phys_mem.stats t.mem

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

(* A page is swapped out under its pid, its address space's ASID. *)
let evict t aspace ~va ({ Hw.Page_table.pfn; _ } as leaf) ~batch =
  if leaf.Hw.Page_table.dirty then begin
    Swap.swap_out t.swap ~key:(Hw.Mmu.asid (Address_space.mmu aspace), va) ~pfn;
    Sim.Stats.incr (stats t) "reclaim_swapped"
  end
  else Sim.Stats.incr (stats t) "reclaim_dropped";
  (* A frame another address space still maps stays with it; a freed one
     goes back through the zeroing pipeline. *)
  Page_meta.unmap t.meta ~zero:t.zero aspace ~va leaf ~owned:true;
  Hw.Tlb_batch.add batch ~va ~len:Sim.Units.page_size;
  Page_meta.set_flag t.meta pfn Page_meta.Lru false;
  ignore (Physmem.Zero_engine.background_step t.zero ~budget_frames:2)

let tracked t = Page_meta.(lru_length t.meta ~active:false + lru_length t.meta ~active:true)

(* One scan for both policies. An accessed inactive page gets a second
   chance: CLOCK puts it back on the inactive list, 2Q promotes it to the
   active list. 2Q also keeps the inactive list at least a third of the
   tracked pages by demoting active ones first; under CLOCK the active
   list stays empty, so no demotion ever runs. *)
let scan t ~target_frames =
  Sim.Trace.span (Physmem.Phys_mem.trace t.mem) ~op:"reclaim" ~arg:Fun.id @@ fun () ->
  let meta = t.meta in
  let reclaimed = ref 0 in
  let batches = ref [] in
  let budget = ref (4 * (tracked t + 1)) in
  while !reclaimed < target_frames && tracked t > 0 && !budget > 0 do
    decr budget;
    let demote = Page_meta.(lru_length meta ~active:false * 2 < lru_length meta ~active:true) in
    let n = Page_meta.lru_first meta ~active:demote in
    let aspace = Page_meta.node_aspace meta n and va = Page_meta.node_va meta n in
    let table = Address_space.page_table aspace in
    let leaf = Hw.Page_table.find table ~va in
    let pfn = leaf.Hw.Page_table.pfn in
    t.examined <- t.examined + 1;
    Sim.Clock.charge (clock t) Sim.Cost_model.reclaim_examine;
    if not demote then Sim.Stats.incr (stats t) "reclaim_examined";
    if (not demote) && Page_meta.get_flag meta pfn Page_meta.Unevictable then begin
      (* mlocked: parked off the LRU for good, as on Linux's
         unevictable list. *)
      Page_meta.unlink meta aspace ~va ~pfn;
      Sim.Stats.incr (stats t) "reclaim_unevictable"
    end
    else if demote || leaf.Hw.Page_table.accessed then begin
      leaf.Hw.Page_table.accessed <- false;
      let promote = (not demote) && t.policy = Two_q in
      if promote then Page_meta.set_flag meta pfn Page_meta.Active true;
      Page_meta.requeue meta n ~active:promote
    end
    else begin
      evict t aspace ~va leaf ~batch:(batch_for batches aspace);
      incr reclaimed
    end
  done;
  flush_batches batches;
  !reclaimed

let pages_examined t = t.examined
