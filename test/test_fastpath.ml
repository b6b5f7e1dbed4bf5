(* The fast paths: mmu_gather-style batched shootdowns, the fault path's
   pool of pre-zeroed frames, and the O(1) data-structure rewrites (TLB
   slot arrays, interval-map range TLB). *)

open Helpers
module K = Os.Kernel

let page = Sim.Units.page_size

(* ------------------------- batched shootdowns ---------------------- *)

(* n pages spread over k VMAs tear down with exactly one batch: below the
   full-flush threshold that is one INVLPG per page, and never one
   shootdown pass per VMA. *)
let test_batch_invlpg_accounting () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let vmas = 4 and pages_per_vma = 4 in
  for i = 0 to vmas - 1 do
    (* Alternate protections so adjacent VMAs never merge. *)
    let prot = if i land 1 = 0 then Hw.Prot.rw else Hw.Prot.r in
    ignore (K.mmap_anon k p ~len:(pages_per_vma * page) ~prot ~populate:true)
  done;
  let stats = K.stats k in
  let batches0 = Sim.Stats.get stats "tlb_batch" in
  let shoot0 = Sim.Stats.get stats "tlb_shootdown" in
  let flush0 = Sim.Stats.get stats "tlb_flush" in
  K.exit_process k p;
  check_int "one batch for the whole exit" 1 (Sim.Stats.get stats "tlb_batch" - batches0);
  check_int "batch pages = total pages" (vmas * pages_per_vma)
    (Sim.Stats.get stats "tlb_batch_pages");
  check_int "16 pages < threshold: per-page INVLPGs" (vmas * pages_per_vma)
    (Sim.Stats.get stats "tlb_shootdown" - shoot0);
  check_int "no full flush below threshold" 0 (Sim.Stats.get stats "tlb_flush" - flush0)

let test_batch_full_flush_above_threshold () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  for i = 0 to 3 do
    let prot = if i land 1 = 0 then Hw.Prot.rw else Hw.Prot.r in
    ignore (K.mmap_anon k p ~len:(16 * page) ~prot ~populate:true)
  done;
  let stats = K.stats k in
  let shoot0 = Sim.Stats.get stats "tlb_shootdown" in
  let flush0 = Sim.Stats.get stats "tlb_flush" in
  K.exit_process k p;
  (* 64 pages >= 33: the batch degenerates to one full flush. *)
  check_int "one full flush" 1 (Sim.Stats.get stats "tlb_flush" - flush0);
  check_int "no per-page shootdowns" 0 (Sim.Stats.get stats "tlb_shootdown" - shoot0);
  check_int "one batch" 1 (Sim.Stats.get stats "tlb_batch")

let test_batch_empty_is_free () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let mmu = Os.Address_space.mmu p.Os.Proc.aspace in
  let before = Sim.Clock.now (K.clock k) in
  let b = Hw.Tlb_batch.create mmu in
  Hw.Tlb_batch.flush b;
  check_int "empty flush charges nothing" 0 (Sim.Clock.elapsed (K.clock k) ~since:before);
  check_int "no batch counted" 0 (Sim.Stats.get (K.stats k) "tlb_batch")

(* FOM process exit gathers every region's shootdown into one batch. *)
let test_fom_exit_single_batch () =
  let kernel, fom = mk_fom () in
  let p = K.create_process kernel () in
  for _ = 1 to 3 do
    ignore (O1mem.Fom.alloc fom p ~len:(Sim.Units.mib 2) ~prot:Hw.Prot.rw ())
  done;
  let stats = K.stats kernel in
  let batches0 = Sim.Stats.get stats "tlb_batch" in
  O1mem.Fom.exit_process fom p;
  check_int "one batch for 3 regions" 1 (Sim.Stats.get stats "tlb_batch" - batches0)

(* -------------------------- zeroed-frame pool ---------------------- *)

(* [Zero_engine.take] is the pool's one charged handout: a dry pool is a
   counted miss, a hit charges the O(1) pop, and the depth gauge follows
   the pool down to empty. *)
let test_zero_cache_hit_miss () =
  let mem = mk_mem () in
  let engine = Physmem.Zero_engine.create mem in
  let stats = Physmem.Phys_mem.stats mem in
  check_bool "empty cache misses" true (Physmem.Zero_engine.take engine = None);
  check_int "miss counted" 1 (Sim.Stats.get stats "zero_cache_miss");
  Physmem.Zero_engine.put_dirty engine ~first:5 ~count:2;
  check_int "refill launders both" 2
    (Physmem.Zero_engine.background_step engine ~budget_frames:8);
  check_int "depth" 2 (Sim.Stats.gauge stats "zero_cache_depth");
  let clock = Physmem.Phys_mem.clock mem in
  let before = Sim.Clock.now clock in
  check_bool "hit" true (Physmem.Zero_engine.take engine <> None);
  check_int "hit charges the O(1) pop" Sim.Cost_model.zero_cache_pop
    (Sim.Clock.elapsed clock ~since:before);
  check_int "hit counted" 1 (Sim.Stats.get stats "zero_cache_hit");
  check_bool "second hit" true (Physmem.Zero_engine.take engine <> None);
  (* Exhausted again: back to misses, no crash. *)
  check_bool "exhausted" true (Physmem.Zero_engine.take engine = None);
  check_int "misses" 2 (Sim.Stats.get stats "zero_cache_miss");
  check_int "drained" 0 (Physmem.Zero_engine.available engine);
  check_int "depth gauge drained" 0 (Sim.Stats.gauge stats "zero_cache_depth")

(* Fault path: populate works with an empty pool (eager fallback), and
   hits the zero engine's pool once background zeroing has run. *)
let test_fault_path_uses_cache () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let stats = K.stats k in
  let len = 8 * page in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  check_int "cold populate: all misses" 8 (Sim.Stats.get stats "zero_cache_miss");
  check_int "no hits yet" 0 (Sim.Stats.get stats "zero_cache_hit");
  K.munmap k p ~va ~len;
  (* The 8 freed frames are dirty; launder them into the pool. *)
  check_int "background zero" 8 (K.background_zero k ~budget_frames:32);
  ignore (K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true);
  check_int "warm populate: all hits" 8 (Sim.Stats.get stats "zero_cache_hit")

(* --------------------------- TLB evictions ------------------------- *)

let test_tlb_evictions_counter () =
  let clock, stats = mk_env () in
  let tlb = Hw.Tlb.create ~clock ~stats ~sets:1 ~ways:2 () in
  let ins va = Hw.Tlb.insert tlb ~asid:0 ~va ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small in
  ins 0;
  ins page;
  check_int "fills are not evictions" 0 (Sim.Stats.get stats "tlb_evictions");
  ins (2 * page);
  check_int "capacity eviction counted" 1 (Sim.Stats.get stats "tlb_evictions");
  ins (2 * page);
  check_int "refill of resident page is free" 1 (Sim.Stats.get stats "tlb_evictions");
  check_int "entry count stable" 2 (Hw.Tlb.entry_count tlb)

(* ------------------- range TLB vs the linear model ----------------- *)

(* Reference: the pre-rewrite list implementation (MRU-first, overlap
   eviction on insert, LRU tail drop at capacity). The interval-map
   version must be observationally identical. *)
module Linear_model = struct
  type t = { capacity : int; mutable entries : Hw.Range_table.entry list }

  let create capacity = { capacity; entries = [] }

  let lookup t ~va =
    let hit =
      List.find_opt
        (fun (e : Hw.Range_table.entry) -> va >= e.base && va < e.base + e.limit)
        t.entries
    in
    (match hit with
    | Some e -> t.entries <- e :: List.filter (fun x -> x != e) t.entries
    | None -> ());
    hit

  let overlaps (a : Hw.Range_table.entry) (b : Hw.Range_table.entry) =
    a.base < b.base + b.limit && b.base < a.base + a.limit

  let insert t e =
    let without = List.filter (fun x -> not (overlaps x e)) t.entries in
    let trimmed =
      if List.length without >= t.capacity then
        List.filteri (fun i _ -> i < t.capacity - 1) without
      else without
    in
    t.entries <- e :: trimmed

  let invalidate t ~base =
    t.entries <- List.filter (fun (e : Hw.Range_table.entry) -> e.base <> base) t.entries

  let entry_count t = List.length t.entries
end

type rtlb_op = Insert of int * int | Lookup of int | Invalidate of int

let rtlb_op_gen =
  (* Small grid so inserts overlap and collide often. *)
  QCheck2.Gen.(
    oneof
      [
        map2 (fun b l -> Insert (b * 4096, (1 + l) * 4096)) (int_bound 15) (int_bound 3);
        map (fun v -> Lookup (v * 4096)) (int_bound 19);
        map (fun b -> Invalidate (b * 4096)) (int_bound 15);
      ])

let prop_range_tlb_vs_linear_model =
  qtest "range tlb == linear reference" QCheck2.Gen.(list_size (int_bound 60) rtlb_op_gen)
    (fun ops ->
      let clock, stats = mk_env () in
      let rtlb = Hw.Range_tlb.create ~clock ~stats ~entries:4 () in
      let model = Linear_model.create 4 in
      List.iter
        (fun op ->
          match op with
          | Insert (base, limit) ->
            let e = { Hw.Range_table.base; limit; offset = base * 2; prot = Hw.Prot.rw } in
            Hw.Range_tlb.insert rtlb e;
            Linear_model.insert model e
          | Lookup va ->
            let a = Hw.Range_tlb.lookup rtlb ~va () in
            let b = Linear_model.lookup model ~va in
            if a <> b then
              QCheck2.Test.fail_reportf "lookup %d diverged (va=%d)" va
                (match a with Some e -> e.Hw.Range_table.base | None -> -1)
          | Invalidate base ->
            Hw.Range_tlb.invalidate rtlb ~base ();
            Linear_model.invalidate model ~base)
        ops;
      Hw.Range_tlb.entry_count rtlb = Linear_model.entry_count model)

(* ------------------------- extent truncate ------------------------- *)

let test_truncate_boundary_only () =
  let t = Fs.Extent_tree.create () in
  (* Three separate extents (non-mergeable frame runs). *)
  Fs.Extent_tree.append t ~start:0 ~count:4;
  Fs.Extent_tree.append t ~start:100 ~count:4;
  Fs.Extent_tree.append t ~start:200 ~count:4;
  (* Cut through the middle extent. *)
  let cut = Fs.Extent_tree.truncate_to t ~pages:6 in
  check_int "pages after cut" 6 (Fs.Extent_tree.pages t);
  check_int "two pieces cut" 2 (List.length cut);
  (match cut with
  | [ tail; whole ] ->
    check_int "tail logical" 6 tail.Fs.Extent.logical;
    check_int "tail start" 102 tail.Fs.Extent.start;
    check_int "tail count" 2 tail.Fs.Extent.count;
    check_int "whole logical" 8 whole.Fs.Extent.logical;
    check_int "whole count" 4 whole.Fs.Extent.count
  | _ -> Alcotest.fail "expected [tail; whole]");
  (* The kept side still translates. *)
  check_bool "kept head intact" true (Fs.Extent_tree.lookup t ~page:5 = Some 101);
  check_bool "cut side gone" true (Fs.Extent_tree.lookup t ~page:6 = None);
  (* Truncate exactly on an extent boundary: nothing straddles. *)
  let cut2 = Fs.Extent_tree.truncate_to t ~pages:4 in
  check_int "boundary cut piece" 1 (List.length cut2);
  check_int "boundary pages" 4 (Fs.Extent_tree.pages t)

let suite =
  [
    Alcotest.test_case "batch: n pages, k VMAs, 1 batch (INVLPG)" `Quick
      test_batch_invlpg_accounting;
    Alcotest.test_case "batch: full flush above threshold" `Quick
      test_batch_full_flush_above_threshold;
    Alcotest.test_case "batch: empty flush is free" `Quick test_batch_empty_is_free;
    Alcotest.test_case "batch: FOM exit flushes once" `Quick test_fom_exit_single_batch;
    Alcotest.test_case "zero cache: hit/miss/exhaustion" `Quick test_zero_cache_hit_miss;
    Alcotest.test_case "zero cache: fault path fallback + warm hits" `Quick
      test_fault_path_uses_cache;
    Alcotest.test_case "tlb: eviction counter" `Quick test_tlb_evictions_counter;
    prop_range_tlb_vs_linear_model;
    Alcotest.test_case "extent tree: truncate touches only the boundary" `Quick
      test_truncate_boundary_only;
  ]
