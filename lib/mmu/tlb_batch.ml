type t = {
  mmu : Mmu.t;
  mutable ranges : (int * int) list; (* (va, len), reverse accumulation order *)
  mutable pages : int;
}

let create mmu = { mmu; ranges = []; pages = 0 }

let add t ~va ~len =
  if len > 0 then begin
    t.ranges <- (va, len) :: t.ranges;
    t.pages <- t.pages + Sim.Units.pages_of_bytes len
  end

let flush t =
  if t.pages > 0 then begin
    let pages = t.pages in
    let outcome = if pages >= Tlb.full_flush_threshold_pages then "full_flush" else "invlpg" in
    Sim.Trace.span (Mmu.trace t.mmu) ~op:"tlb_batch" ~arg:(fun () -> pages)
      ~outcome:(fun () -> outcome)
    @@ fun () ->
    (* One IPI round for the whole batch, however many ranges or pages it
       holds — the shootdown analogue of mmu_gather. Ack loss is handled
       inside the round: the victim core skips its invalidations and
       keeps stale entries. *)
    Mmu.shootdown_ranges t.mmu ~ranges:t.ranges ~pages:t.pages;
    Sim.Stats.incr (Mmu.stats t.mmu) "tlb_batch";
    Sim.Stats.add (Mmu.stats t.mmu) "tlb_batch_pages" t.pages;
    t.ranges <- [];
    t.pages <- 0
  end
