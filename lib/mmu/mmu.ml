type fault = Not_mapped | Protection

(* An address space's view of the machine: its page/range tables plus the
   shared {!Smp} core complex. [core] is where the owning process is
   currently scheduled — translations fill that core's TLBs — and
   [cpumask] tracks which cores may still cache this address space's
   translations (Linux's mm_cpumask): exactly those cores are interrupted
   on a shootdown. *)
type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  table : Page_table.t;
  range_table : Range_table.t option;
  mode : Walker.mode;
  smp : Smp.t;
  asid : int;
  mutable core : int;
  mutable cpumask : int;
}

let create ~clock ~stats ?(trace = Sim.Trace.disabled) ~table ?range_table
    ?(mode = Walker.Native) ?smp ?(asid = 0) () =
  let smp =
    match smp with
    | Some smp -> smp
    | None ->
      (* Standalone MMU (tests, micro-benches): a private single-core
         machine with the default TLB geometry. *)
      Smp.create ~clock ~stats ~trace ()
  in
  { clock; stats; trace; table; range_table; mode; smp; asid; core = 0; cpumask = 0 }

let stats t = t.stats
let trace t = t.trace
let asid t = t.asid

let set_core t core =
  if core < 0 || core >= Smp.cores t.smp then invalid_arg "Mmu.set_core: no such core";
  t.core <- core

let local t = Smp.core t.smp t.core
let tlb t = (local t).Smp.tlb

let mark_cached t = t.cpumask <- t.cpumask lor (1 lsl t.core)

(* Dirty/accessed maintenance on a TLB hit costs nothing extra in the
   model: hardware updates the PTE bits asynchronously. *)
let note_access t ~va ~write =
  if write then begin
    let leaf = Page_table.find t.table ~va in
    if leaf != Page_table.no_leaf then begin
      leaf.Page_table.accessed <- true;
      leaf.Page_table.dirty <- true
    end
  end

(* [resolve]'s fault codes: a physical address is never negative. *)
let not_mapped = -1
let protection = -2

let check ~prot ~write ~exec pa = if Prot.allows prot ~write ~exec then pa else protection
let fault_of code = if code = not_mapped then Not_mapped else Protection

(* [translate] as an int, a physical address or a fault code, so an
   access on the radix path allocates nothing. *)
let resolve t ~va ~write ~exec =
  let c = local t in
  let e = Tlb.lookup c.Smp.tlb ~asid:t.asid ~va in
  if e != Tlb.miss then begin
    let pa = check ~prot:(Tlb.entry_prot e) ~write ~exec (Tlb.phys_addr e ~va) in
    if pa >= 0 then note_access t ~va ~write;
    pa
  end
  else
    let via_range_tlb =
      match t.range_table with
      | Some _ -> Range_tlb.lookup c.Smp.range_tlb ~asid:t.asid ~va ()
      | None -> None
    in
    match via_range_tlb with
    | Some e -> check ~prot:e.Range_table.prot ~write ~exec (va + e.Range_table.offset)
    | None -> (
      (* Refill: range table first (one entry can cover the whole region),
         then the radix table. *)
      let via_range_walk =
        match t.range_table with Some rt -> Range_table.walk rt ~va | None -> None
      in
      match via_range_walk with
      | Some e ->
        (match t.range_table with
        | Some _ ->
          Range_tlb.insert c.Smp.range_tlb ~asid:t.asid e;
          mark_cached t
        | None -> ());
        check ~prot:e.Range_table.prot ~write ~exec (va + e.Range_table.offset)
      | None ->
        let leaf =
          Walker.walk ~trace:t.trace ~clock:t.clock ~stats:t.stats ~table:t.table ~mode:t.mode ~va
        in
        if leaf == Page_table.no_leaf then not_mapped
        else begin
          if write then leaf.Page_table.dirty <- true;
          let size = leaf.Page_table.size in
          Tlb.insert c.Smp.tlb ~asid:t.asid
            ~va:(Sim.Units.round_down va ~align:(Page_size.bytes size))
            ~pfn:leaf.Page_table.pfn ~prot:leaf.Page_table.prot ~size;
          mark_cached t;
          check ~prot:leaf.Page_table.prot ~write ~exec (Page_table.phys_addr leaf ~va)
        end)

let translate t ~va ~write ~exec =
  let pa = resolve t ~va ~write ~exec in
  if pa >= 0 then Ok pa else Error (fault_of pa)

let access t ~mem ~va ~write =
  let pa = resolve t ~va ~write ~exec:false in
  if pa < 0 then Error (fault_of pa)
  else begin
    if write then Physmem.Phys_mem.write_byte mem pa 'x' else Physmem.Phys_mem.touch mem pa;
    Ok ()
  end

(* Purely local full flush (context switch): current core only, zero
   IPIs — the single-core cost the fixed {!Sim.Cost_model.tlb_shootdown}
   now charges. *)
let flush_tlbs t =
  let c = local t in
  Tlb.flush c.Smp.tlb;
  (match t.range_table with Some _ -> Range_tlb.flush c.Smp.range_tlb | None -> ());
  t.cpumask <- t.cpumask land lnot (1 lsl t.core)

(* One shootdown IPI round-trip: interrupt every *other* core in the
   cpumask, run [f] as its invalidation handler, collect the ack. A fired
   [tlb_ack_lost] fault drops the handler and the ack — the victim core
   keeps its stale entries, which only [Os.Check] can catch. The send is
   charged whether or not the ack comes back. *)
let ipi_round t f =
  (* Skip (and don't open a span) when no *other* core has this address
     space cached: the loop below would do nothing. *)
  if t.cpumask land lnot (1 lsl t.core) <> 0 then
  Sim.Trace.span t.trace ~op:"ipi_round" @@ fun () ->
  let src = local t in
  let faults = Sim.Trace.faults t.trace in
  let causal = Sim.Trace.causal t.trace in
  for r = 0 to Smp.cores t.smp - 1 do
    if r <> t.core && t.cpumask land (1 lsl r) <> 0 then begin
      let dst = Smp.core t.smp r in
      let start = Sim.Clock.now t.clock in
      let send = Sim.Causal.emit causal ~core:t.core ~op:"ipi_send" () in
      Sim.Clock.charge t.clock Sim.Cost_model.ipi;
      src.Smp.ipi_sent <- src.Smp.ipi_sent + 1;
      dst.Smp.ipi_received <- dst.Smp.ipi_received + 1;
      Sim.Stats.incr t.stats "ipi_sent";
      let deliver = Sim.Causal.emit causal ~core:r ~op:"ipi_deliver" () in
      Sim.Causal.link causal ~src:send ~dst:deliver ~kind:"ipi";
      if Sim.Fault_inject.fires faults ~site:Sim.Fault_inject.site_tlb_ack_lost then begin
        (* Lost ack: the deliver node stays a dead end — no ack node, no
           ack edge — so [ipi_acked < ipi_received] is visible from the
           graph alone. *)
        Sim.Stats.incr t.stats "tlb_ack_lost";
        Sim.Trace.record t.trace ~op:"ipi" ~start ~outcome:"ack_lost" ~core:t.core ()
      end
      else begin
        f dst;
        dst.Smp.ipi_acked <- dst.Smp.ipi_acked + 1;
        Sim.Stats.incr t.stats "ipi_acked";
        let ack = Sim.Causal.emit causal ~core:t.core ~op:"ipi_ack" () in
        Sim.Causal.link causal ~src:deliver ~dst:ack ~kind:"ack";
        Sim.Trace.record t.trace ~op:"ipi" ~start ~outcome:"acked" ~core:t.core ()
      end;
      let cycles = Sim.Clock.now t.clock - start in
      Sim.Causal.observe_ipi causal ~src:t.core ~dst:r ~cycles;
      Sim.Causal.attribute causal ~core:t.core ~share:Sim.Causal.Ipi_wait ~cycles
    end
  done

let invalidate_page t ~va =
  Tlb.invalidate_page (local t).Smp.tlb ~asid:t.asid ~va ();
  ipi_round t (fun dst -> Tlb.invalidate_page dst.Smp.tlb ~asid:t.asid ~va ())

(* Range-table bases falling inside [va, va+len): each needs its own
   range-TLB shootdown alongside the page-TLB range invalidate. *)
let range_bases t ~va ~len =
  match t.range_table with None -> [] | Some rt -> Range_table.bases_in rt ~va ~len

let invalidate_range_on t (c : Smp.core) ~va ~len ~bases =
  Tlb.invalidate_range c.Smp.tlb ~asid:t.asid ~va ~len ();
  List.iter (fun base -> Range_tlb.invalidate c.Smp.range_tlb ~asid:t.asid ~base ()) bases

let invalidate_range t ~va ~len =
  let bases = range_bases t ~va ~len in
  invalidate_range_on t (local t) ~va ~len ~bases;
  ipi_round t (fun dst -> invalidate_range_on t dst ~va ~len ~bases)

let invalidate_base t ~base =
  Range_tlb.invalidate (local t).Smp.range_tlb ~asid:t.asid ~base ();
  ipi_round t (fun dst -> Range_tlb.invalidate dst.Smp.range_tlb ~asid:t.asid ~base ())

(* The batch exit path: every accumulated range invalidated locally, then
   ONE IPI round in which each remote core processes the whole list —
   this is the O(cores) amortisation (vs O(cores * pages) for unbatched
   per-page shootdowns). At [Tlb.full_flush_threshold_pages]+ pages the
   per-range work degenerates to full flushes on every involved core,
   still one IPI round. *)
let shootdown_ranges t ~ranges ~pages =
  if pages >= Tlb.full_flush_threshold_pages then begin
    flush_tlbs t;
    ipi_round t (fun dst ->
        Tlb.flush dst.Smp.tlb;
        match t.range_table with
        | Some _ -> Range_tlb.flush dst.Smp.range_tlb
        | None -> ());
    (* The OS believes every core is clean now; a lost ack silently
       falsifies that belief (the stale entries stay behind). *)
    t.cpumask <- 0
  end
  else begin
    let rs = List.map (fun (va, len) -> (va, len, range_bases t ~va ~len)) ranges in
    List.iter (fun (va, len, bases) -> invalidate_range_on t (local t) ~va ~len ~bases) rs;
    ipi_round t (fun dst ->
        List.iter (fun (va, len, bases) -> invalidate_range_on t dst ~va ~len ~bases) rs)
  end
