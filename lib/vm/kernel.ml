module Frame = Physmem.Frame
module Phys_mem = Physmem.Phys_mem

type config = {
  dram_bytes : int;
  nvm_bytes : int;
  levels : int;
  walk_mode : Hw.Walker.mode;
  reclaim_policy : Reclaim.policy;
  cores : int;
  numa_nodes : int;
  tlb_sets : int;
  tlb_ways : int;
  range_tlb_entries : int;
  fs_erase : Fs.Memfs.erase_policy;
  swap_backing : [ `Device | `Pmfs ];
}

let default_config =
  {
    dram_bytes = Sim.Units.gib 1;
    nvm_bytes = Sim.Units.gib 4;
    levels = 4;
    walk_mode = Hw.Walker.Native;
    reclaim_policy = Reclaim.Clock;
    cores = 1;
    numa_nodes = 1;
    tlb_sets = 128;
    tlb_ways = 8;
    range_tlb_entries = 32;
    fs_erase = Fs.Memfs.Eager_zero;
    swap_backing = `Device;
  }

type t = {
  config : config;
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  mem : Phys_mem.t;
  smp : Hw.Smp.t;
  sched : Sched.t;
  meta : Page_meta.t;
  buddy : Alloc.Buddy.t;
  zero : Physmem.Zero_engine.t;
  swap : Swap.t;
  reclaim : Reclaim.t;
  tmpfs : Fs.Memfs.t;
  pmfs : Fs.Memfs.t option;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  userfault : Userfault.t;
  ctx : Fault.ctx; (* built once: faults and populate calls share it *)
  mutable busy : bool; (* a core bracket is open: [core_enter] *)
  mutable busy_core : int;
  mutable busy_prev : int;
  mutable busy_start : int;
  mutable pt_frames : int; (* page-table frames handed out minus returned *)
}

let buddy_max_order = 10

let create ?(config = default_config) () =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create ~clock () in
  let mem =
    Phys_mem.create ~clock ~stats ~trace ~dram_bytes:config.dram_bytes
      ~nvm_bytes:config.nvm_bytes ~numa_nodes:config.numa_nodes ()
  in
  let smp =
    Hw.Smp.create ~clock ~stats ~trace ~cores:config.cores ~numa_nodes:config.numa_nodes
      ~tlb_sets:config.tlb_sets ~tlb_ways:config.tlb_ways
      ~range_tlb_entries:config.range_tlb_entries ()
  in
  let sched = Sched.create ~cores:config.cores in
  let dram_frames = Phys_mem.dram_frames mem in
  (* DRAM layout: the low half is the buddy-managed anonymous pool
     (rounded to the buddy's block size); the rest backs tmpfs. *)
  let block = 1 lsl buddy_max_order in
  let anon_frames = Sim.Units.round_down (dram_frames / 2) ~align:block in
  if anon_frames = 0 then invalid_arg "Kernel.create: DRAM too small";
  let tmpfs_frames = dram_frames - anon_frames in
  if tmpfs_frames = 0 then invalid_arg "Kernel.create: no room for tmpfs";
  let buddy =
    Alloc.Buddy.create ~mem ~first:0 ~count:anon_frames ~max_order:buddy_max_order ()
  in
  let tmpfs =
    Fs.Memfs.create ~mem ~first:anon_frames ~count:tmpfs_frames ~mode:Fs.Memfs.Tmpfs
      ~erase:config.fs_erase ()
  in
  let pmfs =
    if config.nvm_bytes > 0 then
      Some
        (Fs.Memfs.create ~mem ~first:dram_frames
           ~count:(Phys_mem.nvm_frames mem)
           ~mode:Fs.Memfs.Pmfs ~erase:config.fs_erase ())
    else None
  in
  let meta = Page_meta.create ~clock ~stats ~frames:(Phys_mem.total_frames mem) in
  let zero = Physmem.Zero_engine.create mem in
  let swap =
    let backing =
      match (config.swap_backing, pmfs) with
      | `Pmfs, Some fs -> Swap.Swapfile fs
      | `Pmfs, None -> invalid_arg "Kernel.create: swap_backing `Pmfs needs NVM"
      | `Device, _ -> Swap.Device
    in
    Swap.create ~mem ~backing ()
  in
  let reclaim = Reclaim.create ~mem ~meta ~swap ~zero ~policy:config.reclaim_policy in
  {
    config;
    clock;
    stats;
    trace;
    mem;
    smp;
    sched;
    meta;
    buddy;
    zero;
    swap;
    reclaim;
    tmpfs;
    pmfs;
    procs = Hashtbl.create 16;
    next_pid = 1;
    userfault = Userfault.create ();
    ctx = { Fault.mem; meta; buddy; swap; zero; reclaim };
    busy = false;
    busy_core = 0;
    busy_prev = 0;
    busy_start = 0;
    pt_frames = 0;
  }

let config t = t.config
let smp t = t.smp
let clock t = t.clock
let stats t = t.stats
let trace t = t.trace
let mem t = t.mem
let page_meta t = t.meta
let buddy t = t.buddy
let zero_engine t = t.zero
let swap t = t.swap
let reclaim t = t.reclaim
let tmpfs t = t.tmpfs
let pmfs t = t.pmfs

let userfault t = t.userfault

let background_zero t ~budget_frames = Physmem.Zero_engine.background_step t.zero ~budget_frames

let charge t c = Sim.Clock.charge t.clock c

let charge_syscall t =
  charge t Sim.Cost_model.syscall;
  Sim.Stats.incr t.stats "syscall";
  (* Syscall entry doubles as the gauge-sampling heartbeat. *)
  Sim.Stats.sample t.stats ~now:(Sim.Clock.now t.clock)

let causal t = Sim.Trace.causal t.trace

(* Cycle attribution: everything a syscall spends on [proc]'s behalf
   (translation, fault handling, shootdown IPIs, file work) is billed to
   the core the process runs on, the trace core stamp is set for the
   duration, and physical accesses resolve NUMA locality against that
   core's node. Re-entrant kernel paths (mlock faulting pages in via
   [access]) bill only at the outermost frame: [core_enter] opens the
   bracket unless one is open and says whether it did, and [core_leave]
   closes the one it opened. *)
let core_enter t proc =
  if t.busy then false
  else begin
    let core = proc.Proc.core in
    t.busy <- true;
    t.busy_core <- core;
    t.busy_prev <- Sim.Trace.current_core t.trace;
    Sim.Trace.set_core t.trace core;
    Phys_mem.set_accessor_node t.mem (Hw.Smp.numa_node_of_core t.smp core);
    t.busy_start <- Sim.Clock.now t.clock;
    true
  end

let core_leave t opened =
  if opened then begin
    t.busy <- false;
    Sim.Trace.set_core t.trace t.busy_prev;
    Hw.Smp.add_busy t.smp t.busy_core (Sim.Clock.now t.clock - t.busy_start)
  end

let on_core t proc f =
  let opened = core_enter t proc in
  match f () with
  | v ->
    core_leave t opened;
    v
  | exception e ->
    core_leave t opened;
    raise e

(* One syscall on [proc]'s core: a span named [name] with the entry cost
   charged inside it. *)
let syscall t proc name f =
  on_core t proc @@ fun () ->
  Sim.Trace.span t.trace ~op:name @@ fun () ->
  charge_syscall t;
  f ()

let create_page_table t =
  Hw.Page_table.create ~clock:t.clock ~stats:t.stats ~levels:t.config.levels
    ~alloc_frame:(fun () ->
      let pfn = Fault.raw_frame_exn ~what:"page-table frame" t.ctx in
      t.pt_frames <- t.pt_frames + 1;
      pfn)
    ~free_frame:(fun pfn ->
      t.pt_frames <- t.pt_frames - 1;
      Alloc.Buddy.free t.buddy pfn ~order:0)

let pt_frames t = t.pt_frames

let create_process t ?(range_translations = false) () =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let range_table =
    if range_translations then
      Some (Hw.Range_table.create ~clock:t.clock ~stats:t.stats ~trace:t.trace ())
    else None
  in
  let aspace =
    Address_space.create ~clock:t.clock ~stats:t.stats ~trace:t.trace
      ~table:(create_page_table t) ?range_table ~mode:t.config.walk_mode ~smp:t.smp ~asid:pid ()
  in
  (* Round-robin placement: the pid is the ASID tagging this address
     space's entries in whichever core's TLBs it warms. *)
  let core = Sched.pick t.sched ~affinity:(-1) in
  Hw.Mmu.set_core (Address_space.mmu aspace) core;
  let c = causal t in
  let spawn =
    Sim.Causal.emit c
      ~core:(Sim.Trace.current_core t.trace)
      ~op:"spawn"
      ~detail:(Printf.sprintf "pid%d" pid)
      ()
  in
  let place = Sim.Causal.emit c ~core ~op:"sched_place" ~detail:(Printf.sprintf "pid%d" pid) () in
  Sim.Causal.link c ~src:spawn ~dst:place ~kind:"sched";
  let p = Proc.create ~pid ~aspace ~core ~affinity:(-1) () in
  Hashtbl.replace t.procs pid p;
  p

let migrate t proc ~core =
  if core < 0 || core >= Hw.Smp.cores t.smp then invalid_arg "Kernel.migrate: no such core";
  if proc.Proc.affinity land (1 lsl core) = 0 then
    invalid_arg "Kernel.migrate: core not in affinity mask";
  if core <> proc.Proc.core then begin
    Sim.Trace.span t.trace ~op:"migrate" @@ fun () ->
    let c = causal t in
    let detail = Printf.sprintf "pid%d" proc.Proc.pid in
    let out = Sim.Causal.emit c ~core:proc.Proc.core ~op:"migrate_out" ~detail () in
    let start = Sim.Clock.now t.clock in
    charge t Sim.Cost_model.scheduler;
    Sim.Stats.incr t.stats "migration";
    proc.Proc.core <- core;
    Hw.Mmu.set_core (Address_space.mmu proc.Proc.aspace) core;
    let in_ = Sim.Causal.emit c ~core ~op:"migrate_in" ~detail () in
    Sim.Causal.link c ~src:out ~dst:in_ ~kind:"migrate";
    (* The placement work runs on the destination core. *)
    let cycles = Sim.Clock.now t.clock - start in
    Sim.Causal.attribute c ~core ~share:Sim.Causal.Sched ~cycles;
    Hw.Smp.add_busy t.smp core cycles
  end

let process_count t = Hashtbl.length t.procs
let processes t = t.procs

(* Give back every leaf in [va, va+len): per-page release (the
   baseline's linear unmap cost), with the TLB invalidation deferred into
   [batch] — the mmu_gather pattern. Frames outside the buddy's pool
   belong to a file system; every other frame (an anonymous page or a
   private mapping's CoW copy) is the VM's to free. *)
let unmap_leaves t ~table ~batch ~va ~len =
  for i = 0 to (len / Sim.Units.page_size) - 1 do
    let page_va = va + (i * Sim.Units.page_size) in
    let leaf = Hw.Page_table.find table ~va:page_va in
    (* A huge leaf is unmapped once, at its base. *)
    if
      leaf != Hw.Page_table.no_leaf
      && Sim.Units.is_aligned page_va ~align:(Hw.Page_size.bytes leaf.Hw.Page_table.size)
    then
      Page_meta.unmap t.meta ~zero:t.zero table ~va:page_va leaf
        ~owned:(Alloc.Buddy.owns t.buddy leaf.Hw.Page_table.pfn)
  done;
  Hw.Tlb_batch.add batch ~va ~len

(* Tear down one VMA already removed from its address space. *)
let teardown_vma t (vma : Vma.t) ~pid ~table ~batch =
  unmap_leaves t ~table ~batch ~va:vma.Vma.start ~len:vma.Vma.len;
  match vma.Vma.backing with
  | Vma.File { fs; ino; _ } -> Fs.Memfs.close_file fs ino
  | Vma.Anon -> Swap.discard t.swap ~pid ~va:vma.Vma.start ~len:vma.Vma.len

(* Remove and tear down every VMA in [start, start+len): one shootdown
   pass for the whole span, VMA count notwithstanding. *)
let unmap_vmas t aspace ~start ~len =
  let table = Address_space.page_table aspace in
  let pid = Hw.Mmu.asid (Address_space.mmu aspace) in
  let removed = Address_space.remove_range aspace ~start ~len in
  let batch = Hw.Tlb_batch.create (Address_space.mmu aspace) in
  List.iter (fun vma -> teardown_vma t vma ~pid ~table ~batch) removed;
  Hw.Tlb_batch.flush batch

let munmap t proc ~va ~len =
  syscall t proc "munmap" @@ fun () -> unmap_vmas t proc.Proc.aspace ~start:va ~len

let exit_process t proc =
  syscall t proc "exit" @@ fun () ->
  let aspace = proc.Proc.aspace in
  let lo = ref max_int and hi = ref min_int in
  Address_space.iter_vmas aspace (fun (v : Vma.t) ->
      lo := min !lo v.Vma.start;
      hi := max !hi (Vma.end_ v));
  (* One range removal spanning every VMA: exit pays O(1) shootdowns no
     matter how fragmented the address space. *)
  if !lo < !hi then unmap_vmas t aspace ~start:!lo ~len:(!hi - !lo);
  (* Pages a userfault handler installed outside every VMA: the same
     hand-back, then the dead pid's registrations go. *)
  let table = Address_space.page_table aspace in
  let regions = ref [] in
  Userfault.iter_regions t.userfault (fun ~pid ~va ~len ->
      if pid = proc.Proc.pid then regions := (va, len) :: !regions);
  if !regions <> [] then begin
    let batch = Hw.Tlb_batch.create (Address_space.mmu aspace) in
    List.iter
      (fun (va, len) ->
        unmap_leaves t ~table ~batch ~va ~len;
        Userfault.unregister t.userfault ~pid:proc.Proc.pid ~va)
      !regions;
    Hw.Tlb_batch.flush batch
  end;
  Hw.Page_table.release table ignore;
  proc.Proc.alive <- false;
  Hashtbl.remove t.procs proc.Proc.pid

let reset_after_crash t =
  (* Power failure: every process dies with no orderly teardown, and all
     DRAM-resident kernel state (struct pages, reclaim lists, userfault
     registrations, TLBs) is gone. Host-side, no cost — the machine is
     off. A dead process's table goes back through the sink and its pages
     of the pool to the zero engine; masters and file extents stay. *)
  let pages = ref [] in
  Sim.Clock.off t.clock (fun () ->
      Hashtbl.iter
        (fun _ p ->
          p.Proc.alive <- false;
          Hw.Page_table.release (Address_space.page_table p.Proc.aspace) (fun leaf ->
              for pfn = leaf.Hw.Page_table.pfn to leaf.pfn + Hw.Page_size.frames leaf.size - 1 do
                if Alloc.Buddy.owns t.buddy pfn then pages := pfn :: !pages
              done))
        t.procs);
  List.iter
    (fun first -> Physmem.Zero_engine.put_dirty t.zero ~first ~count:1)
    (List.sort_uniq compare !pages);
  Hashtbl.reset t.procs;
  Userfault.clear t.userfault;
  Swap.clear t.swap;
  Page_meta.reset_after_crash t.meta;
  (* Every core's TLBs lost power with the machine; host-side clear keeps
     the occupancy gauges consistent with zero (the post-recovery
     invariant checker walks these TLBs, so they must not carry pre-crash
     entries for dead address spaces). *)
  Hw.Smp.clear t.smp;
  Sim.Stats.set_gauge t.stats "tlb_entries" 0;
  Sim.Stats.set_gauge t.stats "range_tlb_entries" 0;
  (* Every engine's pool moves the one gauge: the file systems' too. *)
  let pool fs = Fs.Memfs.zero_pool_available fs in
  Sim.Stats.set_gauge t.stats "zero_cache_depth"
    (Physmem.Zero_engine.available t.zero + pool t.tmpfs + Option.fold ~none:0 ~some:pool t.pmfs)

let mmap_anon t proc ~len ~prot ~populate =
  syscall t proc "mmap" @@ fun () ->
  if len <= 0 then invalid_arg "Kernel.mmap_anon: empty mapping";
  let len = Sim.Units.round_up len ~align:Sim.Units.page_size in
  let aspace = proc.Proc.aspace in
  let va = Address_space.alloc_va aspace ~len ~align:Sim.Units.page_size in
  let vma = Vma.make ~start:va ~len ~prot ~backing:Vma.Anon ~share:Vma.Private in
  vma.Vma.populated <- populate;
  Address_space.insert_vma aspace vma;
  if populate then begin
    let pages = len / Sim.Units.page_size in
    for i = 0 to pages - 1 do
      Fault.populate_anon_page t.ctx ~aspace ~va:(va + (i * Sim.Units.page_size)) ~prot
    done
  end;
  va

let mmap_file t proc ~fs ~path ~prot ~share ~populate ?len ?(offset = 0) () =
  syscall t proc "mmap" @@ fun () ->
  let ino =
    match Fs.Memfs.lookup fs path with
    | Some ino -> ino
    | None -> invalid_arg ("Kernel.mmap_file: no such file: " ^ path)
  in
  let node = Fs.Memfs.inode fs ino in
  if not (Hw.Prot.subset prot ~of_:node.Fs.Inode.prot) then
    invalid_arg "Kernel.mmap_file: file permission denied";
  let file_len = node.Fs.Inode.size in
  let len =
    match len with
    | Some l -> Sim.Units.round_up l ~align:Sim.Units.page_size
    | None -> Sim.Units.round_up (max 0 (file_len - offset)) ~align:Sim.Units.page_size
  in
  if len = 0 then invalid_arg "Kernel.mmap_file: empty mapping";
  Fs.Memfs.open_file fs ino;
  let aspace = proc.Proc.aspace in
  let va = Address_space.alloc_va aspace ~len ~align:Sim.Units.page_size in
  let vma =
    Vma.make ~start:va ~len ~prot ~backing:(Vma.File { fs; ino; file_offset = offset }) ~share
  in
  vma.Vma.populated <- populate;
  Address_space.insert_vma aspace vma;
  if populate then begin
    let pages = len / Sim.Units.page_size in
    for i = 0 to pages - 1 do
      let page_va = va + (i * Sim.Units.page_size) in
      Fault.populate_file_page t.ctx ~aspace ~vma ~va:page_va
    done
  end;
  va

let mprotect t proc ~va ~len ~prot =
  syscall t proc "mprotect" @@ fun () ->
  let aspace = proc.Proc.aspace in
  (match Address_space.find_vma aspace ~va with
  | Some vma -> vma.Vma.prot <- prot
  | None -> invalid_arg "Kernel.mprotect: unmapped");
  ignore (Hw.Page_table.protect_range (Address_space.page_table aspace) ~va ~len ~prot);
  Hw.Mmu.invalidate_range (Address_space.mmu aspace) ~va ~len

let context_switch t ~from_ ~to_ ~asids =
  Sim.Trace.span t.trace ~op:"context_switch" @@ fun () ->
  let c = causal t in
  let out =
    Sim.Causal.emit c ~core:from_.Proc.core ~op:"switch_out"
      ~detail:(Printf.sprintf "pid%d" from_.Proc.pid) ()
  in
  let start = Sim.Clock.now t.clock in
  charge t Sim.Cost_model.scheduler;
  Sim.Stats.incr t.stats "context_switch";
  if not asids then Hw.Mmu.flush_tlbs (Address_space.mmu to_.Proc.aspace);
  let in_ =
    Sim.Causal.emit c ~core:to_.Proc.core ~op:"switch_in"
      ~detail:(Printf.sprintf "pid%d" to_.Proc.pid) ()
  in
  Sim.Causal.link c ~src:out ~dst:in_ ~kind:"sched";
  let cycles = Sim.Clock.now t.clock - start in
  Sim.Causal.attribute c ~core:to_.Proc.core ~share:Sim.Causal.Sched ~cycles;
  Hw.Smp.add_busy t.smp to_.Proc.core cycles

let madvise_dontneed t proc ~va ~len =
  syscall t proc "madvise" @@ fun () ->
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  let released = ref 0 in
  let pages = Sim.Units.pages_of_bytes len in
  for i = 0 to pages - 1 do
    let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size + (i * Sim.Units.page_size) in
    match (Address_space.find_vma aspace ~va:page_va, Hw.Page_table.lookup table ~va:page_va) with
    | Some { Vma.backing = Vma.Anon; _ }, Some (_, leaf)
      when leaf.Hw.Page_table.size = Hw.Page_size.Small ->
      Page_meta.unmap t.meta ~zero:t.zero table ~va:page_va leaf ~owned:true;
      Hw.Mmu.invalidate_page (Address_space.mmu aspace) ~va:page_va;
      incr released
    | _ -> ()
  done;
  Sim.Stats.add t.stats "madvise_released" !released;
  !released

(* Deliver a fault to a user handler: trap, switch to the handler task,
   run it, install the page via the UFFDIO_COPY path, switch back. *)
let handle_userfault t proc ~va ~write ~prot ~(handler : Userfault.handler) =
  Sim.Trace.span t.trace ~op:"userfault" @@ fun () ->
  let aspace = proc.Proc.aspace in
  charge t Sim.Cost_model.fault_trap;
  charge t (2 * Sim.Cost_model.scheduler);
  Sim.Stats.incr t.stats "userfault";
  let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size in
  match handler ~va ~write with
  | Userfault.Sigbus -> raise (Fault.Segfault va)
  | Userfault.Zero_page | Userfault.Provide _ as r ->
    charge_syscall t (* UFFDIO_COPY / UFFDIO_ZEROPAGE *);
    let pfn = Fault.fresh_zero_frame t.ctx in
    (match r with
    | Userfault.Provide content ->
      Phys_mem.write t.mem ~addr:(Frame.to_addr pfn)
        (String.sub content 0 (min (String.length content) Sim.Units.page_size))
    | Userfault.Zero_page | Userfault.Sigbus -> ());
    Page_meta.map t.meta aspace ~va:page_va ~pfn ~prot ~size:Hw.Page_size.Small ~dirty:false
      ~anon:false

let user_page_release t proc ~va =
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size in
  match Hw.Page_table.lookup table ~va:page_va with
  | None -> None
  | Some (_, leaf) ->
    Page_meta.unmap t.meta ~zero:t.zero table ~va:page_va leaf ~owned:true;
    Hw.Mmu.invalidate_page (Address_space.mmu aspace) ~va:page_va;
    Sim.Stats.incr t.stats "userfault_evict";
    Some leaf.Hw.Page_table.pfn

(* A closure-free "access" span: the per-page path allocates nothing. *)
let rec access_inner t proc ~va ~write =
  let start = Sim.Trace.enter t.trace ~op:"access" in
  match access_body t proc ~va ~write with
  | () -> Sim.Trace.leave t.trace ~op:"access" ~start ~arg:0 ~outcome:"ok"
  | exception e ->
    Sim.Trace.leave_raised t.trace ~op:"access" ~start;
    raise e

and access_body t proc ~va ~write =
  let aspace = proc.Proc.aspace in
  match Hw.Mmu.access (Address_space.mmu aspace) ~mem:t.mem ~va ~write with
  | Ok () -> ()
  | Error _ ->
    (* A fault outside every registered range skips the table walk. *)
    let table = Address_space.page_table aspace in
    match Userfault.find t.userfault ~pid:proc.Proc.pid ~va with
    | Some (handler, prot) when Hw.Page_table.find table ~va == Hw.Page_table.no_leaf ->
      (* Missing page in a registered range: user-level paging. *)
      handle_userfault t proc ~va ~write ~prot ~handler;
      access_inner t proc ~va ~write
    | _ -> kernel_fault t proc ~va ~write

and kernel_fault t proc ~va ~write =
  ignore (Fault.handle t.ctx ~aspace:proc.Proc.aspace ~pid:proc.Proc.pid ~va ~write : Fault.kind);
  access_inner t proc ~va ~write

(* [on_core] around [access_inner], with no closure. *)
let access t proc ~va ~write =
  let opened = core_enter t proc in
  match access_inner t proc ~va ~write with
  | () -> core_leave t opened
  | exception e ->
    core_leave t opened;
    raise e

let access_range t proc ~va ~len ~write ~stride =
  if stride <= 0 then invalid_arg "Kernel.access_range: bad stride";
  let count = ref 0 in
  let cursor = ref va in
  while !cursor < va + len do
    access t proc ~va:!cursor ~write;
    incr count;
    cursor := !cursor + stride
  done;
  !count

let mlock t proc ~va ~len =
  syscall t proc "mlock" @@ fun () ->
  let aspace = proc.Proc.aspace in
  let pages = Sim.Units.pages_of_bytes len in
  for i = 0 to pages - 1 do
    let page_va = va + (i * Sim.Units.page_size) in
    (* Fault the page in if needed, then pin it. *)
    access t proc ~va:page_va ~write:false;
    match Hw.Page_table.lookup (Address_space.page_table aspace) ~va:page_va with
    | Some (_, leaf) -> Page_meta.mlock t.meta leaf.Hw.Page_table.pfn
    | None -> assert false
  done;
  Sim.Stats.add t.stats "mlocked_pages" pages

let read_syscall t proc ~fs ~ino ~off ~len =
  syscall t proc "read" @@ fun () ->
  let data = Fs.Memfs.read_file fs ino ~off ~len in
  let n = Bytes.length data in
  (* Copy into the user buffer. *)
  charge t (Sim.Cost_model.copy_cost ~bytes:n);
  n
