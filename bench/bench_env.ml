(* Shared fixtures for the experiment harness: fresh machines per data
   point so measurements never contaminate each other, and helpers to
   read the simulated clock. *)

module K = Os.Kernel
module F = O1mem.Fom

let config ?(dram = Sim.Units.mib 512) ?(nvm = Sim.Units.gib 2) ?(levels = 4)
    ?(walk_mode = Hw.Walker.Native) ?(reclaim = Os.Reclaim.Clock) ?(cores = 1)
    ?(numa_nodes = 1) () =
  {
    K.default_config with
    K.dram_bytes = dram;
    nvm_bytes = nvm;
    levels;
    walk_mode;
    reclaim_policy = reclaim;
    cores;
    numa_nodes;
  }

let kernel ?dram ?nvm ?levels ?walk_mode ?reclaim ?cores ?numa_nodes () =
  K.create ~config:(config ?dram ?nvm ?levels ?walk_mode ?reclaim ?cores ?numa_nodes ()) ()

let kernel_and_fom ?dram ?nvm ?strategy () =
  let k = kernel ?dram ?nvm () in
  (k, F.create k ?strategy ())

(* One monotonic host-nanosecond source for the whole bench layer. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Simulated cycles spent in [f], on [k]'s clock. *)
let cycles k f =
  let clock = K.clock k in
  let before = Sim.Clock.now clock in
  f ();
  Sim.Clock.elapsed clock ~since:before

(* Simulated microseconds spent in [f]. *)
let time_us k f = Sim.Clock.us (cycles k f)

let stat k name = Sim.Stats.get (K.stats k) name

(* Make a tmpfs file of [bytes] and return (fs, path). *)
let tmpfs_file k ~bytes =
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/bench-file" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:bytes;
  (fs, "/bench-file", ino)

(* What one run of [smp_rig] hands back: the teardown's cycles, the
   machine's counters, and its causal graph. *)
type smp_run = { cycles : int; stats : Sim.Stats.t; causal : Sim.Causal.t }

(* The shootdown rig behind C1's SMP sweeps: a bare MMU machine of
   [cores] cores where every core caches [pages] translations of one
   address space (asid 1), so the cpumask makes each of them a shootdown
   target — the worst case for per-page unmap. With [range], the pages
   sit behind a single range-table entry and each core's range TLB
   caches it. The causal plane stays attached, since it never charges
   cycles, and is reset just before [f] runs the teardown, so a measure
   can read the teardown's cycles, its IPI counters or its critical
   path's hops. *)
let smp_rig ?(range = false) ~cores ~pages f =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create ~clock () in
  let causal = Sim.Causal.create ~clock () in
  Sim.Trace.attach_causal trace causal;
  let next = ref 0 in
  let alloc_frame () =
    incr next;
    !next
  in
  let table = Hw.Page_table.create ~clock ~stats ~levels:4 ~alloc_frame ~free_frame:ignore in
  let range_table =
    if range then begin
      let rt = Hw.Range_table.create ~clock ~stats () in
      Hw.Range_table.insert rt ~base:0 ~limit:(pages * Sim.Units.page_size) ~offset:0
        ~prot:Hw.Prot.rw;
      Some rt
    end
    else None
  in
  let smp = Hw.Smp.create ~clock ~stats ~trace ~cores () in
  let mmu = Hw.Mmu.create ~clock ~stats ~trace ~table ?range_table ~smp ~asid:1 () in
  if not range then
    for i = 0 to pages - 1 do
      Hw.Page_table.map_page table ~va:(i * Sim.Units.page_size) ~pfn:(1000 + i)
        ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small
    done;
  for c = 0 to cores - 1 do
    Hw.Mmu.set_core mmu c;
    for i = 0 to pages - 1 do
      ignore (Hw.Mmu.translate mmu ~va:(i * Sim.Units.page_size) ~write:false ~exec:false)
    done
  done;
  Hw.Mmu.set_core mmu 0;
  Sim.Causal.reset causal;
  let before = Sim.Clock.now clock in
  f mmu;
  { cycles = Sim.Clock.elapsed clock ~since:before; stats; causal }

let touch_pages_kernel k p ~va ~len ~write =
  ignore (K.access_range k p ~va ~len ~write ~stride:Sim.Units.page_size)

let touch_pages_fom fom p ~va ~len ~write =
  ignore (F.access_range fom p ~va ~len ~write ~stride:Sim.Units.page_size)

(* Churn on process [p]'s tcmalloc-style heap [h]: ops go to its
   threads round-robin, and a block is freed by the thread that
   allocated it. *)
let tcmalloc_driver k p h =
  let next = ref 0 and owner = Hashtbl.create 64 in
  {
    Wl.Churn.h_malloc =
      (fun ~bytes ->
        let thread = !next mod Heap.Tcmalloc_sim.threads in
        incr next;
        let va = Heap.Tcmalloc_sim.malloc h ~thread ~bytes in
        Hashtbl.replace owner va thread;
        va);
    h_free =
      (fun va ->
        Heap.Tcmalloc_sim.free h ~thread:(Option.value (Hashtbl.find_opt owner va) ~default:0) va);
    h_touch = (fun ~va ~bytes -> touch_pages_kernel k p ~va ~len:(max 1 bytes) ~write:true);
  }

(* A new process on [k] running [backend]'s heap: the churn replay
   driver, and a reader for the heap's footprint. *)
let heap_driver k backend =
  match backend with
  | `Tcmalloc ->
    let p = K.create_process k () in
    let h = Heap.Tcmalloc_sim.create k p in
    (tcmalloc_driver k p h, fun () -> Heap.Tcmalloc_sim.footprint_bytes h)
  | `Malloc ->
    let p = K.create_process k () in
    let h = Heap.Malloc_sim.create k p in
    ( {
        Wl.Churn.h_malloc = (fun ~bytes -> Heap.Malloc_sim.malloc h ~bytes);
        h_free = (fun va -> Heap.Malloc_sim.free h va);
        h_touch = (fun ~va ~bytes -> touch_pages_kernel k p ~va ~len:(max 1 bytes) ~write:true);
      },
      fun () -> Heap.Malloc_sim.footprint_bytes h )
  | `Fom ->
    let fom = F.create k () in
    let p = K.create_process k () in
    let h = Heap.Fom_heap.create fom p () in
    ( {
        Wl.Churn.h_malloc = (fun ~bytes -> Heap.Fom_heap.malloc h ~bytes);
        h_free = (fun va -> Heap.Fom_heap.free h va);
        h_touch = (fun ~va ~bytes -> touch_pages_fom fom p ~va ~len:(max 1 bytes) ~write:true);
      },
      fun () -> Heap.Fom_heap.footprint_bytes h )

(* The churn machine shared by P1 and H1: a seed-42 trace of [ops]
   64 B..64 KiB allocations, and a 1 GiB DRAM + 1 GiB NVM kernel with
   one process replaying it on [backend]'s heap. *)
let churn ~ops backend =
  let trace =
    Wl.Churn.generate ~rng:(Sim.Rng.create ~seed:42) ~ops ~max_bytes:(Sim.Units.kib 64) ()
  in
  let k = kernel ~dram:(Sim.Units.gib 1) ~nvm:(Sim.Units.gib 1) () in
  (k, trace, fst (heap_driver k backend))

let print_header title what =
  Printf.printf "\n#### %s\n%s\n\n" title what
