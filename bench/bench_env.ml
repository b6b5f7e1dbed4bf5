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

let us k c = Sim.Clock.us (K.clock k) c

(* Simulated microseconds spent in [f]. *)
let time_us k f = us k (cycles k f)

let stat k name = Sim.Stats.get (K.stats k) name

(* Make a tmpfs file of [bytes] and return (fs, path). *)
let tmpfs_file k ~bytes =
  let fs = K.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/bench-file" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:bytes;
  (fs, "/bench-file", ino)

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
