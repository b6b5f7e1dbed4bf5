module S = Size_class

let anon kernel proc ~name =
  let map len = (Os.Kernel.mmap_anon kernel proc ~len ~prot:Hw.Prot.rw ~populate:false, len) in
  {
    S.name;
    map_arena = (fun _ -> map S.arena_bytes);
    map_large = (fun bytes -> map (Sim.Units.round_up bytes ~align:Sim.Units.page_size));
    unmap = (fun (va, len) -> Os.Kernel.munmap kernel proc ~va ~len);
    va = fst;
    len = snd;
  }

type t = { kernel : Os.Kernel.t; proc : Os.Proc.t; heap : (int * int) S.t }

let create kernel proc = { kernel; proc; heap = S.create (anon kernel proc ~name:"Malloc_sim") }
let malloc t ~bytes = S.malloc t.heap ~bytes
let free t va = S.free t.heap va
let size_of t va = S.size_of t.heap va
let live_bytes t = S.live_bytes t.heap
let footprint_bytes t = S.footprint_bytes t.heap
let arena_count t = S.arena_count t.heap

(* Only whole pages: a bump-carved block can share its first and last
   page with a live neighbour. *)
let trim t =
  let page = Sim.Units.page_size in
  let released = ref 0 in
  Array.iteri
    (fun k blocks ->
      List.iter
        (fun va ->
          let lo = Sim.Units.round_up va ~align:page in
          let hi = Sim.Units.round_down (va + S.class_size k) ~align:page in
          if hi > lo then
            released :=
              !released + Os.Kernel.madvise_dontneed t.kernel t.proc ~va:lo ~len:(hi - lo))
        blocks)
    (S.free_lists t.heap);
  !released
