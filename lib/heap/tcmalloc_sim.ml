module S = Size_class

let threads = 4
let batch = 32
let span_bytes = Sim.Units.kib 64

(* The engine's free lists are the central lists; caches.(thread).(class)
   sit in front of them. *)
type t = {
  kernel : Os.Kernel.t;
  heap : (int * int) S.t;
  caches : int list array array;
  mutable cached : int;
  mutable refills : int;
}

let create kernel proc =
  let heap = S.create (Malloc_sim.anon kernel proc ~name:"Tcmalloc_sim") in
  let caches = Array.init threads (fun _ -> Array.make S.classes []) in
  { kernel; heap; caches; cached = 0; refills = 0 }

let charge t c = Sim.Clock.charge (Os.Kernel.clock t.kernel) c

(* Take [n] blocks of class [k] off its central list, carving a span
   into the list whenever it runs dry. *)
let rec take_central t k n acc =
  let central = S.free_lists t.heap in
  match central.(k) with
  | _ when n = 0 -> acc
  | [] ->
    let size = S.class_size k in
    let span = max span_bytes size in
    let base = S.carve t.heap span in
    for i = (span / size) - 1 downto 0 do
      central.(k) <- (base + (i * size)) :: central.(k)
    done;
    t.cached <- t.cached + span;
    take_central t k n acc
  | va :: rest ->
    central.(k) <- rest;
    take_central t k (n - 1) (va :: acc)

(* The first [n] blocks of [l] go onto [central] in order; the rest stay. *)
let rec give_back n l central =
  match l with
  | va :: rest when n > 0 ->
    let keep, central = give_back (n - 1) rest central in
    (keep, va :: central)
  | _ -> (l, central)

let check_thread thread =
  if thread < 0 || thread >= threads then invalid_arg "Tcmalloc_sim: bad thread id"

let malloc t ~thread ~bytes =
  check_thread thread;
  if bytes <= 0 || bytes >= S.large_threshold then S.malloc t.heap ~bytes
  else begin
    let k = S.class_of bytes and cache = t.caches.(thread) in
    charge t Sim.Cost_model.tcmalloc_thread_cache_op;
    if cache.(k) = [] then begin
      (* Miss: batch refill under the central lock. *)
      charge t Sim.Cost_model.tcmalloc_central_lock;
      t.refills <- t.refills + 1;
      cache.(k) <- take_central t k batch []
    end;
    let va = List.hd cache.(k) in
    cache.(k) <- List.tl cache.(k);
    S.track t.heap va (S.class_size k);
    t.cached <- t.cached - S.class_size k;
    va
  end

let free t ~thread va =
  check_thread thread;
  if S.is_large t.heap va then S.free t.heap va
  else begin
    let size = S.untrack t.heap va in
    let k = S.class_of size and cache = t.caches.(thread) in
    charge t Sim.Cost_model.tcmalloc_thread_cache_op;
    cache.(k) <- va :: cache.(k);
    t.cached <- t.cached + size;
    (* Overfull thread cache: release a batch to the central list. *)
    if List.compare_length_with cache.(k) (2 * batch) > 0 then begin
      charge t Sim.Cost_model.tcmalloc_central_lock;
      let central = S.free_lists t.heap in
      let keep, back = give_back batch cache.(k) central.(k) in
      cache.(k) <- keep;
      central.(k) <- back
    end
  end

let size_of t va = S.size_of t.heap va
let live_bytes t = S.live_bytes t.heap
let footprint_bytes t = S.footprint_bytes t.heap
let cached_bytes t = t.cached
let central_refills t = t.refills
