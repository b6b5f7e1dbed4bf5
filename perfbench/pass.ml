(* One measured pass of one benchmark workload, run in a fresh process so
   that its host-memory numbers do not depend on anything that ran
   before it.

     pass.exe --workload churn_fom|churn_malloc_large|store_ycsb --seed N
              [--trace 0|1]

   A pass generates its inputs from the seed, boots a machine and, for
   store_ycsb, preloads the store: that is its set-up. It then replays
   the inputs in a closed loop (one caller, one simulated core), checks
   the outputs, and prints one JSON object on stdout:

   - "host": what running the simulator cost (set-up time, loop wall
     time, the CPU time of each loop segment, GC words and collections,
     peak heap). Set-up and segment times are read off the process CPU
     clock: the pass is one thread, so CPU time is its wall time minus
     the time its host core was taken away from it, which is noise on a
     shared machine;
   - "virtual": everything read off the simulated clock and counters.
     It depends only on the seed, so every pass of one workload and seed
     prints the same "virtual" object, traced or not;
   - "layers" (--trace 1 only): per-layer numbers. The pass times its own
     calls into each layer's public functions and attaches the
     virtual-cycle profiler to the machine; it adds no spans inside the
     libraries;
   - "errors": failed output checks, empty when the pass is correct.

   Ops that raise a typed [Sim.Errno.Error] are counted as failed, not
   fatal. [--workload reference] instead times the reference job (see
   [reference]) and prints {"reference_cpu_s"}. *)

module K = Os.Kernel
module Kv = Store.Kv
module J = Sim.Json
module SMap = Map.Make (String)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* User plus system CPU seconds of this process, excluding steal time. *)
let cpu_s = Sys.time

(* --- samples and probes -------------------------------------------------- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create ?(capacity = 1024) () = { a = Array.make (max 1 capacity) 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0 in
    for i = 0 to t.n - 1 do
      s := !s + t.a.(i)
    done;
    !s

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    s

  (* Nearest-rank percentile [q] of sorted samples [s]; 0 without samples. *)
  let percentile s q =
    let n = Array.length s in
    if n = 0 then 0 else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

  (* Mean of the slowest [share] of sorted samples [s]: unlike a
     percentile of a stepped distribution, it moves with the whole tail. *)
  let tail_mean s share =
    let n = Array.length s in
    let k = max 1 (int_of_float (Float.ceil (share *. float_of_int n))) in
    if n = 0 then 0.0
    else begin
      let sum = ref 0 in
      for i = n - k to n - 1 do
        sum := !sum + s.(i)
      done;
      float_of_int !sum /. float_of_int k
    end
end

let traced = ref false

(* Calls into one layer function: host ns, virtual cycles and minor words
   per call, plus a work count (pages touched) the caller adds. *)
type probe = { ns : Samples.t; vc : Samples.t; mutable words : float; mutable units : int }

let probe () = { ns = Samples.create (); vc = Samples.create (); words = 0.0; units = 0 }

let call p clock f =
  if not !traced then f ()
  else begin
    let w0 = Gc.minor_words () in
    let c0 = Sim.Clock.now clock in
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    Samples.add p.ns (t1 - t0);
    Samples.add p.vc (Sim.Clock.now clock - c0);
    p.words <- p.words +. (Gc.minor_words () -. w0);
    r
  end

(* --- the timed loop ------------------------------------------------------- *)

exception Skipped
(* An op whose input came from an op that failed. *)

type loop = {
  ops : int;
  failed : int;
  vcycles : int;
  loop_ns : int;
  seg_cpu_s : float list;  (* CPU seconds of each segment, in order *)
  words : float;
  minor_gcs : int;
  major_gcs : int;
  opvc : Samples.t;  (* virtual cycles of every op that succeeded *)
  counters : (string * int) list;  (* Sim.Stats deltas *)
  prof : (string * int * int * int) list;  (* traced: profiler paths *)
}

(* The timed loop is cut into about [segments] runs of consecutive ops,
   each timed on the CPU clock. A pass does the same work in segment i
   every time, so the caller can take a low quantile of each segment's
   time over passes: the host's speed swings by up to 2x within
   seconds, and a per-segment quantile filters more of those swings
   than one of whole passes. *)
let segments = 100

(* Run [body op] as the timed loop on [k]. [op f] runs one workload op:
   it times it on the virtual clock and counts a typed failure. [body]
   returns the number of ops it ran, at most [ops]. *)
let timed_loop k ~ops body =
  let clock = K.clock k in
  let profile =
    if !traced then begin
      let p = Sim.Profile.create ~clock () in
      Sim.Trace.attach_profile (K.trace k) p;
      Some p
    end
    else None
  in
  let opvc = Samples.create ~capacity:ops () in
  let failed = ref 0 in
  let segment_ops = max 1 (ops / segments) and started = ref 0 and marks = ref [] in
  let op f =
    if !started > 0 && !started mod segment_ops = 0 then marks := cpu_s () :: !marks;
    incr started;
    let c0 = Sim.Clock.now clock in
    match f () with
    | () -> Samples.add opvc (Sim.Clock.now clock - c0)
    | exception (Sim.Errno.Error _ | Skipped) -> incr failed
  in
  let stats0 = Sim.Stats.snapshot (K.stats k) in
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let c0 = Sim.Clock.now clock in
  let t0 = now_ns () and cpu0 = cpu_s () in
  let ops = body op in
  let t1 = now_ns () and cpu1 = cpu_s () in
  let vcycles = Sim.Clock.now clock - c0 in
  let gc1 = Gc.quick_stat () in
  let rec durations prev = function [] -> [] | t :: rest -> (t -. prev) :: durations t rest in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  {
    ops;
    failed = !failed;
    vcycles;
    loop_ns = t1 - t0;
    seg_cpu_s = durations cpu0 (List.rev (cpu1 :: !marks));
    words = words gc1 -. words gc0;
    minor_gcs = gc1.minor_collections - gc0.minor_collections;
    major_gcs = gc1.major_collections - gc0.major_collections;
    opvc;
    counters = Sim.Stats.diff ~before:stats0 ~after:(Sim.Stats.snapshot (K.stats k));
    prof = (match profile with Some p -> Sim.Profile.flatten p | None -> []);
  }

(* --- workloads ------------------------------------------------------------ *)

type result = {
  setup_s : float;  (* CPU seconds *)
  loop : loop;
  errors : string list;
  probes : (string * probe) list;
  extra : (string * int) list;  (* workload-specific virtual numbers *)
  recover_ns : int;
}

let config ~dram ~nvm = { K.default_config with K.dram_bytes = dram; nvm_bytes = nvm }
let check_kernel k = List.map Os.Check.violation_to_string (Os.Check.run k)

(* churn_fom: sizes 64 B .. 64 KiB, so the live set (~0.5 MiB) stays well
   inside the TLB reach; the FOM heap maps whole arenas up front.
   churn_malloc_large: sizes up to 4 MiB (~20 MiB live, ~5x the TLB reach)
   on malloc over demand paging, so every touch faults and walks. *)
let churn backend ~seed =
  let t0 = cpu_s () in
  let steps, max_bytes =
    match backend with
    | `Fom -> (150_000, Sim.Units.kib 64)
    | `Malloc -> (6_000, Sim.Units.mib 4)
  in
  let trace = Wl.Churn.generate ~rng:(Sim.Rng.create ~seed) ~ops:steps ~max_bytes () in
  let page = Sim.Units.page_size in
  let k, malloc, free, touch, touch_layer, live_bytes, arena_count =
    match backend with
    | `Fom ->
      let k = K.create ~config:(config ~dram:(Sim.Units.mib 64) ~nvm:(Sim.Units.mib 256)) () in
      let fom = O1mem.Fom.create k () in
      let p = K.create_process k () in
      let h = Heap.Fom_heap.create fom p () in
      ( k,
        (fun bytes -> Heap.Fom_heap.malloc h ~bytes),
        Heap.Fom_heap.free h,
        (fun va len -> O1mem.Fom.access_range fom p ~va ~len ~write:true ~stride:page),
        "o1mem",
        (fun () -> Heap.Fom_heap.live_bytes h),
        fun () -> Heap.Fom_heap.arena_count h )
    | `Malloc ->
      let k = K.create ~config:(config ~dram:(Sim.Units.mib 96) ~nvm:(Sim.Units.mib 16)) () in
      let p = K.create_process k () in
      let h = Heap.Malloc_sim.create k p in
      ( k,
        (fun bytes -> Heap.Malloc_sim.malloc h ~bytes),
        Heap.Malloc_sim.free h,
        (fun va len -> K.access_range k p ~va ~len ~write:true ~stride:page),
        "os",
        (fun () -> Heap.Malloc_sim.live_bytes h),
        fun () -> Heap.Malloc_sim.arena_count h )
  in
  let setup_s = cpu_s () -. t0 in
  let clock = K.clock k in
  let pm = probe () and pf = probe () and pt = probe () in
  let loop =
    timed_loop k ~ops:(List.length trace) (fun op ->
        Wl.Churn.run trace
          {
            Wl.Churn.h_malloc =
              (fun ~bytes ->
                let va = ref (-1) in
                op (fun () -> va := call pm clock (fun () -> malloc bytes));
                !va);
            h_free =
              (fun va -> op (fun () -> if va < 0 then raise Skipped else call pf clock (fun () -> free va)));
            h_touch =
              (fun ~va ~bytes ->
                op (fun () ->
                    if va < 0 then raise Skipped;
                    let pages = call pt clock (fun () -> touch va (max 1 bytes)) in
                    pt.units <- pt.units + pages));
          })
  in
  let errors =
    (if loop.failed > 0 then [ Printf.sprintf "%d heap ops failed" loop.failed ] else [])
    @ (if live_bytes () <> 0 then [ Printf.sprintf "live_bytes %d after the last free" (live_bytes ()) ]
       else [])
    @ check_kernel k
  in
  {
    setup_s;
    loop;
    errors;
    probes = [ ("heap.malloc", pm); ("heap.free", pf); (touch_layer ^ ".access_range", pt) ];
    extra = [ ("arena_count", arena_count ()) ];
    recover_ns = 0;
  }

(* store_ycsb: YCSB-A-style mix over a preloaded store. *)
let ycsb_keys = 10_000
let ycsb_requests = 30_000
let ycsb_theta = 0.99

type request = Get of int | Update of (int * string) array

(* Zipf(theta) over ranks 0..n-1 from a cumulative-weight table, built
   once and binary-searched per draw. *)
let zipf_table ~n ~theta =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
    cdf.(i) <- !acc
  done;
  cdf

let zipf_draw rng cdf =
  let u = Sim.Rng.float rng *. cdf.(Array.length cdf - 1) in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let store_ycsb ~seed =
  let t0 = cpu_s () in
  let rng = Sim.Rng.create ~seed in
  let value () = String.make (80 + Sim.Rng.int rng 41) (Char.chr (Char.code 'a' + Sim.Rng.int rng 26)) in
  let keys = Array.init ycsb_keys (Printf.sprintf "user%05d") in
  let initial = Array.init ycsb_keys (fun _ -> value ()) in
  (* Scatter the popular ranks over the key space. *)
  let rank_to_key = Array.init ycsb_keys Fun.id in
  Sim.Rng.shuffle rng rank_to_key;
  let cdf = zipf_table ~n:ycsb_keys ~theta:ycsb_theta in
  let key () = rank_to_key.(zipf_draw rng cdf) in
  let requests =
    Array.init ycsb_requests (fun _ ->
        if Sim.Rng.bool rng then Get (key ())
        else
          Update
            (Array.init 4 (fun _ ->
                 let i = key () in
                 (i, value ()))))
  in
  let k = K.create ~config:(config ~dram:(Sim.Units.mib 64) ~nvm:(Sim.Units.mib 256)) () in
  let fom = O1mem.Fom.create k () in
  let st = Kv.create fom (K.create_process k ()) ~manifest_bytes:(Sim.Units.mib 1) ~name:"/ycsb" () in
  let mirror = ref SMap.empty in
  let batch = 64 in
  let i = ref 0 in
  while !i < ycsb_keys do
    ignore (Kv.begin_txn st);
    for j = !i to min ycsb_keys (!i + batch) - 1 do
      Kv.put st keys.(j) initial.(j);
      mirror := SMap.add keys.(j) initial.(j) !mirror
    done;
    Kv.commit st;
    i := !i + batch
  done;
  Kv.checkpoint st;
  let setup_s = cpu_s () -. t0 in
  let clock = K.clock k in
  let pg = probe () and pb = probe () and pp = probe () and pc = probe () in
  let mismatches = ref 0 and commits = ref 0 and value_bytes = ref 0 and wal_bytes = ref 0 in
  let update puts =
    ignore (call pb clock (fun () -> Kv.begin_txn st));
    Array.iter (fun (i, v) -> call pp clock (fun () -> Kv.put st keys.(i) v)) puts;
    let w0 = Kv.wal_used_bytes st and g0 = Kv.generation st in
    (try call pc clock (fun () -> Kv.commit st)
     with e ->
       if Kv.txn_live st then Kv.abort st;
       raise e);
    (* A checkpoint inside the commit cut the log before the commit's
       records landed. *)
    let w1 = Kv.wal_used_bytes st in
    wal_bytes := !wal_bytes + if Kv.generation st = g0 then w1 - w0 else w1;
    incr commits;
    Array.iter
      (fun (i, v) ->
        value_bytes := !value_bytes + String.length v;
        mirror := SMap.add keys.(i) v !mirror)
      puts
  in
  let loop =
    timed_loop k ~ops:ycsb_requests (fun op ->
        Array.iter
          (function
            | Get i ->
              op (fun () ->
                  let got = call pg clock (fun () -> Kv.get st keys.(i)) in
                  if got <> SMap.find_opt keys.(i) !mirror then incr mismatches)
            | Update puts -> op (fun () -> update puts))
          requests;
        Array.length requests)
  in
  (* Power fails with a transaction in flight; it must not survive. *)
  ignore (Kv.begin_txn st);
  Kv.put st keys.(rank_to_key.(0)) "uncommitted";
  let r0 = now_ns () in
  let report = O1mem.Persistence.crash_and_recover fom in
  let recover_ns = now_ns () - r0 in
  let readback =
    SMap.fold
      (fun key v bad -> if Kv.get st key = Some v then bad else bad + 1)
      !mirror 0
  in
  let errors =
    (if !mismatches > 0 then [ Printf.sprintf "%d gets disagreed with the mirror" !mismatches ]
     else [])
    @ List.map Os.Check.violation_to_string (Kv.verify st)
    @ (if Kv.keys st <> List.map fst (SMap.bindings !mirror) then
         [ "recovered key set differs from the committed keys" ]
       else [])
    @
    if readback > 0 then [ Printf.sprintf "%d keys lost their last committed value" readback ]
    else []
  in
  {
    setup_s;
    loop;
    errors;
    probes = [ ("store.get", pg); ("store.begin", pb); ("store.put", pp); ("store.commit", pc) ];
    extra =
      [
        ("arena_count", Kv.arena_count st);
        ("commits", !commits);
        ("value_bytes", !value_bytes);
        ("wal_bytes", !wal_bytes);
        ("recover_vcycles", report.O1mem.Persistence.recovery_cycles);
        ("recover_replayed", Kv.last_replayed st);
      ];
    recover_ns;
  }

(* --- reference job ---------------------------------------------------------- *)

(* A fixed job that shares no code with the simulator but does the same
   kind of host work: hash-table and map updates with small allocations.
   On a shared machine the speed of such memory-bound code drifts by up
   to 1.5x over minutes; run.py times this job between passes and scales
   host times by it. Returns its CPU seconds. *)
let reference () =
  let t0 = cpu_s () in
  let h = Hashtbl.create 16 and m = ref SMap.empty and st = ref 12345 in
  for i = 0 to 400_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let key = !st mod 150_000 in
    (match Hashtbl.find_opt h key with
    | Some (a, _) -> Hashtbl.replace h key (a + i, Bytes.create 64)
    | None -> Hashtbl.add h key (i, Bytes.create 64));
    if i land 7 = 0 then m := SMap.add (string_of_int key) i !m;
    if i land 3 = 0 then Hashtbl.remove h (key * 7 mod 150_000)
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h + SMap.cardinal !m));
  cpu_s () -. t0

(* --- report --------------------------------------------------------------- *)

let fdiv a b = if b = 0.0 then 0.0 else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

let virtual_json r =
  let l = r.loop in
  let s = Samples.sorted l.opvc in
  J.Obj
    ([
       ("ops", J.Int l.ops);
       ("failed", J.Int l.failed);
       ("vcycles", J.Int l.vcycles);
       ("op_vcycles_p50", J.Int (Samples.percentile s 0.5));
       ("op_vcycles_p99", J.Int (Samples.percentile s 0.99));
       ("op_vcycles_tail_mean", J.Float (Samples.tail_mean s 0.01));
       ("op_vcycles_samples", J.Int (Samples.count l.opvc));
     ]
    @ List.map (fun (n, v) -> (n, J.Int v)) r.extra
    @ [ ("counters", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) l.counters)) ])

let layers_json r =
  let l = r.loop in
  let ops = l.ops in
  let ctr name = try List.assoc name l.counters with Not_found -> 0 in
  let extra name = try List.assoc name r.extra with Not_found -> 0 in
  let per_op name = idiv (ctr name) ops in
  let opt_probe name = List.assoc_opt name r.probes in
  let pct name kind q =
    match opt_probe name with
    | None -> 0.0
    | Some p ->
      float_of_int (Samples.percentile (Samples.sorted (if kind = `Ns then p.ns else p.vc)) q)
  in
  let per_page name kind =
    match opt_probe name with
    | None -> 0.0
    | Some p -> idiv (Samples.sum (if kind = `Ns then p.ns else p.vc)) p.units
  in
  (* Self cycles of every profiler path that ends in span [name]. *)
  let prof_self name =
    List.fold_left
      (fun acc (path, _, self, _) ->
        let leaf =
          match String.rindex_opt path ';' with
          | Some i -> String.sub path (i + 1) (String.length path - i - 1)
          | None -> path
        in
        if leaf = name then acc + self else acc)
      0 l.prof
  in
  let child_ns = List.fold_left (fun acc (_, p) -> acc + Samples.sum p.ns) 0 r.probes in
  let heap_calls, heap_words =
    match (opt_probe "heap.malloc", opt_probe "heap.free") with
    | Some m, Some f -> (Samples.count m.ns + Samples.count f.ns, m.words +. f.words)
    | _ -> (0, 0.0)
  in
  let commits = extra "commits" in
  let f = float_of_int in
  J.Obj
    (List.map
       (fun (n, v) -> (n, J.Float v))
       [
         ("wl.driver.self_ns_per_op", idiv (l.loop_ns - child_ns) ops);
         ("heap.malloc.ns_p50", pct "heap.malloc" `Ns 0.5);
         ("heap.malloc.ns_p99", pct "heap.malloc" `Ns 0.99);
         ("heap.free.ns_p50", pct "heap.free" `Ns 0.5);
         ("heap.free.ns_p99", pct "heap.free" `Ns 0.99);
         ("heap.malloc.vcycles_p99", pct "heap.malloc" `Vc 0.99);
         ("heap.free.vcycles_p99", pct "heap.free" `Vc 0.99);
         ("heap.words_per_call", fdiv heap_words (f heap_calls));
         ("heap.arena_count", f (extra "arena_count"));
         ("os.access_range.ns_per_page", per_page "os.access_range" `Ns);
         ("os.access_range.vcycles_per_page", per_page "os.access_range" `Vc);
         ("os.page_fault_per_op", per_op "page_fault");
         ("os.syscall_per_op", per_op "syscall");
         ("prof.fault.vcycles_self_per_op", idiv (prof_self "fault") ops);
         ("o1mem.access_range.ns_per_page", per_page "o1mem.access_range" `Ns);
         ("o1mem.access_range.vcycles_per_page", per_page "o1mem.access_range" `Vc);
         ("o1mem.fom_alloc_per_op", per_op "fom_alloc");
         ("o1mem.fom_unmap_per_op", per_op "fom_unmap");
         ("o1mem.recover.ns", f r.recover_ns);
         ("o1mem.recover.replayed", f (extra "recover_replayed"));
         ("hw.tlb_miss_per_op", per_op "tlb_miss");
         ("hw.tlb_hit_ratio", idiv (ctr "tlb_hit") (ctr "tlb_hit" + ctr "tlb_miss"));
         ("hw.walk_refs_per_op", per_op "walk_refs");
         ("hw.pte_write_per_op", per_op "pte_write");
         ("hw.pt_node_alloc_per_op", per_op "pt_node_alloc");
         ("hw.tlb_shootdown_per_op", per_op "tlb_shootdown");
         ("prof.page_walk.vcycles_self_per_op", idiv (prof_self "page_walk") ops);
         ( "alloc.zero_cache_hit_ratio",
           idiv (ctr "zero_cache_hit") (ctr "zero_cache_hit" + ctr "zero_cache_miss") );
         ("alloc.buddy_split_per_op", per_op "buddy_split");
         ("prof.zero_cache_pop.vcycles_self_per_op", idiv (prof_self "zero_cache_pop") ops);
         ("physmem.bytes_zeroed_per_op", per_op "bytes_zeroed");
         ("physmem.clwb_per_commit", idiv (ctr "clwb") commits);
         ("physmem.sfence_per_commit", idiv (ctr "sfence") commits);
         ("fs.fs_extend_per_op", per_op "fs_extend");
         ("fs.wal_bytes_per_commit", idiv (extra "wal_bytes") commits);
         ("fs.write_amp", idiv (64 * ctr "clwb") (extra "value_bytes"));
         ("store.get.ns_p50", pct "store.get" `Ns 0.5);
         ("store.get.ns_p99", pct "store.get" `Ns 0.99);
         ("store.put.ns_p50", pct "store.put" `Ns 0.5);
         ("store.commit.ns_p50", pct "store.commit" `Ns 0.5);
         ("store.commit.ns_p99", pct "store.commit" `Ns 0.99);
         ("store.get.vcycles_p50", pct "store.get" `Vc 0.5);
         ("store.commit.vcycles_p50", pct "store.commit" `Vc 0.5);
         ("store.commit.vcycles_p99", pct "store.commit" `Vc 0.99);
         ("store.checkpoint_per_1k_commits", 1000.0 *. idiv (ctr "store_checkpoint") commits);
         ("store.commit_abort", f (ctr "store_commit_abort"));
         ("store.alloc_retry", f (ctr "store_alloc_retry"));
         ("failed_op_frac", idiv l.failed ops);
         ("recover_vcycles", f (extra "recover_vcycles"));
       ])

let host_json r =
  let l = r.loop in
  let kops = float_of_int l.ops /. 1000.0 in
  J.Obj
    [
      ("setup_s", J.Float r.setup_s);
      ("loop_s", J.Float (float_of_int l.loop_ns /. 1e9));
      ("seg_cpu_s", J.List (List.map (fun s -> J.Float s) l.seg_cpu_s));
      ("alloc_words_per_op", J.Float (l.words /. float_of_int l.ops));
      ( "peak_heap_mib",
        J.Float
          (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
          /. float_of_int (1 lsl 20)) );
      ("host.minor_gcs_per_kop", J.Float (float_of_int l.minor_gcs /. kops));
      ("host.major_gcs_per_kop", J.Float (float_of_int l.major_gcs /. kops));
    ]

let () =
  let workload = ref "" and seed = ref 1 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME churn_fom | churn_malloc_large | store_ycsb | reference (time the reference job)" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 time each layer call");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pass.exe --workload NAME --seed N [--trace 0|1]";
  if !workload = "reference" then begin
    print_endline (J.to_string (J.Obj [ ("reference_cpu_s", J.Float (reference ())) ]));
    exit 0
  end;
  let r =
    match !workload with
    | "churn_fom" -> churn `Fom ~seed:!seed
    | "churn_malloc_large" -> churn `Malloc ~seed:!seed
    | "store_ycsb" -> store_ycsb ~seed:!seed
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("workload", J.String !workload);
             ("seed", J.Int !seed);
             ("traced", J.Bool !traced);
             ("errors", J.List (List.map (fun e -> J.String e) r.errors));
             ("virtual", virtual_json r);
             ("host", host_json r);
           ]
          @ if !traced then [ ("layers", layers_json r) ] else [])))
