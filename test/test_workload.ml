open Helpers

let test_sweeps () =
  check_int "size sweep spans 4..1024 KB" 9 (List.length (Wl.Workload.size_sweep_kb ()));
  check_int "page sweep ends at 16k" 16384
    (List.nth (Wl.Workload.page_sweep ()) (List.length (Wl.Workload.page_sweep ()) - 1))

let test_patterns () =
  let rng = Sim.Rng.create ~seed:1 in
  let offs = Wl.Workload.offsets ~rng Wl.Workload.One_byte_per_page ~len:(Sim.Units.kib 16) in
  Alcotest.(check (list int)) "one per page" [ 0; 4096; 8192; 12288 ] offs;
  let offs = Wl.Workload.offsets ~rng (Wl.Workload.Random_pages 100) ~len:(Sim.Units.kib 16) in
  check_int "count honoured" 100 (List.length offs);
  check_bool "in range" true (List.for_all (fun o -> o >= 0 && o < Sim.Units.kib 16) offs);
  let seq = Wl.Workload.offsets ~rng Wl.Workload.Sequential ~len:256 in
  Alcotest.(check (list int)) "sequential is line-strided" [ 0; 64; 128; 192 ] seq

let test_touch_with_counts () =
  let rng = Sim.Rng.create ~seed:2 in
  let touched = ref [] in
  let n =
    Wl.Workload.touch_with
      ~access:(fun ~va ~write -> ignore write; touched := va :: !touched)
      ~base:1000 ~rng Wl.Workload.One_byte_per_page ~len:(Sim.Units.kib 8) ~write:false
  in
  check_int "two pages" 2 n;
  Alcotest.(check (list int)) "bases applied" [ 1000; 1000 + 4096 ] (List.rev !touched)

let test_churn_trace_well_formed () =
  let rng = Sim.Rng.create ~seed:3 in
  let trace = Wl.Churn.generate ~rng ~ops:200 () in
  let live = Hashtbl.create 64 in
  let allocs = ref 0 and frees = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Wl.Churn.Alloc { id; bytes } ->
        check_bool "positive size" true (bytes > 0);
        check_bool "fresh id" false (Hashtbl.mem live id);
        Hashtbl.replace live id ();
        incr allocs
      | Wl.Churn.Touch { id } -> check_bool "touch live" true (Hashtbl.mem live id)
      | Wl.Churn.Free { id } ->
        check_bool "free live" true (Hashtbl.mem live id);
        Hashtbl.remove live id;
        incr frees)
    trace;
  check_int "200 allocations" 200 !allocs;
  check_int "every allocation freed" 200 !frees;
  check_int "nothing left live" 0 (Hashtbl.length live)

(* The generator [Wl.Churn.generate] replaced: it merged each new free
   into a sorted list of pending frees and partitioned that list at
   every step. The bucketed generator must emit the same op list. *)
let list_merge_generate ~rng ~ops ~max_bytes =
  let min_bytes = 64 and mean_lifetime = 50 in
  let lg_min = log (float_of_int min_bytes) and lg_max = log (float_of_int max_bytes) in
  let ops_out = ref [] in
  let pending = ref [] in
  for step = 0 to ops - 1 do
    let due, rest = List.partition (fun (d, _) -> d <= step) !pending in
    pending := rest;
    List.iter (fun (_, id) -> ops_out := Wl.Churn.Free { id } :: !ops_out) due;
    let bytes = int_of_float (exp (lg_min +. (Sim.Rng.float rng *. (lg_max -. lg_min)))) in
    ops_out := Wl.Churn.Alloc { id = step; bytes = max min_bytes bytes } :: !ops_out;
    ops_out := Wl.Churn.Touch { id = step } :: !ops_out;
    let life = 1 + int_of_float (Sim.Rng.exponential rng ~mean:(float_of_int mean_lifetime)) in
    pending := List.merge compare !pending [ (step + life, step) ]
  done;
  List.iter (fun (_, id) -> ops_out := Wl.Churn.Free { id } :: !ops_out) !pending;
  List.rev !ops_out

let same_as_list_merge (seed, ops, max_bytes) =
  Wl.Churn.generate ~rng:(Sim.Rng.create ~seed) ~ops ~max_bytes ()
  = list_merge_generate ~rng:(Sim.Rng.create ~seed) ~ops ~max_bytes

let test_churn_matches_list_merge () =
  List.iter
    (fun ((seed, ops, max_bytes) as case) ->
      check_bool (Printf.sprintf "seed %d, %d ops, max %d B" seed ops max_bytes) true
        (same_as_list_merge case))
    [
      (1, 6_000, Sim.Units.mib 4);
      (2, 5_000, Sim.Units.mib 4);
      (42, 400, Sim.Units.mib 4);
      (7, 1, Sim.Units.kib 4);
      (3, 0, Sim.Units.kib 4);
    ]

let prop_churn_matches_list_merge =
  qtest ~count:50 "churn: bucketed generator matches the list merge"
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 0 1_000) (map (fun k -> 1 lsl k) (int_range 7 22)))
    same_as_list_merge

let test_churn_runs_on_both_heaps () =
  let rng = Sim.Rng.create ~seed:4 in
  let trace = Wl.Churn.generate ~rng ~ops:50 ~max_bytes:(Sim.Units.kib 64) () in
  (* Baseline heap. *)
  let k = mk_kernel () in
  let p = Os.Kernel.create_process k () in
  let mh = Heap.Malloc_sim.create k p in
  let driver_baseline =
    {
      Wl.Churn.h_malloc = (fun ~bytes -> Heap.Malloc_sim.malloc mh ~bytes);
      h_free = (fun va -> Heap.Malloc_sim.free mh va);
      h_touch =
        (fun ~va ~bytes ->
          ignore (Os.Kernel.access_range k p ~va ~len:(max 1 bytes) ~write:true ~stride:Sim.Units.page_size));
    }
  in
  let n1 = Wl.Churn.run trace driver_baseline in
  (* FOM heap. *)
  let kernel, fom = mk_fom () in
  let proc = Os.Kernel.create_process kernel () in
  let fh = Heap.Fom_heap.create fom proc () in
  let driver_fom =
    {
      Wl.Churn.h_malloc = (fun ~bytes -> Heap.Fom_heap.malloc fh ~bytes);
      h_free = (fun va -> Heap.Fom_heap.free fh va);
      h_touch =
        (fun ~va ~bytes ->
          ignore
            (O1mem.Fom.access_range fom proc ~va ~len:(max 1 bytes) ~write:true
               ~stride:Sim.Units.page_size));
    }
  in
  let n2 = Wl.Churn.run trace driver_fom in
  check_int "same op count on both backends" n1 n2;
  check_int "fom heap ends empty" 0 (Heap.Fom_heap.live_bytes fh);
  check_int "baseline heap ends empty" 0 (Heap.Malloc_sim.live_bytes mh)

let test_fs_study_matches_agrawal () =
  let rng = Sim.Rng.create ~seed:5 in
  let r = Wl.Fs_study.run ~rng Wl.Fs_study.default_params in
  check_bool "samples collected" true (r.Wl.Fs_study.samples > 1000);
  (* The paper's §2 claim: mean and median utilization below 50%. *)
  check_bool "mean below 50%" true (r.Wl.Fs_study.mean_utilization < 0.5);
  check_bool "median below 50%" true (r.Wl.Fs_study.median_utilization < 0.5);
  check_bool "most samples below half" true (r.Wl.Fs_study.fraction_below_half > 0.5);
  check_bool "utilization positive" true (r.Wl.Fs_study.mean_utilization > 0.05)

let test_fs_study_deterministic () =
  let run seed =
    Wl.Fs_study.run ~rng:(Sim.Rng.create ~seed) Wl.Fs_study.default_params
  in
  let a = run 9 and b = run 9 in
  Alcotest.(check (float 1e-12)) "same seed, same mean" a.Wl.Fs_study.mean_utilization
    b.Wl.Fs_study.mean_utilization

let test_scenario_desktop_mix_well_formed () =
  let apps = Wl.Scenario.desktop_mix ~rng:(Sim.Rng.create ~seed:1) ~apps:3 ~steps:50 in
  check_int "three apps" 3 (List.length apps);
  List.iter
    (fun (a : Wl.Scenario.app) ->
      (* Every alloc is eventually freed; frees target live slots. *)
      let live = Hashtbl.create 8 in
      List.iter
        (fun op ->
          match op with
          | Wl.Scenario.Alloc { slot; bytes } ->
            check_bool "positive" true (bytes > 0);
            Hashtbl.replace live slot ()
          | Wl.Scenario.Free slot ->
            check_bool "free live slot" true (Hashtbl.mem live slot);
            Hashtbl.remove live slot
          | Wl.Scenario.Touch { slot; _ } -> check_bool "touch live" true (Hashtbl.mem live slot)
          | Wl.Scenario.Compute c -> check_bool "compute positive" true (c > 0))
        a.Wl.Scenario.script;
      check_int "script drains" 0 (Hashtbl.length live))
    apps

let test_scenario_runs_both_backends () =
  let apps () = Wl.Scenario.desktop_mix ~rng:(Sim.Rng.create ~seed:2) ~apps:3 ~steps:60 in
  let k = mk_kernel () in
  let r_base =
    Wl.Scenario.run k ~backend:Wl.Scenario.Baseline ~asids:true ~quantum:4 (apps ())
  in
  check_bool "baseline faulted" true (r_base.Wl.Scenario.faults > 0);
  check_bool "switched" true (r_base.Wl.Scenario.switches > 0);
  check_int "all processes exited" 0 (Os.Kernel.process_count k);
  let k2 = mk_kernel () in
  let fom = O1mem.Fom.create k2 () in
  let r_fom = Wl.Scenario.run k2 ~fom ~backend:Wl.Scenario.Fom ~asids:true ~quantum:4 (apps ()) in
  check_int "FOM never faults" 0 r_fom.Wl.Scenario.faults;
  check_bool "FOM finishes sooner" true (r_fom.Wl.Scenario.sim_us < r_base.Wl.Scenario.sim_us);
  (* All FOM space returned. *)
  check_int "space clean" 0 (Fs.Memfs.used_bytes (O1mem.Fom.fs fom))

let test_scenario_asids_cheaper () =
  let apps () = Wl.Scenario.desktop_mix ~rng:(Sim.Rng.create ~seed:3) ~apps:4 ~steps:60 in
  let run asids =
    let k = mk_kernel () in
    (Wl.Scenario.run k ~backend:Wl.Scenario.Baseline ~asids ~quantum:4 (apps ())).Wl.Scenario.sim_us
  in
  check_bool "ASIDs never slower" true (run true <= run false)

let suite =
  [
    Alcotest.test_case "sweeps" `Quick test_sweeps;
    Alcotest.test_case "access patterns" `Quick test_patterns;
    Alcotest.test_case "touch_with drives accessor" `Quick test_touch_with_counts;
    Alcotest.test_case "churn: trace well-formed" `Quick test_churn_trace_well_formed;
    Alcotest.test_case "churn: same ops as the list-merge generator" `Quick test_churn_matches_list_merge;
    prop_churn_matches_list_merge;
    Alcotest.test_case "churn: replays on both heaps" `Quick test_churn_runs_on_both_heaps;
    Alcotest.test_case "fs study: utilization under 50% (Agrawal)" `Quick test_fs_study_matches_agrawal;
    Alcotest.test_case "fs study: deterministic" `Quick test_fs_study_deterministic;
    Alcotest.test_case "scenario: desktop mix well-formed" `Quick
      test_scenario_desktop_mix_well_formed;
    Alcotest.test_case "scenario: baseline vs FOM" `Quick test_scenario_runs_both_backends;
    Alcotest.test_case "scenario: ASIDs never slower" `Quick test_scenario_asids_cheaper;
  ]
