(* The metrics document that `o1mem_cli metrics` prints and `bench --json`
   extends: its schema and the paper's claims it carries (traced ops,
   complexity classes, cycle attribution, explorer and degradation
   verdicts, SMP and causal reconciliation), and the bench-diff gate over
   it, checked by planting regressions into a copy. *)

open Helpers
module J = Sim.Json

(* One document for the whole suite: building it takes about a second. *)
let doc = lazy (Experiments.Exp_metrics.run_to_json ())

let get path =
  List.fold_left
    (fun v k ->
      match J.member v k with
      | Some x -> x
      | None -> Alcotest.failf "metrics document lacks %s" (String.concat "." path))
    (Lazy.force doc) path

let wrong path what = Alcotest.failf "%s is not %s" (String.concat "." path) what
let int path = match get path with J.Int i -> i | _ -> wrong path "an int"
let num path =
  match get path with J.Int i -> float_of_int i | J.Float f -> f | _ -> wrong path "a number"
let bool path = match get path with J.Bool b -> b | _ -> wrong path "a bool"
let str path = match get path with J.String s -> s | _ -> wrong path "a string"
let fields path = match get path with J.Obj f -> f | _ -> wrong path "an object"

let check_class path allowed =
  let c = str (path @ [ "class" ]) in
  if not (List.mem c allowed) then
    Alcotest.failf "%s: class %s not in {%s}" (String.concat "." path) c
      (String.concat ", " allowed)

let sublinear = [ "O(1)"; "O(log n)" ]
let any_fit = [ "O(1)"; "O(log n)"; "O(n)" ]

(* A sweep must land in its allowed classes and say it met its expectation. *)
let check_sweep path allowed =
  check_class path allowed;
  check_bool (String.concat "." path ^ " met its expected class") true (bool (path @ [ "match" ]))

(* ----------------------------- schema ------------------------------ *)

let test_schema () =
  check_string "schema" "o1mem.metrics/9" (str [ "schema" ]);
  List.iter
    (fun k -> check_bool ("provenance has " ^ k) true (List.mem_assoc k (fields [ "provenance" ])))
    [ "cost_model"; "trace_capacity" ]

let test_traced_ops () =
  List.iter
    (fun op ->
      List.iter
        (fun field -> ignore (get [ "trace"; "ops"; op; field ]))
        [ "count"; "p50"; "p99"; "max" ])
    [ "tlb_lookup"; "page_walk"; "range_table_insert"; "fault"; "fs_create"; "fs_extend" ];
  (* The zeroed-frame cache must actually be exercised by the workload. *)
  check_bool "zero cache hit" true (int [ "stats"; "zero_cache_hit" ] > 0)

(* The paper's claim, machine-checked: FOM ops stay O(1)/O(log n), the
   per-page baseline is O(n), and the SMP shootdown sweeps scale as
   measured IPI traffic should. *)
let test_complexity_classes () =
  List.iter
    (fun (op, allowed) -> check_sweep [ "complexity"; op ] allowed)
    [
      ("mmap_fom_range", sublinear);
      ("mprotect_fom", sublinear);
      ("erase_device", sublinear);
      ("mmap_fom_graft", sublinear);
      ("mmap_baseline_per_page", [ "O(n)" ]);
      ("smp_shootdown_per_page_cores", [ "O(n)" ]);
      ("smp_shootdown_range_cores", [ "O(n)" ]);
      ("smp_batch_ipis_pages", [ "O(1)" ]);
      ("smp_fault_makespan_cores", [ "O(1)" ]);
    ]

(* The profiled churn run must name (nearly) every cycle: an unattributed
   remainder means a hot path lost its span. *)
let test_profile_attribution () =
  check_bool "profile attributes >= 95% of cycles" true
    (num [ "profile"; "profile"; "attributed_fraction" ] >= 0.95);
  check_bool "profile call tree is non-empty" true (fields [ "profile"; "profile"; "tree" ] <> []);
  List.iter (fun g -> ignore (get [ "profile"; "gauges"; g; "hwm" ])) [ "tlb_entries"; "wal_bytes" ]

(* R1/R2 robustness: the fault plane is free when off, the crash explorers
   visit every durable step cleanly with both store damage arms detected,
   the degradation plans never trip the invariant checker, and store
   recovery does not scale with the object count. *)
let test_explorer_verdicts () =
  check_bool "fault injection is free when off" true
    (bool [ "faults"; "overhead"; "zero_cost_when_off" ]);
  List.iter
    (fun exp ->
      let e k = int [ "faults"; "explorer"; exp; k ] in
      check_bool (exp ^ " explorer stepped") true (e "steps" > 0);
      check_int (exp ^ " explorer crashed at every step") (e "steps") (e "crashes");
      (* 5 durable boundaries per WAL append: blank-tail clwb, record clwb,
         sfence, marker clwb, sfence. *)
      check_int (exp ^ " explorer: 5 steps per 2 fences") (5 * e "fences") (2 * e "steps");
      check_int (exp ^ " explorer violations") 0 (e "violations"))
    [ "wal"; "fs" ];
  check_bool "fault plan injected" true (int [ "faults"; "degradation"; "injected" ] > 0);
  check_int "fault plan violations" 0 (int [ "faults"; "degradation"; "violations" ]);
  check_class [ "faults"; "recovery" ] any_fit;
  check_class [ "store"; "recovery_keys" ] sublinear;
  check_class [ "store"; "recovery_records" ] any_fit;
  check_int "store sweep violations" 0 (int [ "store"; "sweep_violations" ]);
  let se k = int [ "store"; "explorer"; k ] in
  check_bool "store explorer stepped" true (se "steps" > 0);
  check_int "store explorer violations" 0 (se "violations");
  check_bool "torn writes detected" true (se "torn_detections" >= 1);
  check_bool "bit flips detected" true (se "flip_detections" >= 1);
  let sd k = [ "store"; "degradation"; k ] in
  check_string "store plan" "store" (str (sd "plan"));
  check_bool "store plan injected" true (int (sd "injected") > 0);
  check_bool "store plan reached ENOSPC" true (int (sd "enospc") >= 1);
  check_int "store plan violations" 0 (int (sd "violations"))

(* S1/T1: shootdowns are measured IPI traffic whose per-core tallies sum
   to the machine totals, and the critical-path engine attributes (nearly)
   every makespan cycle to a named share. *)
let test_smp_causal () =
  let cores = int [ "smp"; "cores" ] in
  check_int "smp cores" 4 cores;
  check_int "smp numa nodes" 2 (int [ "smp"; "numa_nodes" ]);
  let sent = int [ "smp"; "ipi_sent" ] and acked = int [ "smp"; "ipi_acked" ] in
  check_bool "IPIs sent" true (sent > 0);
  check_int "every IPI acked" sent acked;
  check_int "one migration per core" cores (int [ "smp"; "migrations" ]);
  let per_core k = List.init cores (fun i -> int [ "smp"; Printf.sprintf "core%d" i; k ]) in
  check_int "per-core IPIs sent sum" sent (List.fold_left ( + ) 0 (per_core "ipi_sent"));
  check_int "per-core IPIs acked sum" acked (List.fold_left ( + ) 0 (per_core "ipi_acked"));
  check_bool "every core busy" true (List.for_all (fun c -> c > 0) (per_core "busy_cycles"));
  let c = [ "causal" ] in
  check_int "causal cores" 4 (int (c @ [ "cores" ]));
  check_int "causal numa nodes" 2 (int (c @ [ "numa_nodes" ]));
  check_bool "makespan measured" true (int (c @ [ "makespan_cycles" ]) > 0);
  check_bool "causal attributes >= 95% of makespan" true
    (num (c @ [ "attributed_fraction" ]) >= 0.95);
  check_bool "causal attribution gate" true (bool (c @ [ "attributed" ]));
  List.iter
    (fun (core, _) ->
      let b k = int (c @ [ "per_core"; core; k ]) in
      check_bool (core ^ " shares fit in busy") true
        (b "work" + b "ipi_wait" + b "sched" + b "numa_remote" <= b "busy"))
    (fields (c @ [ "per_core" ]));
  let mk = Printf.sprintf "core%d" (int (c @ [ "makespan_core" ])) in
  check_int "makespan core's busy is the makespan" (int (c @ [ "makespan_cycles" ]))
    (int (c @ [ "per_core"; mk; "busy" ]));
  check_bool "critical path has hops" true (int (c @ [ "critical_path"; "hops" ]) > 0);
  check_bool "IPI latency pairs recorded" true (fields (c @ [ "ipi_latency" ]) <> []);
  let traffic = c @ [ "numa_traffic" ] in
  check_bool "NUMA traffic recorded" true
    (List.fold_left (fun n (k, _) -> n + int (traffic @ [ k ])) 0 (fields traffic) > 0);
  check_sweep (c @ [ "sweeps"; "critical_path_per_page_hops" ]) [ "O(n)" ];
  check_sweep (c @ [ "sweeps"; "critical_path_batched_hops" ]) [ "O(1)" ]

(* ----------------------- planted regressions ------------------------ *)

let rec plant path v d =
  match (path, d) with
  | [], _ -> v
  | k :: ks, J.Obj fs when List.mem_assoc k fs ->
    J.Obj (List.map (fun (k', x) -> if k' = k then (k', plant ks v x) else (k', x)) fs)
  | k :: _, _ -> Alcotest.failf "cannot plant under %s" k

(* The names of the cases whose verdict is not [gates]; each case plants
   its values into a copy of the document and diffs it against the
   original. A case that moves nothing would pass vacuously, so it fails. *)
let misjudged ~gates cases =
  let base = Lazy.force doc in
  List.filter_map
    (fun (name, plants) ->
      let planted = List.fold_left (fun d (path, v) -> plant path v d) base plants in
      match Sim.Regress.compare_docs ~old_doc:base ~new_doc:planted () with
      | Error e -> Some (name ^ ": " ^ e)
      | Ok r when r.Sim.Regress.deltas = [] -> Some (name ^ ": no delta")
      | Ok r -> if Sim.Regress.regressions r <> [] = gates then None else Some name)
    cases

let test_planted_regressions_gate () =
  Alcotest.(check (list string))
    "planted regressions that did not gate" []
    (misjudged ~gates:true
       [
         ("causal attribution halved", [ ([ "causal"; "attributed_fraction" ], J.Float 0.5) ]);
         ( "profile attribution at 10%",
           [ ([ "profile"; "profile"; "attributed_fraction" ], J.Float 0.1) ] );
         ("no bit flips detected", [ ([ "store"; "explorer"; "flip_detections" ], J.Int 0) ]);
         ("no torn writes detected", [ ([ "store"; "explorer"; "torn_detections" ], J.Int 0) ]);
         ("zero cache never hit", [ ([ "stats"; "zero_cache_hit" ], J.Int 0) ]);
         ( "store recovery went linear",
           [ ([ "store"; "recovery_keys"; "class" ], J.String "O(n)") ] );
       ])

let test_planted_changes_pass () =
  let steps = [ "faults"; "explorer"; "wal"; "steps" ] in
  let flips = [ "store"; "explorer"; "flip_detections" ] in
  let keys = [ "store"; "recovery_keys" ] in
  Alcotest.(check (list string))
    "planted non-regressions that gated" []
    (misjudged ~gates:false
       [
         ("WAL explorer covers twice the steps", [ (steps, J.Int (2 * int steps)) ]);
         ( "better fit, same class",
           [
             (keys @ [ "r2" ], J.Float 0.9);
             (keys @ [ "exponent" ], J.Float (1.2 *. num (keys @ [ "exponent" ])));
           ] );
         ("more bit flips detected", [ (flips, J.Int (int flips + 2)) ]);
       ])

let suite =
  [
    Alcotest.test_case "schema and provenance" `Quick test_schema;
    Alcotest.test_case "traced ops and zero_cache_hit" `Quick test_traced_ops;
    Alcotest.test_case "complexity classes and match" `Quick test_complexity_classes;
    Alcotest.test_case "profile attribution and gauges" `Quick test_profile_attribution;
    Alcotest.test_case "explorer and degradation verdicts" `Quick test_explorer_verdicts;
    Alcotest.test_case "smp and causal reconciliation" `Quick test_smp_causal;
    Alcotest.test_case "bench-diff: planted regressions gate" `Quick test_planted_regressions_gate;
    Alcotest.test_case "bench-diff: planted changes pass" `Quick test_planted_changes_pass;
  ]
