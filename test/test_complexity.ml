(* Complexity fitting (Sim.Complexity) and the bench regression gate
   (Sim.Regress): fits on synthetic series with known scaling, plus
   document comparison including the failure modes the CLI gate relies
   on (threshold breaches, class downgrades, incompatible provenance). *)

open Helpers

module C = Sim.Complexity
module R = Sim.Regress

let check_float = Alcotest.(check (float 1e-6))

(* ----------------------------- least squares ----------------------------- *)

let test_lsq_exact_line () =
  let { C.slope; intercept; r2 } = C.least_squares [ (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) ] in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept;
  check_float "r2 of exact fit" 1.0 r2

let test_lsq_flat_line () =
  (* All y equal: zero slope fits exactly, so r2 is reported as 1. *)
  let { C.slope; r2; _ } = C.least_squares [ (1.0, 4.0); (2.0, 4.0); (10.0, 4.0) ] in
  check_float "slope" 0.0 slope;
  check_float "r2" 1.0 r2

let test_lsq_rejects_degenerate () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Complexity.least_squares: need at least two points") (fun () ->
      ignore (C.least_squares [ (1.0, 1.0) ]));
  Alcotest.check_raises "all x equal"
    (Invalid_argument "Complexity.least_squares: all x coincide") (fun () ->
      ignore (C.least_squares [ (2.0, 1.0); (2.0, 5.0) ]))

(* ------------------------------ fit + classify ------------------------------ *)

let sizes = List.init 10 (fun i -> 1 lsl (2 * i + 2)) (* 4 .. 2^20, geometric *)

let test_fit_constant () =
  let f = C.fit (List.map (fun n -> (n, 700)) sizes) in
  check_string "class" "O(1)" (C.cls_name f.C.cls);
  check_float "exponent" 0.0 f.C.exponent;
  check_float "growth" 1.0 f.C.growth

let test_fit_logarithmic () =
  let f = C.fit (List.map (fun n -> (n, 50 * Sim.Units.log2_ceil n)) sizes) in
  check_string "class" "O(log n)" (C.cls_name f.C.cls);
  check_bool "exponent well below linear" true (f.C.exponent < 0.4);
  check_bool "but material growth" true (f.C.growth > 2.0)

let test_fit_linear () =
  let f = C.fit (List.map (fun n -> (n, 3 * n)) sizes) in
  check_string "class" "O(n)" (C.cls_name f.C.cls);
  Alcotest.(check (float 0.01)) "exponent ~1" 1.0 f.C.exponent;
  Alcotest.(check (float 0.01)) "r2 ~1" 1.0 f.C.r2

let test_fit_quadratic () =
  let f = C.fit (List.map (fun n -> (n, n * n)) (List.filteri (fun i _ -> i < 8) sizes)) in
  check_string "class" "O(n^2+)" (C.cls_name f.C.cls);
  Alcotest.(check (float 0.01)) "exponent ~2" 2.0 f.C.exponent

let test_fit_clamps_free_ops () =
  (* Zero-cost operations are clamped to 1 cycle, not log(0). *)
  let f = C.fit (List.map (fun n -> (n, 0)) sizes) in
  check_string "free op is O(1)" "O(1)" (C.cls_name f.C.cls)

let test_classify_thresholds () =
  check_string "1.4 is superlinear" "O(n^2+)" (C.cls_name (C.classify ~exponent:1.4 ~growth:1e6));
  check_string "0.6 is linear" "O(n)" (C.cls_name (C.classify ~exponent:0.6 ~growth:100.0));
  check_string "flat + growth is log" "O(log n)"
    (C.cls_name (C.classify ~exponent:0.1 ~growth:2.5));
  check_string "flat + no growth is constant" "O(1)"
    (C.cls_name (C.classify ~exponent:0.1 ~growth:1.5))

let test_cls_names_round_trip () =
  List.iter
    (fun c ->
      match C.cls_of_name (C.cls_name c) with
      | Some c' -> check_int "round trip" (C.rank c) (C.rank c')
      | None -> Alcotest.fail "cls_of_name rejected its own cls_name")
    [ C.Constant; C.Logarithmic; C.Linear; C.Superlinear ];
  check_bool "unknown name" true (C.cls_of_name "O(n log n)" = None);
  check_bool "rank order" true
    (C.rank C.Constant < C.rank C.Logarithmic
    && C.rank C.Logarithmic < C.rank C.Linear
    && C.rank C.Linear < C.rank C.Superlinear)

let test_fit_to_json () =
  let f = C.fit (List.map (fun n -> (n, 2 * n)) sizes) in
  let j = C.fit_to_json f in
  check_bool "class member" true (Sim.Json.member j "class" = Some (Sim.Json.String "O(n)"));
  List.iter
    (fun k -> check_bool k true (Sim.Json.member j k <> None))
    [ "exponent"; "r2"; "growth" ]

(* ------------------------------- regression gate ------------------------------- *)

(* A minimal metrics document in the o1mem.metrics/3 shape. *)
let doc ?(schema = "o1mem.metrics/3") ?(capacity = 1024) ?(clock = 100_000) ?(counters = [])
    ?(ops = []) ?(complexity = []) () =
  Sim.Json.Obj
    [
      ("schema", Sim.Json.String schema);
      ( "provenance",
        Sim.Json.Obj
          [
            ("cost_model", Sim.Cost_model.to_json ());
            ("trace_capacity", Sim.Json.Int capacity);
          ] );
      ("clock_cycles", Sim.Json.Int clock);
      ("stats", Sim.Json.Obj (List.map (fun (k, v) -> (k, Sim.Json.Int v)) counters));
      ( "trace",
        Sim.Json.Obj
          [
            ( "ops",
              Sim.Json.Obj
                (List.map
                   (fun (name, p50, p99) ->
                     (name, Sim.Json.Obj [ ("p50", Sim.Json.Int p50); ("p99", Sim.Json.Int p99) ]))
                   ops) );
          ] );
      ( "complexity",
        Sim.Json.Obj
          (List.map
             (fun (name, cls, e) ->
               ( name,
                 Sim.Json.Obj
                   [ ("class", Sim.Json.String cls); ("exponent", Sim.Json.Float e) ] ))
             complexity) );
    ]

let compare_ok ?threshold_pct old_doc new_doc =
  match R.compare_docs ?threshold_pct ~old_doc ~new_doc () with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected incompatibility: %s" e

let test_regress_self_compare_empty () =
  let d =
    doc ~counters:[ ("tlb.hit", 42) ] ~ops:[ ("mmap", 10, 20) ]
      ~complexity:[ ("mmap_fom", "O(1)", 0.01) ]
      ()
  in
  let r = compare_ok d d in
  check_bool "no deltas" true (r.R.deltas = []);
  check_bool "nothing compared is nonzero" true (r.R.compared > 0);
  check_bool "no regressions" true (R.regressions r = []);
  check_bool "render says no differences" true
    (contains ~needle:"no differences" (R.render r))

let test_regress_threshold () =
  let old_doc = doc ~counters:[ ("walk.refs", 1000) ] () in
  (* +5% on a 10% threshold: reported as Within, gate passes. *)
  let r5 = compare_ok old_doc (doc ~counters:[ ("walk.refs", 1050) ] ()) in
  check_int "one delta" 1 (List.length r5.R.deltas);
  check_bool "within threshold" true ((List.hd r5.R.deltas).R.status = R.Within);
  check_bool "gate passes" true (R.regressions r5 = []);
  (* +20%: Regressed, gate fails. *)
  let r20 = compare_ok old_doc (doc ~counters:[ ("walk.refs", 1200) ] ()) in
  check_bool "regressed" true ((List.hd r20.R.deltas).R.status = R.Regressed);
  check_int "gate fails" 1 (List.length (R.regressions r20));
  (* Same +20% under a 25% threshold: passes again. *)
  let loose = compare_ok ~threshold_pct:25.0 old_doc (doc ~counters:[ ("walk.refs", 1200) ] ()) in
  check_bool "loose threshold passes" true (R.regressions loose = []);
  (* -20%: Improved, not a regression. *)
  let better = compare_ok old_doc (doc ~counters:[ ("walk.refs", 800) ] ()) in
  check_bool "improved" true ((List.hd better.R.deltas).R.status = R.Improved);
  check_bool "improvement passes" true (R.regressions better = [])

let test_regress_added_removed () =
  let r =
    compare_ok
      (doc ~counters:[ ("gone", 7) ] ~complexity:[ ("old_op", "O(1)", 0.01) ] ())
      (doc ~counters:[ ("fresh", 9) ] ~complexity:[ ("new_op", "O(n)", 1.0) ] ())
  in
  let statuses = List.map (fun d -> (d.R.key, d.R.status)) r.R.deltas in
  check_bool "removed" true (List.mem ("gone", R.Removed) statuses);
  check_bool "added" true (List.mem ("fresh", R.Added) statuses);
  (* An object on one side only is one row carrying its leaf count. *)
  let rows key = List.filter (fun d -> d.R.key = key) r.R.deltas in
  (match (rows "old_op", rows "new_op") with
  | [ gone ], [ fresh ] ->
    check_bool "removed object" true (gone.R.status = R.Removed && gone.R.section = "complexity");
    check_string "removed object shows its leaf count" "2 leaves" gone.R.old_v;
    check_bool "added object" true (fresh.R.status = R.Added && fresh.R.new_v = "2 leaves")
  | _ -> Alcotest.fail "expected one row per one-sided object");
  check_bool "one-sided metrics do not fail the gate" true (R.regressions r = [])

let test_regress_class_downgrade () =
  let old_doc = doc ~complexity:[ ("mmap_fom", "O(1)", 0.01) ] () in
  let r = compare_ok old_doc (doc ~complexity:[ ("mmap_fom", "O(n)", 0.97) ] ()) in
  check_bool "downgrade detected" true
    (List.exists (fun d -> d.R.status = R.Downgraded) r.R.deltas);
  check_bool "downgrade fails the gate" true (R.regressions r <> []);
  (* The reverse direction is an upgrade and passes. *)
  let up = compare_ok (doc ~complexity:[ ("mmap_fom", "O(n)", 0.97) ] ()) old_doc in
  check_bool "upgrade detected" true (List.exists (fun d -> d.R.status = R.Upgraded) up.R.deltas);
  check_bool "upgrade passes" true (R.regressions up = []);
  (* Unknown class names fail safe: treated as a downgrade. *)
  let odd = compare_ok old_doc (doc ~complexity:[ ("mmap_fom", "O(?)", 0.5) ] ()) in
  check_bool "unknown class fails safe" true (R.regressions odd <> [])

let test_regress_exponent_informational () =
  let r =
    compare_ok
      (doc ~complexity:[ ("graft", "O(log n)", 0.18) ] ())
      (doc ~complexity:[ ("graft", "O(log n)", 0.21) ] ())
  in
  check_bool "exponent drift reported" true
    (List.exists (fun d -> d.R.section = "complexity.graft" && d.R.key = "exponent") r.R.deltas);
  check_bool "but never fails the gate" true (R.regressions r = [])

let test_regress_incompatible () =
  let fails old_doc new_doc =
    match R.compare_docs ~old_doc ~new_doc () with Ok _ -> false | Error _ -> true
  in
  let base = doc () in
  check_bool "schema mismatch" true (fails base (doc ~schema:"o1mem.metrics/1" ()));
  check_bool "missing schema" true (fails base (Sim.Json.Obj [ ("clock_cycles", Sim.Json.Int 1) ]));
  check_bool "provenance mismatch" true (fails base (doc ~capacity:2048 ()));
  check_bool "provenance missing on one side" true
    (fails base
       (Sim.Json.Obj [ ("schema", Sim.Json.String "o1mem.metrics/3"); ("clock_cycles", Sim.Json.Int 1) ]));
  check_bool "self compare still fine" true (not (fails base (doc ())))

let test_regress_render_table () =
  let r = compare_ok (doc ~counters:[ ("c", 100) ] ()) (doc ~counters:[ ("c", 200) ] ()) in
  let s = R.render r in
  check_bool "table names metric" true (contains ~needle:"c" s);
  check_bool "percent delta shown" true (contains ~needle:"+100.0%" s);
  check_bool "verdict counts regressions" true (contains ~needle:"1 regression" s)

let suite =
  [
    Alcotest.test_case "lsq: exact line" `Quick test_lsq_exact_line;
    Alcotest.test_case "lsq: flat line has r2=1" `Quick test_lsq_flat_line;
    Alcotest.test_case "lsq: degenerate inputs rejected" `Quick test_lsq_rejects_degenerate;
    Alcotest.test_case "fit: constant series" `Quick test_fit_constant;
    Alcotest.test_case "fit: logarithmic series" `Quick test_fit_logarithmic;
    Alcotest.test_case "fit: linear series" `Quick test_fit_linear;
    Alcotest.test_case "fit: quadratic series" `Quick test_fit_quadratic;
    Alcotest.test_case "fit: zero-cost ops clamp to O(1)" `Quick test_fit_clamps_free_ops;
    Alcotest.test_case "classify: thresholds" `Quick test_classify_thresholds;
    Alcotest.test_case "cls: names round-trip, ranks ordered" `Quick test_cls_names_round_trip;
    Alcotest.test_case "fit_to_json: fields present" `Quick test_fit_to_json;
    Alcotest.test_case "regress: self-comparison is empty" `Quick test_regress_self_compare_empty;
    Alcotest.test_case "regress: threshold splits within/regressed" `Quick test_regress_threshold;
    Alcotest.test_case "regress: added/removed are one-sided" `Quick test_regress_added_removed;
    Alcotest.test_case "regress: class downgrade fails the gate" `Quick
      test_regress_class_downgrade;
    Alcotest.test_case "regress: exponent drift is informational" `Quick
      test_regress_exponent_informational;
    Alcotest.test_case "regress: incompatible documents refused" `Quick test_regress_incompatible;
    Alcotest.test_case "regress: render shows deltas and verdict" `Quick test_regress_render_table;
  ]
