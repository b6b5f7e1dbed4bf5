open Helpers

(* A profiler fed through the one span API: a live trace with it
   attached. *)
let mk () =
  let clock = Sim.Clock.create () in
  let p = Sim.Profile.create ~clock () in
  (p, traced clock p, clock)

(* ----------------------------- spans ------------------------------- *)

let test_span_nesting () =
  let p, tr, clock = mk () in
  let v =
    Sim.Trace.span tr ~op:"outer" (fun () ->
        Sim.Clock.charge clock 5;
        let inner = Sim.Trace.span tr ~op:"inner" (fun () -> Sim.Clock.charge clock 7; 1) in
        Sim.Clock.charge clock 2;
        inner + 1)
  in
  check_int "span returns f's value" 2 v;
  check_int "stack drained" 0 (Sim.Profile.depth p);
  match Sim.Profile.tree p with
  | [ outer ] ->
    check_string "root name" "outer" outer.Sim.Profile.name;
    check_int "outer cum covers everything" 14 outer.Sim.Profile.cum;
    check_int "outer self excludes inner" 7 outer.Sim.Profile.self;
    check_int "one call" 1 outer.Sim.Profile.calls;
    (match outer.Sim.Profile.children with
    | [ inner ] ->
      check_string "child name" "inner" inner.Sim.Profile.name;
      check_int "inner cum" 7 inner.Sim.Profile.cum;
      check_int "leaf self = cum" 7 inner.Sim.Profile.self
    | cs -> Alcotest.fail (Printf.sprintf "expected 1 child, got %d" (List.length cs)))
  | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

let test_same_name_distinct_paths () =
  let p, tr, clock = mk () in
  (* "work" as a root and "work" under "outer" are different tree nodes. *)
  Sim.Trace.span tr ~op:"work" (fun () -> Sim.Clock.charge clock 3);
  Sim.Trace.span tr ~op:"outer" (fun () ->
      Sim.Trace.span tr ~op:"work" (fun () -> Sim.Clock.charge clock 10));
  let flat = Sim.Profile.flatten p in
  let find path =
    match List.find_opt (fun (pth, _, _, _) -> pth = path) flat with
    | Some (_, _, self, _) -> self
    | None -> Alcotest.fail ("missing path " ^ path)
  in
  check_int "root work" 3 (find "work");
  check_int "nested work" 10 (find "outer;work")

let test_exception_unwinding () =
  let p, tr, clock = mk () in
  (try
     Sim.Trace.span tr ~op:"outer" (fun () ->
         Sim.Trace.span tr ~op:"boom" (fun () ->
             Sim.Clock.charge clock 4;
             failwith "x"))
   with Failure _ -> ());
  check_int "no leaked frames" 0 (Sim.Profile.depth p);
  match Sim.Profile.tree p with
  | [ outer ] ->
    check_int "cycles up to the raise attributed" 4 outer.Sim.Profile.cum;
    check_int "outer call still counted" 1 outer.Sim.Profile.calls;
    (match outer.Sim.Profile.children with
    | [ boom ] -> check_int "inner counted too" 1 boom.Sim.Profile.calls
    | _ -> Alcotest.fail "inner span missing")
  | _ -> Alcotest.fail "outer span missing"

let test_self_vs_cum_invariant () =
  let p, tr, clock = mk () in
  for i = 1 to 5 do
    Sim.Trace.span tr ~op:"a" (fun () ->
        Sim.Clock.charge clock i;
        Sim.Trace.span tr ~op:"b" (fun () -> Sim.Clock.charge clock (2 * i));
        Sim.Trace.span tr ~op:"c" (fun () -> Sim.Clock.charge clock 1))
  done;
  let rec check_node (n : Sim.Profile.node) =
    let child_cum =
      List.fold_left (fun acc (c : Sim.Profile.node) -> acc + c.Sim.Profile.cum) 0
        n.Sim.Profile.children
    in
    check_int
      (Printf.sprintf "self = cum - children at %s" n.Sim.Profile.name)
      n.Sim.Profile.self
      (n.Sim.Profile.cum - child_cum);
    List.iter check_node n.Sim.Profile.children
  in
  List.iter check_node (Sim.Profile.tree p);
  check_int "all cycles attributed" (Sim.Profile.total p) (Sim.Profile.attributed p);
  check_int "nothing unattributed" 0 (Sim.Profile.unattributed p)

let test_unattributed () =
  let p, tr, clock = mk () in
  Sim.Clock.charge clock 100 (* outside any span *);
  Sim.Trace.span tr ~op:"a" (fun () -> Sim.Clock.charge clock 50);
  check_int "total sees everything" 150 (Sim.Profile.total p);
  check_int "attributed only in-span" 50 (Sim.Profile.attributed p);
  check_int "remainder explicit" 100 (Sim.Profile.unattributed p);
  let f = Sim.Profile.attributed_fraction p in
  check_bool "fraction = 1/3" true (Float.abs (f -. (1.0 /. 3.0)) < 1e-9);
  check_bool "collapsed reports the remainder" true
    (contains ~needle:"(unattributed) 100" (Sim.Profile.to_collapsed p))

(* A trace holds the disabled profiler until one is attached: its spans
   run their function and the sentinel's frames are no-ops. *)
let test_disabled_sentinel () =
  let p = Sim.Profile.disabled in
  check_bool "disabled" false (Sim.Profile.enabled p);
  let tr = Sim.Trace.create ~clock:(Sim.Clock.create ()) () in
  check_int "span still runs f" 9 (Sim.Trace.span tr ~op:"x" (fun () -> 9));
  Sim.Profile.enter p "x";
  check_int "enter pushes nothing" 0 (Sim.Profile.depth p);
  Sim.Profile.leave p;
  check_int "no tree" 0 (List.length (Sim.Profile.tree p));
  check_int "no cycles" 0 (Sim.Profile.total p)

let test_reset () =
  let p, tr, clock = mk () in
  Sim.Trace.span tr ~op:"a" (fun () -> Sim.Clock.charge clock 10);
  Sim.Profile.reset p;
  check_int "tree cleared" 0 (List.length (Sim.Profile.tree p));
  check_int "attribution restarts at reset" 0 (Sim.Profile.total p);
  Sim.Clock.charge clock 7;
  check_int "cycles after reset count" 7 (Sim.Profile.total p)

(* ------------------------- zero overhead --------------------------- *)

(* No sink may charge the clock or touch a counter: with the event ring,
   the call tree and the host metrics all fed, a run spends exactly the
   cycles and counts exactly what a run that feeds no sink does. *)
let run_workload k =
  let p = Os.Kernel.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = Os.Kernel.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (Os.Kernel.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  Os.Kernel.munmap k p ~va ~len;
  (Sim.Clock.now (Os.Kernel.clock k), Sim.Json.to_string (Sim.Stats.to_json (Os.Kernel.stats k)))

let test_zero_virtual_cost () =
  let cycles_bare, stats_bare = run_workload (mk_kernel ()) in
  let k = mk_kernel () in
  let ns = ref 0 in
  let now_ns () = incr ns; !ns in
  let profile = Sim.Profile.create ~clock:(Os.Kernel.clock k) ~now_ns () in
  Sim.Trace.attach_ring (Os.Kernel.trace k) ();
  Sim.Trace.attach_profile (Os.Kernel.trace k) profile;
  let cycles, stats = run_workload k in
  check_int "identical cycles with every sink fed" cycles_bare cycles;
  check_string "identical counters with every sink fed" stats_bare stats;
  check_bool "ring saw the work" true (Sim.Trace.recorded (Os.Kernel.trace k) > 0);
  check_bool "tree saw the work" true (Sim.Profile.attributed profile > 0);
  check_bool "host metrics saw the work" true
    (Sim.Profile.attributed ~by:`Ns profile > 0 && Sim.Profile.attributed ~by:`Words profile > 0)

let test_attach_disabled_rejected () =
  Alcotest.check_raises "cannot attach to the shared disabled trace"
    (Invalid_argument "Trace.attach_profile: disabled trace") (fun () ->
      Sim.Trace.attach_profile Sim.Trace.disabled (Sim.Profile.disabled))

(* A truncate that does not shrink the file touches nothing, but it is
   still a call: the ring and the call tree count both. *)
let test_truncate_frames_every_call () =
  let k = mk_kernel () in
  let p = Sim.Profile.create ~clock:(Os.Kernel.clock k) () in
  let tr = Os.Kernel.trace k in
  Sim.Trace.attach_ring tr ();
  Sim.Trace.attach_profile tr p;
  let fs = Os.Kernel.tmpfs k in
  let ino = Fs.Memfs.create_file fs "/t" ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend fs ino ~bytes_wanted:(Sim.Units.kib 16);
  Fs.Memfs.truncate fs ino ~bytes:(Sim.Units.kib 16);
  Fs.Memfs.truncate fs ino ~bytes:(Sim.Units.kib 4);
  (match List.find_opt (fun (path, _, _, _) -> path = "fs_truncate") (Sim.Profile.flatten p) with
  | Some (_, calls, _, _) -> check_int "both calls in the tree" 2 calls
  | None -> Alcotest.fail "no fs_truncate frame");
  match Sim.Trace.latency tr "fs_truncate" with
  | Some h -> check_int "both calls are events" 2 (Sim.Histogram.count h)
  | None -> Alcotest.fail "truncate recorded no event"

(* --------------------------- exporters ----------------------------- *)

(* The fault opens on the cycle its parent opens, so the Chrome order
   must rank the longer slice first, not the one recorded first. *)
let golden_profile () =
  let p, tr, clock = mk () in
  Sim.Trace.span tr ~op:"mmap" (fun () ->
      Sim.Trace.span tr ~op:"fault" (fun () -> Sim.Clock.charge clock 40);
      Sim.Clock.charge clock 100);
  Sim.Trace.span tr ~op:"access" (fun () -> Sim.Clock.charge clock 10);
  (p, tr)

let test_collapsed_golden () =
  let p, _ = golden_profile () in
  check_string "collapsed stacks, DFS order, self cycles"
    "access 10\nmmap 100\nmmap;fault 40\n" (Sim.Profile.to_collapsed p)

let test_chrome_golden () =
  let _, tr = golden_profile () in
  let evs =
    trace_events (Sim.Json.Obj [ ("traceEvents", Sim.Json.List (Sim.Trace.chrome_events tr)) ])
  in
  check_int "three complete events" 3 (List.length evs);
  (* Sorted parents-first: mmap and fault start together and mmap is
     longer, then access. *)
  Alcotest.(check (list string))
    "parents before children, then by start" [ "mmap"; "fault"; "access" ]
    (List.map (fun e -> event_field e "name") evs);
  List.iter (fun e -> check_string "complete event" "X" (event_field e "ph")) evs;
  let durs = List.map (fun e -> event_field e "dur") evs in
  Alcotest.(check (list string)) "durations in virtual cycles" [ "140"; "40"; "10" ] durs

let test_to_json_shape () =
  let p, _ = golden_profile () in
  let json = Sim.Profile.to_json p in
  (match Sim.Json.of_string (Sim.Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("profile JSON does not parse: " ^ e));
  (match Sim.Json.member json "attributed_cycles" with
  | Some (Sim.Json.Int n) -> check_int "attributed" 150 n
  | _ -> Alcotest.fail "attributed_cycles missing");
  match Sim.Json.member json "tree" with
  | Some (Sim.Json.Obj roots) ->
    Alcotest.(check (list string)) "roots sorted by name" [ "access"; "mmap" ]
      (List.map fst roots)
  | _ -> Alcotest.fail "tree missing"

let test_top_spans () =
  let p, _ = golden_profile () in
  match Sim.Profile.top ~k:2 ~by:`Cycles p with
  | [ (p1, n1); (p2, n2) ] ->
    check_string "hottest self first" "mmap" p1;
    check_int "hottest self cycles" 100 n1.Sim.Profile.self;
    check_string "then fault" "mmap;fault" p2;
    check_int "second self cycles" 40 n2.Sim.Profile.self
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l))

let test_event_ring_bounded () =
  let p, tr, clock = mk () in
  (* The trace ring holds 4096 span events. *)
  for _ = 1 to 4098 do
    Sim.Trace.span tr ~op:"op" (fun () -> Sim.Clock.charge clock 1)
  done;
  check_int "recorded counts everything" 4098 (Sim.Trace.recorded tr);
  check_int "dropped = recorded - capacity" 2 (Sim.Trace.dropped tr);
  (* The call tree stays exact even when the ring wrapped. *)
  match Sim.Profile.tree p with
  | [ op ] ->
    check_int "tree keeps every call" 4098 op.Sim.Profile.calls;
    check_int "tree keeps every cycle" 4098 op.Sim.Profile.cum
  | _ -> Alcotest.fail "expected one root"

(* ----------------------------- gauges ------------------------------ *)

let test_gauge_hwm () =
  let stats = Sim.Stats.create () in
  Sim.Stats.set_gauge stats "depth" 5;
  Sim.Stats.add_gauge stats "depth" 3;
  Sim.Stats.add_gauge stats "depth" (-6);
  check_int "value tracks updates" 2 (Sim.Stats.gauge stats "depth");
  check_int "hwm sticks at the peak" 8 (Sim.Stats.gauge_hwm stats "depth");
  check_int "untouched gauge reads 0" 0 (Sim.Stats.gauge stats "nope");
  Sim.Stats.reset stats;
  check_int "reset clears value" 0 (Sim.Stats.gauge stats "depth");
  check_int "reset clears hwm" 0 (Sim.Stats.gauge_hwm stats "depth")

let test_gauge_sampling () =
  let stats = Sim.Stats.create () in
  Sim.Stats.set_gauge stats "g" 1;
  Sim.Stats.sample stats ~now:100;
  check_int "sampling off by default" 0 (List.length (Sim.Stats.series stats "g"));
  Sim.Stats.set_sample_interval stats ~cycles:10;
  Sim.Stats.sample stats ~now:100;
  Sim.Stats.sample stats ~now:105 (* within the interval: skipped *);
  Sim.Stats.set_gauge stats "g" 7;
  Sim.Stats.sample stats ~now:110;
  Alcotest.(check (list (pair int int)))
    "points at interval boundaries"
    [ (100, 1); (110, 7) ]
    (Sim.Stats.series stats "g");
  match Sim.Stats.gauges_to_json stats with
  | Sim.Json.Obj [ ("g", Sim.Json.Obj fields) ] ->
    check_bool "samples exported" true (List.mem_assoc "samples" fields)
  | _ -> Alcotest.fail "gauges_to_json shape"

(* The churn_fom Chrome export: complete events only, no negative
   duration, and the hot paths named. *)
let test_churn_chrome_export () =
  let run = Experiments.Exp_profile.run_churn ~ops:400 ~host:false `Fom in
  let evs = trace_events (Experiments.Exp_profile.chrome_json run) in
  check_bool "events exported" true (evs <> []);
  List.iter
    (fun e ->
      check_string "complete event" "X" (event_field e "ph");
      check_bool "non-negative duration" true (int_of_string (event_field e "dur") >= 0))
    evs;
  let names = List.map (fun e -> event_field e "name") evs in
  check_bool "fom_alloc span exported" true (List.mem "fom_alloc" names);
  check_bool "access span exported" true (List.mem "access" names)

(* One span API: every call-tree frame was opened by Trace.span, so
   every node of the tree names an op with a ring event and a latency
   histogram. *)
let test_frames_are_trace_ops () =
  let check_run what k p =
    let ops = List.map fst (Sim.Trace.ops (Os.Kernel.trace k)) in
    let rec check (n : Sim.Profile.node) =
      check_bool (what ^ ": frame " ^ n.Sim.Profile.name ^ " is a trace op") true
        (List.mem n.Sim.Profile.name ops);
      List.iter check n.Sim.Profile.children
    in
    check_bool (what ^ ": tree is non-empty") true (Sim.Profile.tree p <> []);
    List.iter check (Sim.Profile.tree p)
  in
  let k = Experiments.Bench_env.kernel () in
  let p = Sim.Profile.create ~clock:(Os.Kernel.clock k) () in
  Sim.Trace.attach_ring (Os.Kernel.trace k) ();
  Sim.Trace.attach_profile (Os.Kernel.trace k) p;
  check_run "metrics workload" (Experiments.Exp_metrics.run_workload k) p;
  List.iter
    (fun (what, backend) ->
      let k, p = Experiments.Exp_profile.run_churn ~ops:400 ~host:true backend in
      check_run what k p)
    [ ("churn_fom", `Fom); ("churn_malloc", `Malloc) ]

let suite =
  [
    Alcotest.test_case "profile: span nesting" `Quick test_span_nesting;
    Alcotest.test_case "profile: same name, distinct paths" `Quick test_same_name_distinct_paths;
    Alcotest.test_case "profile: exception unwinding" `Quick test_exception_unwinding;
    Alcotest.test_case "profile: self vs cum invariant" `Quick test_self_vs_cum_invariant;
    Alcotest.test_case "profile: unattributed remainder" `Quick test_unattributed;
    Alcotest.test_case "profile: disabled sentinel" `Quick test_disabled_sentinel;
    Alcotest.test_case "profile: reset" `Quick test_reset;
    Alcotest.test_case "profile: zero simulated overhead" `Quick test_zero_virtual_cost;
    Alcotest.test_case "profile: attach to disabled trace rejected" `Quick
      test_attach_disabled_rejected;
    Alcotest.test_case "profile: truncate frames every call" `Quick test_truncate_frames_every_call;
    Alcotest.test_case "profile: collapsed golden" `Quick test_collapsed_golden;
    Alcotest.test_case "profile: chrome golden" `Quick test_chrome_golden;
    Alcotest.test_case "profile: churn chrome export" `Quick test_churn_chrome_export;
    Alcotest.test_case "profile: to_json shape" `Quick test_to_json_shape;
    Alcotest.test_case "profile: top spans" `Quick test_top_spans;
    Alcotest.test_case "profile: event ring bounded" `Quick test_event_ring_bounded;
    Alcotest.test_case "profile: every frame is a trace op" `Quick test_frames_are_trace_ops;
    Alcotest.test_case "stats: gauge high watermark" `Quick test_gauge_hwm;
    Alcotest.test_case "stats: gauge sampling" `Quick test_gauge_sampling;
  ]
