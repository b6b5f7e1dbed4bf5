(* Host-cost profiling: Sim.Profile given a host clock (host ns and
   allocated words per call-tree path, self-samples, the host export),
   plus the bench-diff gates over the "host" section. *)

open Helpers

(* A deterministic fake host clock: each read advances by [step] ns. *)
let fake_ns ?(step = 10) () =
  let t = ref 0 in
  fun () ->
    t := !t + step;
    !t

let mk ?(clock = Sim.Clock.create ()) ?step () = Sim.Profile.create ~clock ~now_ns:(fake_ns ?step ()) ()

(* A host profiler fed through the one span API: a live trace with it
   attached. *)
let mk_traced ?(clock = Sim.Clock.create ()) ?step () =
  let p = mk ~clock ?step () in
  (p, traced clock p)

(* One field of the exported self-sample summary. *)
let self_field p key =
  match Option.bind (Sim.Json.member (Sim.Profile.host_json p) "self") (fun s -> Sim.Json.member s key) with
  | Some (Sim.Json.Int n) -> n
  | _ -> Alcotest.fail ("self." ^ key ^ " missing")

(* ----------------------------- spans ------------------------------- *)

let test_span_nesting () =
  let clock = Sim.Clock.create () in
  let p, tr = mk_traced ~clock () in
  let v =
    Sim.Trace.span tr ~op:"outer" (fun () ->
        Sim.Clock.charge clock 5;
        let inner = Sim.Trace.span tr ~op:"inner" (fun () -> Sim.Clock.charge clock 7; 1) in
        inner + 1)
  in
  check_int "span returns f's value" 2 v;
  check_int "stack drained" 0 (Sim.Profile.depth p);
  match Sim.Profile.tree p with
  | [ outer ] ->
    check_string "root name" "outer" outer.Sim.Profile.name;
    check_int "one call" 1 outer.Sim.Profile.calls;
    check_int "outer vcycles cover everything" 12 outer.Sim.Profile.cum;
    check_bool "outer ns positive" true (outer.Sim.Profile.ns > 0);
    check_bool "self excludes inner ns" true (outer.Sim.Profile.self_ns < outer.Sim.Profile.ns);
    (match outer.Sim.Profile.children with
    | [ inner ] ->
      check_string "child name" "inner" inner.Sim.Profile.name;
      check_int "inner vcycles" 7 inner.Sim.Profile.cum;
      check_bool "inner ns positive" true (inner.Sim.Profile.ns > 0)
    | cs -> Alcotest.fail (Printf.sprintf "expected 1 child, got %d" (List.length cs)))
  | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

let test_exception_unwinding () =
  let p, tr = mk_traced () in
  (try
     Sim.Trace.span tr ~op:"outer" (fun () ->
         Sim.Trace.span tr ~op:"boom" (fun () -> failwith "x"))
   with Failure _ -> ());
  check_int "no leaked frames" 0 (Sim.Profile.depth p);
  match Sim.Profile.tree p with
  | [ outer ] -> (
    check_int "outer call still counted" 1 outer.Sim.Profile.calls;
    check_bool "host time up to the raise attributed" true (outer.Sim.Profile.ns > 0);
    match outer.Sim.Profile.children with
    | [ boom ] -> check_int "inner counted too" 1 boom.Sim.Profile.calls
    | _ -> Alcotest.fail "inner span missing")
  | _ -> Alcotest.fail "outer span missing"

(* A host clock that goes BACKWARDS between reads: every exported delta
   must clamp to zero, never negative. *)
let test_monotonicity_clamped () =
  let t = ref 1_000_000 in
  let backwards () =
    t := !t - 50;
    !t
  in
  let clock = Sim.Clock.create () in
  let p = Sim.Profile.create ~clock ~now_ns:backwards () in
  let tr = traced clock p in
  Sim.Trace.span tr ~op:"a" (fun () -> Sim.Trace.span tr ~op:"b" (fun () -> ()));
  let rec check_node (n : Sim.Profile.node) =
    check_bool (n.Sim.Profile.name ^ " ns >= 0") true (n.Sim.Profile.ns >= 0);
    check_bool (n.Sim.Profile.name ^ " self_ns >= 0") true (n.Sim.Profile.self_ns >= 0);
    List.iter check_node n.Sim.Profile.children
  in
  List.iter check_node (Sim.Profile.tree p);
  check_bool "total ns clamped" true (Sim.Profile.total ~by:`Ns p >= 0);
  check_bool "attributed ns clamped" true (Sim.Profile.attributed ~by:`Ns p >= 0)

let test_self_vs_cum_invariant () =
  let p, tr = mk_traced () in
  for i = 1 to 5 do
    Sim.Trace.span tr ~op:"a" (fun () ->
        Sim.Trace.span tr ~op:"b" (fun () ->
            ignore (Sys.opaque_identity (List.init i (fun j -> j))));
        Sim.Trace.span tr ~op:"c" (fun () -> ()))
  done;
  let rec check_node (n : Sim.Profile.node) =
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 n.Sim.Profile.children in
    check_int
      (Printf.sprintf "self_ns = ns - children at %s" n.Sim.Profile.name)
      n.Sim.Profile.self_ns
      (n.Sim.Profile.ns - sum (fun c -> c.Sim.Profile.ns));
    check_int
      (Printf.sprintf "self_words = words - children at %s" n.Sim.Profile.name)
      n.Sim.Profile.self_words
      (n.Sim.Profile.words - sum (fun c -> c.Sim.Profile.words));
    List.iter check_node n.Sim.Profile.children
  in
  List.iter check_node (Sim.Profile.tree p)

let test_disabled_sentinel () =
  let p = Sim.Profile.disabled in
  check_bool "no host metrics" false (Sim.Profile.host p);
  check_int "span still runs f" 9
    (Sim.Trace.span (Sim.Trace.create ~clock:(Sim.Clock.create ()) ()) ~op:"x" (fun () -> 9));
  check_int "no ns" 0 (Sim.Profile.total ~by:`Ns p);
  check_int "no words" 0 (Sim.Profile.total ~by:`Words p);
  Sim.Profile.sample_self p;
  check_int "sample_self is a no-op" 0 (self_field p "samples")

(* -------------------- allocation determinism ----------------------- *)

(* Enough work to run the minor heap over several times, so collections
   land inside spans. *)
let words_profile () =
  let k = mk_kernel () in
  let p = mk ~clock:(Os.Kernel.clock k) () in
  Sim.Trace.attach_profile (Os.Kernel.trace k) p;
  let proc = Os.Kernel.create_process k () in
  let len = Sim.Units.mib 2 in
  for _ = 1 to 4 do
    let va = Os.Kernel.mmap_anon k proc ~len ~prot:Hw.Prot.rw ~populate:false in
    ignore (Os.Kernel.access_range k proc ~va ~len ~write:true ~stride:Sim.Units.page_size);
    Os.Kernel.munmap k proc ~va ~len
  done;
  List.map
    (fun (path, (n : Sim.Profile.node)) ->
      (path, n.Sim.Profile.calls, n.Sim.Profile.words, n.Sim.Profile.cum))
    (Sim.Profile.top ~by:`Cycles p)

let check_same_words a b =
  check_int "same paths" (List.length a) (List.length b);
  List.iter2
    (fun (pa, ca, wa, va) (pb, cb, wb, vb) ->
      check_string "path" pa pb;
      check_int (pa ^ " calls") ca cb;
      check_int (pa ^ " words") wa wb;
      check_int (pa ^ " vcycles") va vb)
    a b

(* Allocated-words attribution depends only on the allocation sequence,
   which is fixed for a fixed binary and workload — two identical runs
   must agree word-for-word on every path. (A warm-up run first absorbs
   any one-time lazy module initialisation.) *)
let test_words_deterministic () =
  ignore (words_profile ());
  let a = words_profile () in
  check_same_words a (words_profile ())

(* ...whatever the heap looks like: a large live ballast and a full major
   collection between the runs move where every minor collection falls,
   and no path's count may move with them. *)
let test_words_heap_independent () =
  ignore (words_profile ());
  let a = words_profile () in
  let ballast = Array.init 200_000 (fun i -> Some i) in
  Gc.full_major ();
  let b = words_profile () in
  ignore (Sys.opaque_identity ballast);
  check_same_words a b

(* -------------------------- self-samples --------------------------- *)

(* VmRSS from /proc/self/status, in kB, if the host has it. *)
let vm_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
    List.find_map (fun l -> Scanf.sscanf_opt l "VmRSS: %d kB" Fun.id) (String.split_on_char '\n' status)

(* The samples fold into a running summary: the profiler holds the same
   words after 1100 samples as after 10. *)
let test_self_samples_bounded () =
  let p = mk () in
  for _ = 1 to 10 do
    Sim.Profile.sample_self p
  done;
  let size = Obj.reachable_words (Obj.repr p) in
  for _ = 11 to 1100 do
    Sim.Profile.sample_self p
  done;
  check_int "constant space" size (Obj.reachable_words (Obj.repr p));
  check_int "summary counts every sample" 1100 (self_field p "samples");
  check_bool "heap gauge populated" true (self_field p "heap_words_max" > 0);
  (* The statm reading is the resident set in kB: within a factor of 4
     of the kernel's own VmRSS (a misread field, such as the virtual
     size, or a wrong page scale falls outside). *)
  if Sys.file_exists "/proc/self/statm" then begin
    let rss = self_field p "rss_kb_max" in
    check_bool "rss sampled" true (rss > 0);
    match vm_rss_kb () with
    | Some kb -> check_bool "rss matches VmRSS" true (rss * 4 >= kb && rss <= kb * 4)
    | None -> ()
  end

(* --------------------------- exporters ----------------------------- *)

let test_collapsed_golden () =
  let p, tr = mk_traced ~step:10 () in
  Sim.Trace.span tr ~op:"mmap" (fun () -> Sim.Trace.span tr ~op:"fault" (fun () -> ()));
  Sim.Trace.span tr ~op:"access" (fun () -> ());
  let s = Sim.Profile.to_collapsed ~by:`Ns p in
  check_bool "mmap line present" true (contains ~needle:"mmap " s);
  check_bool "nested path present" true (contains ~needle:"mmap;fault " s);
  check_bool "access line present" true (contains ~needle:"access " s);
  check_bool "unattributed remainder explicit" true (contains ~needle:"(unattributed) " s)

let test_to_json_shape () =
  let clock = Sim.Clock.create () in
  let p, tr = mk_traced ~clock () in
  Sim.Trace.span tr ~op:"mmap" (fun () ->
      Sim.Clock.charge clock 100;
      Sim.Trace.span tr ~op:"fault" (fun () -> Sim.Clock.charge clock 40));
  let json = Sim.Profile.host_json p in
  (match Sim.Json.of_string (Sim.Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("host JSON does not parse: " ^ e));
  (match Sim.Json.member json "total_vcycles" with
  | Some (Sim.Json.Int n) -> check_int "vcycles totalled" 140 n
  | _ -> Alcotest.fail "total_vcycles missing");
  (match Sim.Json.member json "gc" with
  | Some gc -> (
    match Sim.Json.member gc "allocated_words" with
    | Some (Sim.Json.Int _) -> ()
    | _ -> Alcotest.fail "gc.allocated_words missing")
  | None -> Alcotest.fail "gc block missing");
  match Sim.Json.member json "tree" with
  | Some (Sim.Json.Obj [ ("mmap", m) ]) -> (
    match Sim.Json.member m "vcycles" with
    | Some (Sim.Json.Int n) -> check_int "per-node vcycles" 140 n
    | _ -> Alcotest.fail "node vcycles missing")
  | _ -> Alcotest.fail "tree missing"

let test_top_paths_ranking () =
  let p, tr = mk_traced ~step:1 () in
  (* "big" burns many fake-ns (extra spans inside) and allocates, "small"
     does neither. *)
  Sim.Trace.span tr ~op:"big" (fun () ->
      for _ = 1 to 50 do
        Sim.Trace.span tr ~op:"inner" (fun () -> ())
      done;
      ignore (Sys.opaque_identity (Array.make 100 0)));
  Sim.Trace.span tr ~op:"small" (fun () -> ());
  (match Sim.Profile.top ~k:3 ~by:`Ns p with
  | [ (p1, n1); (p2, n2); (p3, n3) ] ->
    check_bool "big paths outrank small" true (p1 <> "small" && p2 <> "small");
    check_string "coldest self-ns path last" "small" p3;
    check_bool "ranking is by descending self_ns" true
      (n1.Sim.Profile.self_ns >= n2.Sim.Profile.self_ns
      && n2.Sim.Profile.self_ns >= n3.Sim.Profile.self_ns)
  | l -> Alcotest.fail (Printf.sprintf "expected 3 ranked paths, got %d" (List.length l)));
  match Sim.Profile.top ~by:`Words p with
  | (hot, n) :: _ ->
    check_string "the allocating span ranks first by words" "big" hot;
    check_bool "its self words count the array" true (n.Sim.Profile.self_words >= 101)
  | [] -> Alcotest.fail "no paths ranked by words"

(* ------------------------ regress gating --------------------------- *)

(* Minimal comparable documents (same schema + provenance). *)
let doc sections =
  Sim.Json.Obj
    ([ ("schema", Sim.Json.String "test/1"); ("provenance", Sim.Json.Obj [] ) ] @ sections)

let diff old_doc new_doc =
  match Sim.Regress.compare_docs ~old_doc ~new_doc () with
  | Ok r -> r
  | Error e -> Alcotest.fail ("compare_docs: " ^ e)

let host_doc ~words =
  doc
    [
      ( "host",
        Sim.Json.Obj
          [
            ( "churn_malloc",
              Sim.Json.Obj
                [
                  ("enabled", Sim.Json.Bool true);
                  ("total_ns", Sim.Json.Int 12345);
                  ("attributed_words", Sim.Json.Int words);
                  ( "tree",
                    Sim.Json.Obj
                      [
                        ( "malloc",
                          Sim.Json.Obj
                            [
                              ("calls", Sim.Json.Int 100);
                              ("ns", Sim.Json.Int 999);
                              ("self_ns", Sim.Json.Int 999);
                              ("words", Sim.Json.Int words);
                              ("self_words", Sim.Json.Int words);
                              ("vcycles", Sim.Json.Int 5000);
                            ] );
                      ] );
                ] );
          ] );
    ]

let test_host_alloc_gate () =
  let old_doc = host_doc ~words:1000 in
  let new_doc = host_doc ~words:1500 (* +50% allocation *) in
  let r = diff old_doc new_doc in
  let regs = Sim.Regress.regressions r in
  check_bool "allocated words gate with no flag" true
    (List.exists (fun d -> d.Sim.Regress.key = "attributed_words") regs);
  check_bool "per-path words gated too" true
    (List.exists
       (fun d -> d.Sim.Regress.section = "host.churn_malloc.tree.malloc" && d.Sim.Regress.key = "words")
       regs);
  (* ns keys never gate *)
  check_bool "ns never gates" true
    (List.for_all
       (fun d -> not (contains ~needle:"ns" d.Sim.Regress.key))
       regs);
  (* an improvement (fewer words) never gates *)
  let r = diff new_doc old_doc in
  check_int "shrinking allocation passes" 0 (List.length (Sim.Regress.regressions r))

let test_host_enabled_flip_gates () =
  let flip enabled =
    doc
      [
        ( "host",
          Sim.Json.Obj
            [ ("churn_malloc", Sim.Json.Obj [ ("enabled", Sim.Json.Bool enabled) ]) ] );
      ]
  in
  let r = diff (flip true) (flip false) in
  check_int "plane silently detaching is a regression" 1
    (List.length (Sim.Regress.regressions r))

let suite =
  [
    Alcotest.test_case "hostprof: span nesting" `Quick test_span_nesting;
    Alcotest.test_case "hostprof: exception unwinding" `Quick test_exception_unwinding;
    Alcotest.test_case "hostprof: non-monotonic clock clamped" `Quick test_monotonicity_clamped;
    Alcotest.test_case "hostprof: self vs cum invariant" `Quick test_self_vs_cum_invariant;
    Alcotest.test_case "hostprof: disabled sentinel" `Quick test_disabled_sentinel;
    (* One zero-cost check covers every sink, host metrics included. *)
    Alcotest.test_case "hostprof: zero virtual-clock cost" `Quick Test_profile.test_zero_virtual_cost;
    Alcotest.test_case "hostprof: allocated words deterministic" `Quick test_words_deterministic;
    Alcotest.test_case "hostprof: words independent of heap state" `Quick
      test_words_heap_independent;
    Alcotest.test_case "hostprof: self samples bounded" `Quick test_self_samples_bounded;
    Alcotest.test_case "hostprof: collapsed export" `Quick test_collapsed_golden;
    Alcotest.test_case "hostprof: to_json shape" `Quick test_to_json_shape;
    Alcotest.test_case "hostprof: top paths ranking" `Quick test_top_paths_ranking;
    Alcotest.test_case "regress: host alloc gate" `Quick test_host_alloc_gate;
    Alcotest.test_case "regress: host enabled flip gates" `Quick test_host_enabled_flip_gates;
  ]
