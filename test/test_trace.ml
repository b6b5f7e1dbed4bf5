open Helpers

let mk ?(capacity = 4) () =
  let clock = Sim.Clock.create () in
  (Sim.Trace.create ~clock ~capacity (), clock)

let test_create_validation () =
  let clock = Sim.Clock.create () in
  Alcotest.check_raises "zero capacity" (Invalid_argument "Trace.create: capacity must be positive")
    (fun () -> ignore (Sim.Trace.create ~clock ~capacity:0 ()))

let test_ring_wraparound () =
  let tr, clock = mk () in
  for i = 1 to 6 do
    let start = Sim.Clock.now clock in
    Sim.Clock.charge clock i;
    Sim.Trace.record tr ~op:"op" ~start ~arg:i ()
  done;
  check_int "recorded counts everything" 6 (Sim.Trace.recorded tr);
  check_int "dropped = recorded - capacity" 2 (Sim.Trace.dropped tr);
  let evs = Sim.Trace.events tr in
  check_int "ring retains capacity events" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest retained first, newest last" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Sim.Trace.arg) evs);
  List.iter
    (fun e -> check_int "latency matches the charge" e.Sim.Trace.arg (e.Sim.Trace.finish - e.Sim.Trace.start))
    evs;
  (match Sim.Trace.latency tr "op" with
  | Some h -> check_int "histogram keeps even dropped samples" 6 (Sim.Histogram.count h)
  | None -> Alcotest.fail "latency histogram missing");
  Sim.Trace.reset tr;
  check_int "reset clears recorded" 0 (Sim.Trace.recorded tr);
  check_int "reset clears events" 0 (List.length (Sim.Trace.events tr))

let test_span_nesting () =
  let tr, clock = mk () in
  let v =
    Sim.Trace.span tr ~op:"outer" (fun () ->
        Sim.Clock.charge clock 5;
        let inner = Sim.Trace.span tr ~op:"inner" (fun () -> Sim.Clock.charge clock 7; 1) in
        Sim.Clock.charge clock 2;
        inner + 1)
  in
  check_int "span returns f's value" 2 v;
  let lat op =
    match Sim.Trace.latency tr op with
    | Some h -> Sim.Histogram.max_value h
    | None -> Alcotest.fail (op ^ " not recorded")
  in
  check_int "inner span charges only its own work" 7 (lat "inner");
  check_int "outer span covers inner + its own work" 14 (lat "outer");
  Alcotest.(check (list string)) "inner completes (records) before outer" [ "inner"; "outer" ]
    (List.map (fun e -> e.Sim.Trace.op) (Sim.Trace.events tr))

let test_span_outcome_and_exception () =
  let tr, clock = mk () in
  let n =
    Sim.Trace.span tr ~op:"probe" ~outcome:(fun n -> if n > 0 then "hit" else "miss") (fun () -> 3)
  in
  check_int "value through outcome mapping" 3 n;
  (try
     Sim.Trace.span tr ~op:"boom" (fun () ->
         Sim.Clock.charge clock 3;
         failwith "x")
   with Failure _ -> ());
  match Sim.Trace.events tr with
  | [ probe; boom ] ->
    check_string "mapped outcome" "hit" probe.Sim.Trace.outcome;
    check_string "exception records raised" "raised" boom.Sim.Trace.outcome;
    check_int "latency up to the raise" 3 (boom.Sim.Trace.finish - boom.Sim.Trace.start)
  | evs -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length evs))

(* One call, every sink: the ring event, the op's histogram sample and a
   call-tree frame of the same name and extent; arg and outcome are read
   off the result. *)
let test_span_feeds_every_sink () =
  let tr, clock = mk () in
  let p = Sim.Profile.create ~clock () in
  Sim.Trace.attach_profile tr p;
  let r =
    Sim.Trace.span tr ~op:"walk" ~arg:(fun n -> 2 * n) ~outcome:(fun _ -> "hole") (fun () ->
        Sim.Clock.charge clock 9;
        21)
  in
  check_int "span returns f's value" 21 r;
  (match Sim.Trace.events tr with
  | [ e ] ->
    check_int "arg from the result" 42 e.Sim.Trace.arg;
    check_string "outcome from the result" "hole" e.Sim.Trace.outcome;
    check_int "event covers f" 9 (e.Sim.Trace.finish - e.Sim.Trace.start)
  | evs -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs)));
  (match Sim.Trace.latency tr "walk" with
  | Some h -> check_int "one histogram sample" 1 (Sim.Histogram.count h)
  | None -> Alcotest.fail "no histogram");
  match Sim.Profile.flatten p with
  | [ (path, calls, self, _) ] ->
    check_string "frame named after the op" "walk" path;
    check_int "one call" 1 calls;
    check_int "frame covers f" 9 self
  | l -> Alcotest.fail (Printf.sprintf "expected 1 frame, got %d" (List.length l))

(* The closure-free form is the same span: run the same work once
   through [span] and once through [enter]/[leave], a nested span and a
   raising body included, on two machines, and every sink must agree —
   ring events (sequence, cycles, core, arg, outcome), histograms and
   call-tree frames. *)
let test_enter_leave_match_span () =
  let run closure_free =
    let tr, clock = mk ~capacity:16 () in
    let p = Sim.Profile.create ~clock () in
    Sim.Trace.attach_profile tr p;
    let charge n = Sim.Clock.charge clock n in
    if closure_free then begin
      let start = Sim.Trace.enter tr ~op:"walk" in
      charge 4;
      let inner = Sim.Trace.enter tr ~op:"probe" in
      charge 2;
      Sim.Trace.leave tr ~op:"probe" ~start:inner ~arg:0 ~outcome:"hit";
      charge 3;
      Sim.Trace.leave tr ~op:"walk" ~start ~arg:42 ~outcome:"hole";
      let start = Sim.Trace.enter tr ~op:"boom" in
      try
        charge 5;
        failwith "x"
      with Failure _ -> Sim.Trace.leave_raised tr ~op:"boom" ~start
    end
    else begin
      Sim.Trace.span tr ~op:"walk" ~arg:(fun n -> 2 * n) ~outcome:(fun _ -> "hole") (fun () ->
          charge 4;
          Sim.Trace.span tr ~op:"probe" ~outcome:(fun () -> "hit") (fun () -> charge 2);
          charge 3;
          21)
      |> ignore;
      try
        Sim.Trace.span tr ~op:"boom" (fun () ->
            charge 5;
            failwith "x")
      with Failure _ -> ()
    end;
    ( Sim.Trace.events tr,
      List.map (fun (op, h) -> (op, Sim.Json.to_string (Sim.Histogram.to_json h))) (Sim.Trace.ops tr),
      Sim.Profile.flatten p,
      Sim.Profile.depth p )
  in
  let events, hists, frames, _ = run false in
  let events', hists', frames', depth = run true in
  check_int "three events" 3 (List.length events);
  check_bool "same ring events" true (events = events');
  check_bool "a raising body records raised" true
    (List.exists (fun e -> e.Sim.Trace.op = "boom" && e.Sim.Trace.outcome = "raised") events');
  check_bool "same histogram samples" true (hists = hists');
  check_bool "same call-tree frames" true (frames = frames');
  check_int "every frame popped" 0 depth;
  check_int "enter on the disabled sentinel" 0 (Sim.Trace.enter Sim.Trace.disabled ~op:"x");
  Sim.Trace.leave Sim.Trace.disabled ~op:"x" ~start:0 ~arg:0 ~outcome:"ok";
  check_int "disabled records nothing" 0 (Sim.Trace.recorded Sim.Trace.disabled)

(* Recording allocates nothing: ring slots are overwritten in place and
   the histogram is flat. Measured with the ring already full, so every
   event overwrites a slot. *)
let closed_body () = ()

let test_recording_allocates_nothing () =
  let tr, clock = mk ~capacity:64 () in
  for _ = 1 to 128 do
    Sim.Trace.span tr ~op:"span" closed_body;
    Sim.Trace.record tr ~op:"point" ~start:(Sim.Clock.now clock) ()
  done;
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      f ()
    done;
    int_of_float (Gc.minor_words () -. w0)
  in
  check_int "10,000 records allocate nothing" 0
    (words (fun () -> Sim.Trace.record tr ~op:"point" ~start:(Sim.Clock.now clock) ()));
  check_int "10,000 spans with a closed body allocate nothing" 0
    (words (fun () -> Sim.Trace.span tr ~op:"span" closed_body));
  check_int "every event recorded" 20_256 (Sim.Trace.recorded tr)

(* [reset] drops every histogram, so the name cache in front of them must
   forget them too; an equal op name built at run time shares the
   literal's histogram. *)
let test_reset_empties_name_cache () =
  let tr, _ = mk () in
  let count op = match Sim.Trace.latency tr op with Some h -> Sim.Histogram.count h | None -> 0 in
  Sim.Trace.span tr ~op:(String.concat "" [ "wa"; "lk" ]) closed_body;
  for _ = 1 to 3 do
    Sim.Trace.span tr ~op:"walk" closed_body
  done;
  check_int "literal and built name share one histogram" 4 (count "walk");
  Sim.Trace.reset tr;
  Sim.Trace.span tr ~op:"walk" closed_body;
  check_int "one span after reset" 1 (count "walk")

let test_disabled_sentinel () =
  let tr = Sim.Trace.disabled in
  check_bool "disabled" false (Sim.Trace.enabled tr);
  Sim.Trace.record tr ~op:"x" ~start:0 ();
  check_int "record is a no-op" 0 (Sim.Trace.recorded tr);
  check_int "span still runs f" 9 (Sim.Trace.span tr ~op:"x" (fun () -> 9));
  check_int "no events" 0 (List.length (Sim.Trace.events tr))

let test_json_well_formed () =
  let tr, clock = mk ~capacity:8 () in
  let start = Sim.Clock.now clock in
  Sim.Clock.charge clock 11;
  Sim.Trace.record tr ~op:"needs \"escaping\"\n" ~start ~arg:4096 ~outcome:"hit" ();
  Sim.Trace.record tr ~op:"walk" ~start ~arg:2 ();
  let s = Sim.Json.to_string ~pretty:true (Sim.Trace.to_json tr) in
  match Sim.Json.of_string s with
  | Error e -> Alcotest.fail ("trace JSON does not parse: " ^ e)
  | Ok v ->
    check_bool "ops object present" true (Sim.Json.member v "ops" <> None);
    (match Sim.Json.member v "recorded" with
    | Some (Sim.Json.Int n) -> check_int "recorded field" 2 n
    | _ -> Alcotest.fail "recorded field missing");
    (match Sim.Json.member v "events" with
    | Some (Sim.Json.List evs) -> check_int "both events exported" 2 (List.length evs)
    | _ -> Alcotest.fail "events field missing")

let test_json_events_limit () =
  let tr, clock = mk ~capacity:8 () in
  for i = 1 to 5 do
    let start = Sim.Clock.now clock in
    Sim.Clock.charge clock 1;
    Sim.Trace.record tr ~op:"op" ~start ~arg:i ()
  done;
  match Sim.Json.member (Sim.Trace.to_json ~events_limit:2 tr) "events" with
  | Some (Sim.Json.List evs) ->
    check_int "limited to newest 2" 2 (List.length evs);
    let args =
      List.map (fun e -> match Sim.Json.member e "arg" with Some (Sim.Json.Int a) -> a | _ -> -1) evs
    in
    Alcotest.(check (list int)) "keeps the newest events" [ 4; 5 ] args
  | _ -> Alcotest.fail "events field missing"

let test_json_op_ring_occupancy () =
  let tr, clock = mk () in
  (* 6 "hot" records against capacity 4: the ring wraps, so the op summary
     must distinguish total recorded from events still in the ring. *)
  for i = 1 to 6 do
    let start = Sim.Clock.now clock in
    Sim.Clock.charge clock 1;
    Sim.Trace.record tr ~op:"hot" ~start ~arg:i ()
  done;
  let op_field name =
    match Sim.Json.member (Sim.Trace.to_json tr) "ops" with
    | Some ops -> (
      match Sim.Json.member ops "hot" with
      | Some summary -> (
        match Sim.Json.member summary name with
        | Some (Sim.Json.Int n) -> n
        | _ -> Alcotest.fail (name ^ " missing from op summary"))
      | None -> Alcotest.fail "hot op missing")
    | None -> Alcotest.fail "ops object missing"
  in
  check_int "recorded counts wrapped events" 6 (op_field "recorded");
  check_int "in_ring capped at capacity" 4 (op_field "in_ring")

let suite =
  [
    Alcotest.test_case "trace: create validation" `Quick test_create_validation;
    Alcotest.test_case "trace: ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "trace: span nesting" `Quick test_span_nesting;
    Alcotest.test_case "trace: span outcome + exception" `Quick test_span_outcome_and_exception;
    Alcotest.test_case "trace: span feeds every sink" `Quick test_span_feeds_every_sink;
    Alcotest.test_case "trace: enter/leave match span" `Quick test_enter_leave_match_span;
    Alcotest.test_case "trace: recording allocates nothing" `Quick test_recording_allocates_nothing;
    Alcotest.test_case "trace: disabled sentinel" `Quick test_disabled_sentinel;
    Alcotest.test_case "trace: JSON well-formed" `Quick test_json_well_formed;
    Alcotest.test_case "trace: JSON events_limit" `Quick test_json_events_limit;
    Alcotest.test_case "trace: JSON op recorded vs in_ring" `Quick test_json_op_ring_occupancy;
    Alcotest.test_case "trace: reset empties the name cache" `Quick test_reset_empties_name_cache;
  ]
