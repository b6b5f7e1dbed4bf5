open Helpers

let test_units_basic () =
  check_int "kib" 4096 (Sim.Units.kib 4);
  check_int "mib" (1024 * 1024) (Sim.Units.mib 1);
  check_int "gib" (1024 * 1024 * 1024) (Sim.Units.gib 1);
  check_int "tib" (Sim.Units.gib 1024) (Sim.Units.tib 1);
  check_int "page size" 4096 Sim.Units.page_size;
  check_int "2m" (Sim.Units.mib 2) Sim.Units.huge_2m;
  check_int "1g" (Sim.Units.gib 1) Sim.Units.huge_1g

let test_units_pages () =
  check_int "zero bytes" 0 (Sim.Units.pages_of_bytes 0);
  check_int "one byte" 1 (Sim.Units.pages_of_bytes 1);
  check_int "exactly one page" 1 (Sim.Units.pages_of_bytes 4096);
  check_int "one over" 2 (Sim.Units.pages_of_bytes 4097)

let test_units_round () =
  check_int "up aligned" 8192 (Sim.Units.round_up 8192 ~align:4096);
  check_int "up" 8192 (Sim.Units.round_up 4097 ~align:4096);
  check_int "down" 4096 (Sim.Units.round_down 8191 ~align:4096);
  check_bool "aligned" true (Sim.Units.is_aligned 8192 ~align:4096);
  check_bool "unaligned" false (Sim.Units.is_aligned 8191 ~align:4096)

let test_units_log2 () =
  check_bool "pow2 1" true (Sim.Units.is_power_of_two 1);
  check_bool "pow2 1024" true (Sim.Units.is_power_of_two 1024);
  check_bool "pow2 1023" false (Sim.Units.is_power_of_two 1023);
  check_bool "pow2 0" false (Sim.Units.is_power_of_two 0);
  check_int "log2c 1" 0 (Sim.Units.log2_ceil 1);
  check_int "log2c 5" 3 (Sim.Units.log2_ceil 5);
  check_int "log2f 5" 2 (Sim.Units.log2_floor 5);
  check_int "log2f 8" 3 (Sim.Units.log2_floor 8)

let test_units_pp () =
  check_string "bytes" "64KiB" (Sim.Units.bytes_to_string (Sim.Units.kib 64));
  check_string "odd" "4097B" (Sim.Units.bytes_to_string 4097);
  check_string "gib" "2GiB" (Sim.Units.bytes_to_string (Sim.Units.gib 2))

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:42 and b = Sim.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_copy () =
  let a = Sim.Rng.create ~seed:7 in
  ignore (Sim.Rng.int a 10);
  let b = Sim.Rng.copy a in
  check_int "copy continues identically" (Sim.Rng.int a 1_000_000) (Sim.Rng.int b 1_000_000)

let test_rng_bounds () =
  let r = Sim.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let w = Sim.Rng.int_in r ~lo:5 ~hi:9 in
    check_bool "int_in range" true (w >= 5 && w <= 9);
    let f = Sim.Rng.float r in
    check_bool "float range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_zipf () =
  let r = Sim.Rng.create ~seed:3 in
  let counts = Array.make 100 0 and zipf = Sim.Rng.zipf ~n:100 ~theta:0.9 in
  for _ = 1 to 10_000 do
    let v = zipf r in
    check_bool "zipf in range" true (v >= 0 && v < 100);
    counts.(v) <- counts.(v) + 1
  done;
  check_bool "zipf is skewed towards low ranks" true (counts.(0) > counts.(50))

(* Rank 0 comes up with probability 1/zeta(n), beyond 10,000 ranks too. *)
let test_rng_zipf_large_n () =
  let n = 20_000 and theta = 0.99 and draws = 20_000 in
  let zeta = ref 0.0 in
  for i = 1 to n do
    zeta := !zeta +. (1.0 /. (float_of_int i ** theta))
  done;
  let zipf = Sim.Rng.zipf ~n ~theta and r = Sim.Rng.create ~seed:5 and zeros = ref 0 in
  for _ = 1 to draws do
    if zipf r = 0 then incr zeros
  done;
  let freq = float_of_int !zeros /. float_of_int draws in
  check_bool
    (Printf.sprintf "rank-0 frequency %.4f within 1 point of 1/zeta(n) = %.4f" freq (1.0 /. !zeta))
    true
    (Float.abs (freq -. (1.0 /. !zeta)) <= 0.01)

let test_rng_shuffle () =
  let r = Sim.Rng.create ~seed:11 in
  let a = Array.init 50 Fun.id in
  Sim.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_clock_charge () =
  let c = Sim.Clock.create () in
  check_int "starts at zero" 0 (Sim.Clock.now c);
  Sim.Clock.charge c 100;
  Sim.Clock.charge c 23;
  check_int "accumulates" 123 (Sim.Clock.now c);
  check_int "elapsed" 23 (Sim.Clock.elapsed c ~since:100);
  Sim.Clock.reset c;
  check_int "reset" 0 (Sim.Clock.now c)

let test_clock_time () =
  let c = Sim.Clock.create () in
  let r, cyc = Sim.Clock.time c (fun () -> Sim.Clock.charge c 55; "x") in
  check_string "result" "x" r;
  check_int "cycles" 55 cyc

let test_cost_model_conversion () =
  Alcotest.(check (float 1e-9)) "2000 cycles at 2GHz = 1us" 1.0 (Sim.Clock.us 2000);
  check_int "zero cost of a page" 1024 (Sim.Cost_model.zero_cost ~bytes:4096);
  check_int "copy cost" 512 (Sim.Cost_model.copy_cost ~bytes:4096)

let test_stats () =
  let s = Sim.Stats.create () in
  check_int "unset is zero" 0 (Sim.Stats.get s "x");
  Sim.Stats.incr s "x";
  Sim.Stats.add s "x" 4;
  Sim.Stats.incr s "y";
  check_int "x" 5 (Sim.Stats.get s "x");
  let snap = Sim.Stats.snapshot s in
  Alcotest.(check (list (pair string int))) "snapshot sorted" [ ("x", 5); ("y", 1) ] snap;
  Sim.Stats.incr s "x";
  let d = Sim.Stats.diff ~before:snap ~after:(Sim.Stats.snapshot s) in
  Alcotest.(check (list (pair string int))) "diff" [ ("x", 1) ] d;
  Sim.Stats.reset s;
  check_int "reset" 0 (Sim.Stats.get s "x")

(* The name cache in front of the tables must never change a count: an
   equal name built at run time is another block, names sharing a cache
   slot evict each other, and a reset keeps cached cells in use. *)
let test_stats_name_cache () =
  let s = Sim.Stats.create () in
  let built = String.concat "_" [ "tlb"; "miss" ] in
  Sim.Stats.incr s "tlb_miss";
  Sim.Stats.add s built 2;
  Sim.Stats.incr s "tlb_miss";
  check_int "literal and built name share one counter" 4 (Sim.Stats.get s "tlb_miss");
  Sim.Stats.add_gauge s "depth" 3;
  Sim.Stats.add_gauge s (String.concat "" [ "de"; "pth" ]) 2;
  check_int "literal and built name share one gauge" 5 (Sim.Stats.gauge s "depth");
  (* More names than cache slots: some must share a slot. *)
  let names = Array.init 600 (Printf.sprintf "n%d") in
  for round = 1 to 3 do
    Array.iteri (fun i n -> if i mod round = 0 then Sim.Stats.add s n (i + 1)) names
  done;
  Array.iteri
    (fun i n ->
      let bumps = List.length (List.filter (fun r -> i mod r = 0) [ 1; 2; 3 ]) in
      check_int n (bumps * (i + 1)) (Sim.Stats.get s n))
    names;
  Sim.Stats.reset s;
  Sim.Stats.incr s "tlb_miss";
  check_int "one bump after reset" 1 (Sim.Stats.get s "tlb_miss");
  Sim.Stats.incr s names.(7);
  check_int "one bump of an evicted name after reset" 1 (Sim.Stats.get s "n7")

let test_histogram () =
  let h = Sim.Histogram.create () in
  check_int "empty count" 0 (Sim.Histogram.count h);
  List.iter (Sim.Histogram.observe h) [ 1; 2; 3; 4; 100 ];
  check_int "count" 5 (Sim.Histogram.count h);
  check_int "total" 110 (Sim.Histogram.total h);
  check_int "min" 1 (Sim.Histogram.min_value h);
  check_int "max" 100 (Sim.Histogram.max_value h);
  Alcotest.(check (float 0.01)) "mean" 22.0 (Sim.Histogram.mean h);
  check_bool "p50 below p99" true (Sim.Histogram.percentile h 50.0 <= Sim.Histogram.percentile h 99.0)

let test_histogram_rejects_negative () =
  let h = Sim.Histogram.create () in
  Sim.Histogram.observe h 3;
  Alcotest.check_raises "latencies cannot be negative"
    (Invalid_argument "Histogram.observe: negative sample") (fun () -> Sim.Histogram.observe h (-1));
  check_int "rejected sample not recorded" 1 (Sim.Histogram.count h)

let test_histogram_stddev () =
  let h = Sim.Histogram.create () in
  check_bool "empty stddev is 0" true (Sim.Histogram.stddev h = 0.0);
  Sim.Histogram.observe h 5;
  check_bool "singleton stddev is 0" true (Sim.Histogram.stddev h = 0.0);
  (* [2; 4; 4; 4; 5; 5; 7; 9] is the classic population-stddev example:
     mean 5, stddev exactly 2. *)
  let h = Sim.Histogram.create () in
  List.iter (Sim.Histogram.observe h) [ 2; 4; 4; 4; 5; 5; 7; 9 ];
  Alcotest.(check (float 1e-9)) "population stddev" 2.0 (Sim.Histogram.stddev h);
  match Sim.Json.member (Sim.Histogram.to_json h) "stddev" with
  | Some (Sim.Json.Float v) -> Alcotest.(check (float 1e-9)) "stddev exported" 2.0 v
  | _ -> Alcotest.fail "stddev field missing from to_json"

let test_table_render () =
  let t = Sim.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Sim.Table.add_row t [ "1"; "2" ];
  Sim.Table.add_row t [ "333"; "4" ];
  let s = Sim.Table.render t in
  check_bool "title present" true (String.length s > 0 && String.sub s 0 7 = "== demo");
  check_bool "contains row" true (Helpers.contains ~needle:"333" s)

let json_error s =
  match Sim.Json.of_string s with
  | Ok _ -> Alcotest.failf "parser accepted %S" s
  | Error e -> e

let test_json_roundtrip () =
  let v =
    Sim.Json.Obj
      [
        ("a", Sim.Json.List [ Sim.Json.Int 1; Sim.Json.Float 2.5; Sim.Json.Null ]);
        ("b", Sim.Json.Obj [ ("nested", Sim.Json.Bool true) ]);
        ("s", Sim.Json.String "quote \" slash \\ tab \t");
      ]
  in
  (match Sim.Json.of_string (Sim.Json.to_string v) with
  | Ok v' -> check_bool "compact round trip" true (v = v')
  | Error e -> Alcotest.fail e);
  match Sim.Json.of_string (Sim.Json.to_string ~pretty:true v) with
  | Ok v' -> check_bool "pretty round trip" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_truncated () =
  check_bool "truncated object" true
    (Helpers.contains ~needle:"expected" (json_error {|{"a": 1|}));
  check_bool "truncated list" true (Helpers.contains ~needle:"expected" (json_error "[1, 2"));
  check_bool "truncated string" true
    (Helpers.contains ~needle:"unterminated string" (json_error {|"abc|}));
  check_bool "truncated escape" true
    (Helpers.contains ~needle:"unterminated escape" (json_error "\"a\\"));
  check_bool "truncated unicode escape" true
    (Helpers.contains ~needle:"\\u escape" (json_error {|"\u00|}));
  check_bool "lone minus" true (Helpers.contains ~needle:"digit" (json_error "-"));
  check_bool "empty input" true (Helpers.contains ~needle:"unexpected" (json_error ""))

let test_json_trailing_garbage () =
  check_bool "trailing token" true (Helpers.contains ~needle:"trailing" (json_error "1 x"));
  check_bool "two documents" true (Helpers.contains ~needle:"trailing" (json_error "{} {}"));
  check_bool "trailing ws alone is fine" true
    (Sim.Json.of_string "  {}  \n" = Ok (Sim.Json.Obj []))

let test_json_bad_tokens () =
  check_bool "bad escape" true (Helpers.contains ~needle:"bad escape" (json_error {|"\q"|}));
  check_bool "bad \\u" true (Helpers.contains ~needle:"bad \\u escape" (json_error {|"\uzzzz"|}));
  check_bool "unquoted key" true (Helpers.contains ~needle:"expected" (json_error "{a: 1}"));
  check_bool "error reports offset" true (Helpers.contains ~needle:"at offset" (json_error "[1,]"))

let test_json_deep_nesting () =
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Sim.Json.of_string (deep 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 100 should parse: %s" e);
  check_bool "default depth cap" true
    (Helpers.contains ~needle:"nesting too deep" (json_error (deep 5000)));
  check_bool "explicit cap" true
    (match Sim.Json.of_string ~max_depth:3 "[[[[1]]]]" with
    | Error e -> Helpers.contains ~needle:"nesting too deep" e
    | Ok _ -> false);
  check_bool "objects count too" true
    (match Sim.Json.of_string ~max_depth:2 {|{"a": {"b": {"c": 1}}}|} with
    | Error e -> Helpers.contains ~needle:"nesting too deep" e
    | Ok _ -> false);
  check_bool "at the cap is fine" true
    (Sim.Json.of_string ~max_depth:2 "[[1]]"
    = Ok (Sim.Json.List [ Sim.Json.List [ Sim.Json.Int 1 ] ]))

(* Property tests *)

let prop_round_up_ge =
  qtest "round_up >= n and aligned"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 0 10))
    (fun (n, k) ->
      let align = 1 lsl k in
      let r = Sim.Units.round_up n ~align in
      r >= n && Sim.Units.is_aligned r ~align && r - n < align)

let prop_round_down_le =
  qtest "round_down <= n and aligned"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 0 10))
    (fun (n, k) ->
      let align = 1 lsl k in
      let r = Sim.Units.round_down n ~align in
      r <= n && Sim.Units.is_aligned r ~align && n - r < align)

let prop_log2 =
  qtest "log2_floor/ceil bracket n" QCheck2.Gen.(int_range 1 1_000_000) (fun n ->
      let f = Sim.Units.log2_floor n and c = Sim.Units.log2_ceil n in
      (1 lsl f) <= n && n <= (1 lsl c) && c - f <= 1)

let prop_histogram_percentile_bounds =
  qtest "percentile bounded by min/max"
    QCheck2.Gen.(pair (list_size (int_range 1 50) (int_bound 10_000)) (float_bound_inclusive 100.0))
    (fun (samples, p) ->
      let h = Sim.Histogram.create () in
      List.iter (Sim.Histogram.observe h) samples;
      let v = Sim.Histogram.percentile h p in
      Sim.Histogram.min_value h <= v && v <= Sim.Histogram.max_value h)

let prop_histogram_percentile_monotone =
  qtest "percentile monotone in p"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 50) (int_bound 10_000))
        (float_bound_inclusive 100.0) (float_bound_inclusive 100.0))
    (fun (samples, p1, p2) ->
      let h = Sim.Histogram.create () in
      List.iter (Sim.Histogram.observe h) samples;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Sim.Histogram.percentile h lo <= Sim.Histogram.percentile h hi)

let test_histogram_percentile_clamped () =
  (* Regression: a single sample of 100 lands in bucket [64, 128); the raw
     bucket bound is 128, but every percentile must report a value that was
     actually possible, i.e. within [min, max]. *)
  let h = Sim.Histogram.create () in
  Sim.Histogram.observe h 100;
  check_int "p50 of a singleton" 100 (Sim.Histogram.percentile h 50.0);
  check_int "p100 does not overshoot max" 100 (Sim.Histogram.percentile h 100.0);
  Sim.Histogram.observe h 3;
  let p0 = Sim.Histogram.percentile h 0.0 in
  check_bool "p0 stays within [min, max]" true (p0 >= 3 && p0 <= 100);
  check_int "empty histogram percentile" 0 (Sim.Histogram.percentile (Sim.Histogram.create ()) 99.0)

(* Every charged cycle is named in Sim.Cost_model: no lib file but
   cost_model.ml passes a bare integer literal, as in [charge t 40] or
   [Sim.Clock.charge clock (8)], as the cycles argument of
   Sim.Clock.charge or of a local [charge] helper. A text scan: the word
   "charge", one argument (a name or a parenthesised expression), then
   the cycles. Each offence reads "file:line". *)
let bare_charges ~file s =
  let n = String.length s in
  let name_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false in
  let rec skip p i = if i < n && p s.[i] then skip p (i + 1) else i in
  let blank = skip (fun c -> c = ' ' || c = '\n') in
  let digits = skip (fun c -> (c >= '0' && c <= '9') || c = '_') in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let rec close i depth =
    if i >= n then n
    else
      match s.[i] with
      | '(' -> close (i + 1) (depth + 1)
      | ')' -> if depth = 1 then i + 1 else close (i + 1) (depth - 1)
      | _ -> close (i + 1) depth
  in
  let arg i =
    if i < n && s.[i] = '(' then close (i + 1) 1 else skip (fun c -> name_char c || c = '.') i
  in
  let literal i =
    digit i
    || i < n && s.[i] = '('
       && digit (blank (i + 1))
       && (let j = blank (digits (blank (i + 1))) in j < n && s.[j] = ')')
  in
  let word = "charge" in
  let w = String.length word in
  let offences = ref [] and line = ref 1 in
  for i = 0 to n - w - 1 do
    if s.[i] = '\n' then incr line;
    if
      s.[i] = 'c'
      && String.sub s i w = word
      && (i = 0 || not (name_char s.[i - 1]))
      && blank (i + w) > i + w
      && literal (blank (arg (blank (i + w))))
    then offences := Printf.sprintf "%s:%d" file !line :: !offences
  done;
  List.rev !offences

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then if f.[0] = '.' then [] else ml_files path
         else if Filename.check_suffix f ".ml" then [ path ]
         else [])

(* `dune runtest` runs from _build/default/test, whose parent holds the
   copies the test's deps declare; `dune exec test/main.exe` runs from
   the repo root. *)
let test_cost_table () =
  let here d = Sys.file_exists (Filename.concat d "sim/cost_model.ml") in
  match List.find_opt here [ "lib"; "../lib" ] with
  | None -> Alcotest.fail "lib sources not found"
  | Some lib ->
    let files = List.filter (fun f -> Filename.basename f <> "cost_model.ml") (ml_files lib) in
    check_bool "scanned the lib sources" true (List.length files > 50);
    Alcotest.(check (list string))
      "the scan's own cases" [ "a:1"; "b:2" ]
      (List.concat_map
         (fun (file, s) -> bare_charges ~file s)
         [
           ("a", "charge t 40;");
           ("b", "let f t =\n  Sim.Clock.charge (clock t) ( 8 )");
           ("c", "charge t (2 * x); charge t Sim.Cost_model.ipi; try_charge t 4; charged 3");
         ]);
    Alcotest.(check (list string))
      "charge sites passing a bare cycle count" []
      (List.concat_map
         (fun file -> bare_charges ~file (In_channel.with_open_bin file In_channel.input_all))
         files)

let suite =
  [
    Alcotest.test_case "units: basic sizes" `Quick test_units_basic;
    Alcotest.test_case "units: pages_of_bytes" `Quick test_units_pages;
    Alcotest.test_case "units: rounding" `Quick test_units_round;
    Alcotest.test_case "units: log2 helpers" `Quick test_units_log2;
    Alcotest.test_case "units: pretty printing" `Quick test_units_pp;
    Alcotest.test_case "rng: determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: copy" `Quick test_rng_copy;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: zipf skew" `Quick test_rng_zipf;
    Alcotest.test_case "rng: zipf beyond 10,000 ranks" `Quick test_rng_zipf_large_n;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick test_rng_shuffle;
    Alcotest.test_case "clock: charge/elapsed/reset" `Quick test_clock_charge;
    Alcotest.test_case "clock: time wrapper" `Quick test_clock_time;
    Alcotest.test_case "cost model: conversions" `Quick test_cost_model_conversion;
    Alcotest.test_case "stats: counters and diff" `Quick test_stats;
    Alcotest.test_case "histogram: moments" `Quick test_histogram;
    Alcotest.test_case "histogram: negative samples rejected" `Quick
      test_histogram_rejects_negative;
    Alcotest.test_case "histogram: stddev" `Quick test_histogram_stddev;
    Alcotest.test_case "histogram: percentile clamped to observed range" `Quick
      test_histogram_percentile_clamped;
    Alcotest.test_case "table: renders" `Quick test_table_render;
    Alcotest.test_case "json: round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: truncated inputs rejected" `Quick test_json_truncated;
    Alcotest.test_case "json: trailing garbage rejected" `Quick test_json_trailing_garbage;
    Alcotest.test_case "json: bad tokens rejected with offsets" `Quick test_json_bad_tokens;
    Alcotest.test_case "json: nesting depth capped" `Quick test_json_deep_nesting;
    prop_round_up_ge;
    prop_round_down_le;
    prop_log2;
    prop_histogram_percentile_bounds;
    prop_histogram_percentile_monotone;
    Alcotest.test_case "stats: name cache never changes a count" `Quick test_stats_name_cache;
    Alcotest.test_case "cost table: every charged cycle is named" `Quick test_cost_table;
  ]
