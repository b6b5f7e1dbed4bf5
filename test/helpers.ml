(* Shared fixtures for the test suite. *)

let mk_env () =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  (clock, stats)

let mk_mem ?(dram = Sim.Units.mib 64) ?(nvm = Sim.Units.mib 64) () =
  let clock, stats = mk_env () in
  Physmem.Phys_mem.create ~clock ~stats ~dram_bytes:dram ~nvm_bytes:nvm ()

let small_config =
  {
    Os.Kernel.default_config with
    Os.Kernel.dram_bytes = Sim.Units.mib 64;
    nvm_bytes = Sim.Units.mib 64;
  }

let mk_kernel ?(config = small_config) () = Os.Kernel.create ~config ()

(* Words the host has allocated so far, direct major allocations
   included. Read after a full major collection: in OCaml 5.1 a direct
   major allocation reaches [major_words] only at a later major slice,
   so without it a reading can take in words allocated before the last
   one (and the minor counts move with how full the minor heap was). *)
let host_words () =
  Gc.full_major ();
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* Words the host allocates per call of [f], over [n] calls. *)
let words_per_call n f =
  let w0 = host_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (host_words () -. w0) /. float_of_int n

(* Free frames of the kernel's pool: the buddy and the zero engine's
   pending frames and pool. *)
let pooled k =
  Alloc.Buddy.free_frames_count (Os.Kernel.buddy k)
  + Physmem.Zero_engine.pending (Os.Kernel.zero_engine k)
  + Physmem.Zero_engine.available (Os.Kernel.zero_engine k)

let mk_fom ?config ?strategy () =
  let kernel = mk_kernel ?config () in
  let fom = O1mem.Fom.create kernel ?strategy () in
  (kernel, fom)

(* A page table whose node frames come from a trivial bump counter —
   enough for pure MMU tests that never touch the frames. *)
let mk_page_table ?(levels = 4) () =
  let clock, stats = mk_env () in
  let next = ref 0 in
  let alloc_frame () =
    incr next;
    !next
  in
  (Hw.Page_table.create ~clock ~stats ~levels ~alloc_frame ~free_frame:ignore, clock, stats)

(* A live trace on [clock] with profiler [p] attached: every Trace.span
   on it opens a frame in [p]. *)
let traced clock p =
  let tr = Sim.Trace.create ~clock () in
  Sim.Trace.attach_profile tr p;
  tr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

(* The "traceEvents" of a Chrome trace-event document, after a round trip
   through the printer and the parser: the export must be valid JSON. *)
let trace_events json =
  match Sim.Json.of_string (Sim.Json.to_string json) with
  | Error e -> Alcotest.fail ("trace JSON does not parse: " ^ e)
  | Ok doc -> (
    match Sim.Json.member doc "traceEvents" with
    | Some (Sim.Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents list")

(* An event's field as a string, ints printed: enough to compare any
   scalar of a trace event. *)
let event_field e name =
  match Sim.Json.member e name with
  | Some (Sim.Json.String s) -> s
  | Some (Sim.Json.Int i) -> string_of_int i
  | _ -> Alcotest.fail ("trace event without " ^ name)
