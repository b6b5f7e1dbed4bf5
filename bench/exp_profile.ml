(* P1 — where do the cycles go? H1 — what does the host pay?

   Both replay the allocation-churn workload with a Sim.Profile attached
   to the machine trace, so every syscall/fault/TLB/zeroing span lands
   in one call tree, and its event in the trace ring. The profiler
   attaches AFTER machine and heap setup, and the ring is cleared then:
   boot-time cycles (struct page init etc.) are out of scope, and the
   attributed fraction measures how much of the measured workload's
   cost lands in named spans.

   P1 attributes virtual cycles only, with a fixed seed, so its export
   is byte-identical across runs and hosts. H1 gives the profiler a host
   clock, so every path also gets host ns/op, allocated words/op and a
   host-ns-per-simulated-cycle ratio. It wraps each driver op
   (malloc/free/touch) in a root span so the driver's own host cost
   lands in the tree too, and samples the self-gauges (OCaml heap words,
   GC collections, RSS) inside that span so their cost is attributed,
   not hidden. Word and cycle counts are deterministic for a fixed
   binary; only the ns values are host noise. *)

module K = Os.Kernel

let default_ops = 400
let sample_interval_cycles = 50_000

(* Build machine + heap, attach the profiler, replay the churn trace.
   Returns the kernel (for gauges and procfs rollups) and the profile. *)
let run_churn ?(ops = default_ops) ?(host = false) backend =
  let k, trace, driver = Bench_env.churn ~ops backend in
  let now_ns = if host then Some Bench_env.now_ns else None in
  let profile = Sim.Profile.create ~clock:(K.clock k) ?now_ns () in
  Sim.Trace.reset (K.trace k);
  Sim.Trace.attach_profile (K.trace k) profile;
  let driver =
    if host then begin
      (* Each root span opens before the driver does anything, so the
         op's own host cost is attributed: the closure-free span form,
         not a body closure built ahead of the span. *)
      let tr = K.trace k in
      let enter op = Sim.Trace.enter tr ~op in
      let leave op start =
        Sim.Profile.sample_self profile;
        Sim.Trace.leave tr ~op ~start ~arg:0 ~outcome:"ok"
      in
      let raised op start e =
        Sim.Trace.leave_raised tr ~op ~start;
        raise e
      in
      {
        Wl.Churn.h_malloc =
          (fun ~bytes ->
            let start = enter "malloc" in
            match driver.Wl.Churn.h_malloc ~bytes with
            | va ->
              leave "malloc" start;
              va
            | exception e -> raised "malloc" start e);
        h_free =
          (fun va ->
            let start = enter "free" in
            match driver.Wl.Churn.h_free va with
            | () -> leave "free" start
            | exception e -> raised "free" start e);
        h_touch =
          (fun ~va ~bytes ->
            let start = enter "touch" in
            match driver.Wl.Churn.h_touch ~va ~bytes with
            | () -> leave "touch" start
            | exception e -> raised "touch" start e);
      }
    end
    else begin
      Sim.Stats.set_sample_interval (K.stats k) ~cycles:sample_interval_cycles;
      driver
    end
  in
  ignore (Wl.Churn.run trace driver);
  (k, profile)

(* P1's Chrome export (chrome://tracing, Perfetto, speedscope): the
   trace ring's span slices of a [run_churn], virtual cycles shown as
   microseconds. *)
let chrome_json (k, profile) =
  let trace = K.trace k in
  Sim.Json.Obj
    [
      ("traceEvents", Sim.Json.List (Sim.Trace.chrome_events trace));
      ("displayTimeUnit", Sim.Json.String "ms");
      ( "otherData",
        Sim.Json.Obj
          [
            ("clock", Sim.Json.String "virtual cycles exported as microseconds");
            ("dropped_events", Sim.Json.Int (Sim.Trace.dropped trace));
            ("unattributed_cycles", Sim.Json.Int (Sim.Profile.unattributed profile));
          ] );
    ]

(* The "profile" section: P1's attribution summary, full call tree, and
   the gauge registry after the profiled churn_fom run. *)
let to_json ?(ops = default_ops) () =
  let k, profile = run_churn ~ops `Fom in
  Sim.Json.Obj
    [
      ("workload", Sim.Json.String "churn_fom");
      ("ops", Sim.Json.Int ops);
      ("profile", Sim.Profile.to_json profile);
      ("gauges", Sim.Stats.gauges_to_json (K.stats k));
    ]

(* The "host" section: H1 per churn backend. Word/call/vcycle counts are
   deterministic per binary, so bench-diff gates on them; ns is
   report-only. *)
let host_json ?(ops = default_ops) () =
  let backend_json backend = Sim.Profile.host_json (snd (run_churn ~ops ~host:true backend)) in
  Sim.Json.Obj
    [
      ("ops", Sim.Json.Int ops);
      ("churn_malloc", backend_json `Malloc);
      ("churn_fom", backend_json `Fom);
    ]
