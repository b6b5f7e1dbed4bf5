(* P1 — where do the cycles go? H1 — what does the host pay?

   Both replay the allocation-churn workload with a Sim.Profile attached
   to the machine trace, so every syscall/fault/TLB/zeroing span lands
   in one call tree. The profiler attaches AFTER machine and heap setup:
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
  Sim.Trace.attach_profile (K.trace k) profile;
  let driver =
    if host then begin
      let op name f =
        Sim.Profile.span profile name @@ fun () ->
        let r = f () in
        Sim.Profile.sample_self profile;
        r
      in
      {
        Wl.Churn.h_malloc = (fun ~bytes -> op "malloc" (fun () -> driver.Wl.Churn.h_malloc ~bytes));
        h_free = (fun va -> op "free" (fun () -> driver.Wl.Churn.h_free va));
        h_touch = (fun ~va ~bytes -> op "touch" (fun () -> driver.Wl.Churn.h_touch ~va ~bytes));
      }
    end
    else begin
      Sim.Stats.set_sample_interval (K.stats k) ~cycles:sample_interval_cycles;
      driver
    end
  in
  ignore (Wl.Churn.run trace driver);
  (k, profile)

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
