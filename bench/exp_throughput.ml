(* T1 — wall-clock throughput of the simulator itself: real ops/sec
   (monotonic host clock, NOT the virtual clock) over the churn and
   fs-study workloads.

   Variance-aware: every scenario runs [trials] times and reports the
   median with the inter-quartile range, because a single wall-clock
   number on a shared machine is mostly noise. `bench-diff` reports the
   medians and never gates on them: a trial is too short to resolve a
   10% change, so the section's value is the trajectory, not any single
   run. *)

let run_churn backend ~ops =
  let _, trace, driver = Bench_env.churn ~ops backend in
  Wl.Churn.run trace driver

let run_fs_study ~machines ~years =
  let r =
    Wl.Fs_study.run ~rng:(Sim.Rng.create ~seed:2017)
      { Wl.Fs_study.default_params with Wl.Fs_study.machines; years }
  in
  r.Wl.Fs_study.samples

(* Explicit presets, not shared knobs: --smoke is a small-n preset whose
   cost is predictable in CI, and it still runs every workload (and every
   trial) at least once. The full sizes are for trajectory numbers. *)
type preset = { churn_ops : int; fs_machines : int; fs_years : int; trials : int }

let full_preset = { churn_ops = 5000; fs_machines = 100; fs_years = 3; trials = 5 }
let smoke_preset = { churn_ops = 200; fs_machines = 10; fs_years = 2; trials = 3 }
let preset ~smoke = if smoke then smoke_preset else full_preset

let scenarios p =
  [
    ("churn_malloc", fun () -> run_churn `Malloc ~ops:p.churn_ops);
    ("churn_fom", fun () -> run_churn `Fom ~ops:p.churn_ops);
    ("fs_study", fun () -> run_fs_study ~machines:p.fs_machines ~years:p.fs_years);
  ]

type measurement = {
  name : string;
  ops : int;  (* as returned by the run; identical across trials (deterministic workload) *)
  seconds : float list;  (* one wall-clock timing per trial *)
  ops_per_sec : float list;
  median_ops_per_sec : float;
  iqr_ops_per_sec : float;
  p25 : float;
  p75 : float;
  median_seconds : float;
}

let time_trial f =
  let t0 = Bench_env.now_ns () in
  let ops = f () in
  let seconds = float_of_int (max 1 (Bench_env.now_ns () - t0)) /. 1e9 in
  (ops, seconds)

let measure_one ~trials (name, f) =
  let runs = List.init trials (fun _ -> time_trial f) in
  let ops = match runs with (n, _) :: _ -> n | [] -> 0 in
  let seconds = List.map snd runs in
  let ops_per_sec = List.map (fun s -> float_of_int ops /. Float.max s 1e-9) seconds in
  let p25, med, p75 = Sim.Regress.quartiles ops_per_sec in
  {
    name;
    ops;
    seconds;
    ops_per_sec;
    median_ops_per_sec = med;
    iqr_ops_per_sec = p75 -. p25;
    p25;
    p75;
    median_seconds = Sim.Regress.median seconds;
  }

let measure ~smoke =
  let p = preset ~smoke in
  List.map (measure_one ~trials:p.trials) (scenarios p)

let to_json ?(smoke = false) () =
  let p = preset ~smoke in
  Sim.Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Sim.Json.Obj
             [
               ("ops", Sim.Json.Int m.ops);
               ("trials", Sim.Json.Int p.trials);
               ("seconds", Sim.Json.List (List.map (fun s -> Sim.Json.Float s) m.seconds));
               ( "ops_per_sec_trials",
                 Sim.Json.List (List.map (fun s -> Sim.Json.Float s) m.ops_per_sec) );
               ("median_ops_per_sec", Sim.Json.Float m.median_ops_per_sec);
               ("p25_ops_per_sec", Sim.Json.Float m.p25);
               ("p75_ops_per_sec", Sim.Json.Float m.p75);
               ("iqr_ops_per_sec", Sim.Json.Float m.iqr_ops_per_sec);
               ("median_seconds", Sim.Json.Float m.median_seconds);
             ] ))
       (measure ~smoke))

let run ?(smoke = false) () =
  let p = preset ~smoke in
  Bench_env.print_header "T1"
    "Host throughput (wall clock, ops/sec) of the simulator over real workloads.";
  let t =
    Sim.Table.create
      ~title:
        (Printf.sprintf "T1 - wall-clock throughput, %d trials%s" p.trials
           (if smoke then " (smoke preset)" else ""))
      ~columns:[ "scenario"; "ops"; "median s"; "median ops/sec"; "IQR ops/sec"; "IQR/median" ]
  in
  List.iter
    (fun m ->
      Sim.Table.add_row t
        [
          m.name;
          string_of_int m.ops;
          Sim.Table.cell_float ~dp:3 m.median_seconds;
          Sim.Table.cell_float ~dp:0 m.median_ops_per_sec;
          Sim.Table.cell_float ~dp:0 m.iqr_ops_per_sec;
          Sim.Table.cell_float ~dp:3 (m.iqr_ops_per_sec /. Float.max m.median_ops_per_sec 1e-9);
        ])
    (measure ~smoke);
  Sim.Table.print t
