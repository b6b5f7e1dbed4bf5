(* Benchmark harness: regenerates every table and figure of the paper
   (sections E1..E17, A*, C1, R1, R2 and T1, printed as tables of *simulated*
   time). The simulator's own host speed is measured by the repo
   benchmark, perfbench/, not here. *)

let run_tables () =
  Printf.printf "o1mem bench harness - reproduction of 'Towards O(1) Memory' (HotOS'17)\n";
  Format.printf "%a@." Sim.Cost_model.pp ();
  Printf.printf "All times below are simulated (virtual 2GHz clock), deterministic.\n";
  List.iter Experiments.Groups.run Experiments.Groups.all

(* ------------------------------------------------------------------ *)
(* --json [--out FILE]: run the deterministic metrics workload (plus the
   complexity sweeps) and write the JSON export to FILE, defaulting to
   BENCH_<date>.json. The default file name depends on the host (today's
   date), and the appended "host" section (host-cost attribution: ns
   noisy, allocated words deterministic) mixes in host measurements;
   everything else is purely virtual-clock-derived and byte-identical
   across machines — which is why bench-diff gates on those sections and
   on host allocated words, and only reports host ns. *)

let run_json () =
  let rec out_arg = function
    | "--out" :: f :: _ -> Some f
    | _ :: tl -> out_arg tl
    | [] -> None
  in
  let file =
    match out_arg (Array.to_list Sys.argv) with
    | Some f -> f
    | None ->
      let tm = Unix.localtime (Unix.time ()) in
      Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
        tm.Unix.tm_mday
  in
  let json =
    match Experiments.Exp_metrics.run_to_json ~events_limit:256 () with
    | Sim.Json.Obj fields ->
      Sim.Json.Obj (fields @ [ ("host", Experiments.Exp_profile.host_json ()) ])
    | other -> other
  in
  let oc = open_out file in
  output_string oc (Sim.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

let () =
  if Array.exists (( = ) "--json") Sys.argv then run_json ()
  else begin
    run_tables ();
    Printf.printf "\nDone.\n"
  end
