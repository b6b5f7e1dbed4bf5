(* R1 — does it survive? The robustness experiment behind the "faults"
   section of the bench JSON:

   - recovery scaling: [recovery_point] crashes and recovers n
     persistent FOM files and returns the charged recovery cost; C1's
     fs_recovery_files sweep fits it, because the paper's persistence
     story only holds if recovery is O(files), i.e. O(1) per file;
   - injection overhead: the exact same workload with the fault plane
     detached vs attached-but-never-firing must cost the same cycles —
     the plane is free when off;
   - graceful degradation: a sustained frame-allocation fault plan, and
     how often the reclaim-then-retry pass saved the allocation vs a
     typed OOM;
   - the crash explorers: power failure at every durable boundary of a
     WAL workload and of a full FOM machine, with zero invariant
     violations.

   Everything runs on the virtual clock with fixed seeds, so every
   number here is bit-identical across runs and hosts. *)

module K = Os.Kernel
module F = O1mem.Fom
module FI = Sim.Fault_inject
open Bench_env

(* ------------------------- recovery scaling ------------------------ *)

let recovery_point n =
  let k, fom = kernel_and_fom ~dram:(Sim.Units.mib 64) ~nvm:(Sim.Units.mib 64) () in
  let p = K.create_process k () in
  for i = 1 to n do
    ignore
      (F.alloc fom p ~name:(Printf.sprintf "/r%d" i) ~persistence:Fs.Inode.Persistent
         ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ())
  done;
  (O1mem.Persistence.crash_and_recover fom).O1mem.Persistence.recovery_cycles

(* ------------------------ injection overhead ------------------------ *)

(* A workload that crosses every injection site: anonymous faults
   (frame_alloc_fail, zero_cache_empty), munmap shootdowns
   (tlb_ack_lost), and journaled FOM allocation on PMFS (quota_enospc,
   wal_partial_flush, nvm_torn_line, nvm_bit_flip, durable_step). *)
let overhead_workload k =
  let fom = F.create k () in
  let p = K.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  K.munmap k p ~va ~len;
  ignore (K.background_zero k ~budget_frames:8);
  let r = F.alloc fom p ~name:"/ovh" ~persistence:Fs.Inode.Persistent ~len:(Sim.Units.kib 32)
      ~prot:Hw.Prot.rw () in
  ignore (F.access_range fom p ~va:r.F.va ~len:r.F.len ~write:true ~stride:Sim.Units.page_size);
  F.free fom p r

let overhead_cycles ~attached =
  let k = kernel ~dram:(Sim.Units.mib 64) ~nvm:(Sim.Units.mib 64) () in
  if attached then begin
    (* Attached and armed, but at probability zero: every site is
       consulted on its hot path yet never fires. *)
    let plane = FI.create ~seed:3 ~stats:(K.stats k) () in
    Sim.Trace.attach_faults (K.trace k) plane;
    List.iter (fun site -> FI.arm plane ~site (FI.Prob 0.0)) FI.all_sites
  end;
  overhead_workload k;
  Sim.Clock.now (K.clock k)

(* ------------------------------ results ----------------------------- *)

type results = {
  cycles_off : int;
  cycles_on : int;
  degradation : O1mem.Chaos.plan_outcome;
  wal : O1mem.Chaos.report;
  fs : O1mem.Chaos.report;
}

let results =
  lazy
    {
      cycles_off = overhead_cycles ~attached:false;
      cycles_on = overhead_cycles ~attached:true;
      degradation = O1mem.Chaos.run_plan ~seed:42 ~plan:"alloc" ();
      wal = O1mem.Chaos.explore_wal ~records:6 ~seed:7 ();
      fs = O1mem.Chaos.explore_fs ~files:4 ~seed:11 ();
    }

(* One exporter, one summary row and one detection phrase for every
   crash explorer's report, the store's included. *)
let explorer_json (r : O1mem.Chaos.report) =
  Sim.Json.Obj
    ([
       ("steps", Sim.Json.Int r.steps);
       ("fences", Sim.Json.Int r.fences);
       ("crashes", Sim.Json.Int r.crashes);
     ]
    @ List.map (fun (arm, n) -> (arm ^ "_detections", Sim.Json.Int n)) r.detections
    @ [ ("violations", Sim.Json.Int (List.length r.violations)) ])

let detections_text (r : O1mem.Chaos.report) =
  match r.detections with
  | [] -> ""
  | ds ->
    let arm (name, n) = Printf.sprintf "%d %s" n name in
    ", " ^ String.concat " + " (List.map arm ds) ^ " detections"

let explorer_row label (r : O1mem.Chaos.report) =
  [
    label;
    Printf.sprintf "%d steps, %d crashes%s" r.steps r.crashes (detections_text r);
    (if r.violations = [] && r.steps > 0 then "recovered: ok" else "VIOLATIONS");
  ]

let to_json () =
  let r = Lazy.force results in
  Sim.Json.Obj
    [
      ( "overhead",
        Sim.Json.Obj
          [
            ("cycles_off", Sim.Json.Int r.cycles_off);
            ("cycles_on", Sim.Json.Int r.cycles_on);
            ("zero_cost_when_off", Sim.Json.Bool (r.cycles_off = r.cycles_on));
          ] );
      ( "degradation",
        Sim.Json.Obj
          [
            ("plan", Sim.Json.String r.degradation.O1mem.Chaos.plan);
            ("injected", Sim.Json.Int r.degradation.O1mem.Chaos.injected_total);
            ("enomem", Sim.Json.Int r.degradation.O1mem.Chaos.enomem);
            ("enospc", Sim.Json.Int r.degradation.O1mem.Chaos.enospc);
            ("retried", Sim.Json.Int r.degradation.O1mem.Chaos.retried);
            ("reclaimed_frames", Sim.Json.Int r.degradation.O1mem.Chaos.reclaimed_frames);
            ("ooms", Sim.Json.Int r.degradation.O1mem.Chaos.ooms);
            ("violations", Sim.Json.Int (List.length r.degradation.O1mem.Chaos.checks));
          ] );
      ( "explorer",
        Sim.Json.Obj [ ("wal", explorer_json r.wal); ("fs", explorer_json r.fs) ] );
    ]

let run () =
  let r = Lazy.force results in
  print_header "R1 - does it survive?"
    "Crash at every durable step, recover, check invariants; inject faults under load and degrade with typed errors.";
  let t =
    Sim.Table.create ~title:"R1 - robustness summary"
      ~columns:[ "probe"; "result"; "verdict" ]
  in
  Sim.Table.add_row t
    [
      "injection plane off vs armed-never";
      Printf.sprintf "%d vs %d cycles" r.cycles_off r.cycles_on;
      (if r.cycles_off = r.cycles_on then "zero-cost: ok" else "COSTS CYCLES");
    ];
  Sim.Table.add_row t
    [
      "alloc plan degradation";
      Printf.sprintf "%d injected, %d retried, %d oom" r.degradation.O1mem.Chaos.injected_total
        r.degradation.O1mem.Chaos.retried r.degradation.O1mem.Chaos.ooms;
      (if r.degradation.O1mem.Chaos.checks = [] then "invariants: ok" else "VIOLATIONS");
    ];
  Sim.Table.add_row t (explorer_row "WAL crash explorer" r.wal);
  Sim.Table.add_row t (explorer_row "FS crash explorer" r.fs);
  print_string (Sim.Table.render t)
