(* R2 — does the store survive? The robustness experiment behind the
   "store" section of the bench JSON:

   - recovery vs population: preload n objects (YCSB-style zipfian
     updates), checkpoint, run a fixed 8-transaction burst, lose power
     with a transaction in flight, and fit the charged recovery cost
     against n. The store's persistence story only holds if recovery is
     O(files + WAL records) — the object count must not appear in the
     fit (the manifest snapshot is a persistent-index stand-in that
     recovery re-maps, not reads);
   - recovery vs log length: same machine, fixed 512 objects, growing
     post-checkpoint burst — recovery may grow with the records it
     replays, but no worse than linearly;
   - the crash explorer: power failure at every clwb/sfence/WAL boundary
     of a mixed put/delete/grow burst, plus torn-line and bit-flip arms
     whose damage must be detected (truncation or EIO), never served;
   - the "store" fault plan: injected allocation/commit/apply faults
     under load, a mid-plan crash, and an over-capacity commit that must
     degrade to a typed ENOSPC.

   Everything runs on the virtual clock with fixed seeds: deterministic
   across runs and hosts. *)

module K = Os.Kernel
module C = Sim.Complexity
module Kv = Store.Kv
open Bench_env

let store_machine () =
  let k = kernel ~dram:(Sim.Units.mib 64) ~nvm:(Sim.Units.mib 64) () in
  (k, O1mem.Fom.create k ())

let key i = Printf.sprintf "obj%04d" i
let value i v = String.make (64 + ((i * 13) mod 64)) (Char.chr (Char.code 'a' + ((i + v) mod 26)))

(* Preload in batches (the WAL auto-checkpoints when full), then cut the
   log so the burst is the only thing recovery replays. *)
let preload st ~keys =
  let batch = 64 in
  let i = ref 1 in
  while !i <= keys do
    ignore (Kv.begin_txn st);
    for j = !i to min keys (!i + batch - 1) do
      Kv.put st (key j) (value j 0)
    done;
    Kv.commit st;
    i := !i + batch
  done;
  Kv.checkpoint st

(* YCSB-flavoured update burst: 4 zipfian re-puts per transaction plus a
   root move to the last key written (so roots always name live data). *)
let burst st ~keys ~txns ~seed =
  let rng = Sim.Rng.create ~seed and zipf = Sim.Rng.zipf ~n:keys ~theta:0.99 in
  for c = 1 to txns do
    ignore (Kv.begin_txn st);
    let last = ref 1 in
    for _ = 1 to 4 do
      let i = 1 + zipf rng in
      Kv.put st (key i) (value i c);
      last := i
    done;
    Kv.set_root st "hot" (key !last);
    Kv.commit st
  done

(* One crash/recovery measurement: power fails with a transaction in
   flight; the charged recovery cost and the replay count come back. *)
let recovery_point ~keys ~txns =
  let k, fom = store_machine () in
  let p = K.create_process k () in
  let st = Kv.create fom p ~manifest_bytes:(Sim.Units.kib 256) ~name:"/bench" () in
  preload st ~keys;
  burst st ~keys ~txns ~seed:(keys + txns);
  ignore (Kv.begin_txn st);
  Kv.put st (key 1) (String.make 80 'x');
  let report = O1mem.Persistence.crash_and_recover fom in
  let cycles = report.O1mem.Persistence.recovery_cycles in
  let replayed = Kv.last_replayed st in
  let violations = List.length (Kv.verify st) in
  Kv.detach st;
  (cycles, replayed, violations)

let keys_sweep = [ 256; 512; 1024; 2048 ]
let records_sweep = [ 8; 16; 32; 64 ]
let fixed_txns = 8
let fixed_keys = 512

type results = {
  keys_points : (int * int * int) list; (* keys, cycles, replayed *)
  keys_fit : C.fit;
  rec_points : (int * int * int) list; (* txns, cycles, replayed *)
  rec_fit : C.fit;
  sweep_violations : int;
  explorer : O1mem.Chaos.report;
  degradation : O1mem.Chaos.plan_outcome;
}

let results =
  lazy
    (let viol = ref 0 in
     let keys_points =
       List.map
         (fun n ->
           let c, r, v = recovery_point ~keys:n ~txns:fixed_txns in
           viol := !viol + v;
           (n, c, r))
         keys_sweep
     in
     let rec_points =
       List.map
         (fun txns ->
           let c, r, v = recovery_point ~keys:fixed_keys ~txns in
           viol := !viol + v;
           (txns, c, r))
         records_sweep
     in
     let sweep_violations = !viol in
     {
       keys_points;
       keys_fit = C.fit (List.map (fun (n, c, _) -> (n, c)) keys_points);
       rec_points;
       rec_fit = C.fit (List.map (fun (t, c, _) -> (t, c)) rec_points);
       sweep_violations;
       explorer = Store.Chaos.explore_store ~keys:6 ~txns:3 ~seed:17 ();
       degradation = Store.Chaos.run_plan ~seed:42 ~rounds:12 ();
     })

let to_json () =
  let r = Lazy.force results in
  let fit_fields f = match C.fit_to_json f with Sim.Json.Obj l -> l | _ -> [] in
  let sweep name pts fit =
    ( name,
      Sim.Json.Obj
        (( "points",
           Sim.Json.List
             (List.map
                (fun (n, c, rep) ->
                  Sim.Json.Obj
                    [
                      ("n", Sim.Json.Int n);
                      ("cycles", Sim.Json.Int c);
                      ("replayed", Sim.Json.Int rep);
                    ])
                pts) )
        :: fit_fields fit) )
  in
  Sim.Json.Obj
    [
      sweep "recovery_keys" r.keys_points r.keys_fit;
      sweep "recovery_records" r.rec_points r.rec_fit;
      ("sweep_violations", Sim.Json.Int r.sweep_violations);
      ("explorer", Exp_faults.explorer_json r.explorer);
      ( "degradation",
        Sim.Json.Obj
          [
            ("plan", Sim.Json.String r.degradation.O1mem.Chaos.plan);
            ("injected", Sim.Json.Int r.degradation.O1mem.Chaos.injected_total);
            ("enomem", Sim.Json.Int r.degradation.O1mem.Chaos.enomem);
            ("enospc", Sim.Json.Int r.degradation.O1mem.Chaos.enospc);
            ("retried", Sim.Json.Int r.degradation.O1mem.Chaos.retried);
            ("violations", Sim.Json.Int (List.length r.degradation.O1mem.Chaos.checks));
          ] );
    ]

let run () =
  let r = Lazy.force results in
  print_header "R2 - does the store survive?"
    "Transactional object store on the FOM heap: crash at every durable boundary, detect every torn write, recover in O(files + WAL records).";
  let t =
    Sim.Table.create ~title:"R2 - store robustness summary"
      ~columns:[ "probe"; "result"; "verdict" ]
  in
  Sim.Table.add_row t
    [
      Printf.sprintf "recovery vs objects (%d..%d, %d-txn burst)" (List.hd keys_sweep)
        (List.nth keys_sweep (List.length keys_sweep - 1))
        fixed_txns;
      Printf.sprintf "%s (exponent %.2f)" (C.cls_name r.keys_fit.C.cls) r.keys_fit.C.exponent;
      (if C.rank r.keys_fit.C.cls < C.rank C.Linear then "object count absent: ok"
       else "O(objects): BAD");
    ];
  Sim.Table.add_row t
    [
      Printf.sprintf "recovery vs burst (%d objects, %d..%d txns)" fixed_keys
        (List.hd records_sweep)
        (List.nth records_sweep (List.length records_sweep - 1));
      Printf.sprintf "%s (exponent %.2f)" (C.cls_name r.rec_fit.C.cls) r.rec_fit.C.exponent;
      (if C.rank r.rec_fit.C.cls <= C.rank C.Linear then "O(WAL records): ok" else "SUPERLINEAR");
    ];
  Sim.Table.add_row t (Exp_faults.explorer_row "store crash explorer" r.explorer);
  Sim.Table.add_row t
    [
      "store fault plan";
      Printf.sprintf "%d injected, %d enospc, %d retried" r.degradation.O1mem.Chaos.injected_total
        r.degradation.O1mem.Chaos.enospc r.degradation.O1mem.Chaos.retried;
      (if r.degradation.O1mem.Chaos.checks = [] then "invariants: ok" else "VIOLATIONS");
    ];
  print_string (Sim.Table.render t)
