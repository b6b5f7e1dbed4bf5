(* R2 — does the store survive? The robustness experiment behind the
   "store" section of the bench JSON:

   - recovery cost: [recovery_point] preloads n objects, checkpoints,
     runs a burst of YCSB-style zipfian update transactions, loses power
     with a transaction in flight and returns the charged recovery cost.
     C1 fits it twice. Against the object count under a fixed 8-txn
     burst (store_recovery_keys), it must be O(1): the store's
     persistence story only holds if recovery is O(files + WAL records),
     and the manifest snapshot is a persistent-index stand-in that
     recovery re-maps, not reads. Against the burst over 512 objects
     (store_recovery_records), it grows with the records it replays;
   - the crash explorer: power failure at every clwb/sfence/WAL boundary
     of a mixed put/delete/grow burst, plus torn-line and bit-flip arms
     whose damage must be detected (truncation or EIO), never served;
   - the "store" fault plan: injected allocation/commit/apply faults
     under load, a mid-plan crash, and an over-capacity commit that must
     degrade to a typed ENOSPC.

   Everything runs on the virtual clock with fixed seeds: deterministic
   across runs and hosts. *)

module K = Os.Kernel
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
   flight; the charged recovery cost comes back. Raises if the recovered
   store fails [Kv.verify]. *)
let recovery_point ~keys ~txns =
  let k, fom = store_machine () in
  let p = K.create_process k () in
  let st = Kv.create fom p ~manifest_bytes:(Sim.Units.kib 256) ~name:"/bench" () in
  preload st ~keys;
  burst st ~keys ~txns ~seed:(keys + txns);
  ignore (Kv.begin_txn st);
  Kv.put st (key 1) (String.make 80 'x');
  let cycles = (O1mem.Persistence.crash_and_recover fom).O1mem.Persistence.recovery_cycles in
  (match Kv.verify st with
  | [] -> ()
  | v :: _ ->
    failwith
      (Printf.sprintf "Exp_store.recovery_point ~keys:%d ~txns:%d: %s" keys txns
         (Os.Check.violation_to_string v)));
  Kv.detach st;
  cycles

type results = {
  explorer : O1mem.Chaos.report;
  degradation : O1mem.Chaos.plan_outcome;
}

let results =
  lazy
    {
      explorer = Store.Chaos.explore_store ~keys:6 ~txns:3 ~seed:17 ();
      degradation = Store.Chaos.run_plan ~seed:42 ~rounds:12 ();
    }

let to_json () =
  let r = Lazy.force results in
  Sim.Json.Obj
    [
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
  Sim.Table.add_row t (Exp_faults.explorer_row "store crash explorer" r.explorer);
  Sim.Table.add_row t
    [
      "store fault plan";
      Printf.sprintf "%d injected, %d enospc, %d retried" r.degradation.O1mem.Chaos.injected_total
        r.degradation.O1mem.Chaos.enospc r.degradation.O1mem.Chaos.retried;
      (if r.degradation.O1mem.Chaos.checks = [] then "invariants: ok" else "VIOLATIONS");
    ];
  print_string (Sim.Table.render t)
