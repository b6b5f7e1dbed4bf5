(* R2 — does the store survive? The robustness experiment behind the
   "store" section of the bench JSON:

   - recovery cost: [recovery_point] preloads n objects, cuts the log,
     runs a burst of YCSB-style zipfian update transactions, loses power
     with a transaction in flight and returns the charged recovery cost.
     C1 fits it twice, and both must be O(1): against the object count
     under a fixed 8-txn burst (store_recovery_keys), because the index
     is in place in NVM, and against the burst over 512 objects
     (store_recovery_records), because the log holds one record, so
     recovery redoes one transaction: O(files);
   - commit and get cost against the object count ([live_set_point];
     store_commit_keys and store_get_keys in C1): both must be O(1);
   - commit and miss cost against delete/insert churn ([churn_point];
     store_commit_churn and store_get_churn in C1): a delete shortens the
     probe chains its insert lengthened, so both must stay O(1) however
     many distinct keys have passed through the index;
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

(* Preload in batches of 64 (a record must fit the WAL), then empty the
   log so the burst is the only thing recovery can redo. *)
let preload st ~keys =
  let i = ref 1 in
  while !i <= keys do
    Kv.begin_txn st;
    for j = !i to min keys (!i + 63) do
      Kv.put st (key j) (value j 0)
    done;
    Kv.commit st;
    i := !i + 64
  done;
  Kv.checkpoint st

(* YCSB-flavoured update burst: 4 zipfian re-puts per transaction plus a
   root move to the last key written (so roots always name live data). *)
let burst st ~keys ~txns ~seed =
  let rng = Sim.Rng.create ~seed and zipf = Sim.Rng.zipf ~n:keys ~theta:0.99 in
  for c = 1 to txns do
    Kv.begin_txn st;
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
  Kv.begin_txn st;
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

(* The live-set sweeps share one machine per key count: [keys] objects
   preloaded, one charged get of a preloaded key (store_get_keys), then
   the slowest commit of a fixed 32-transaction burst (store_commit_keys). *)
let live_set_points = Hashtbl.create 4

let live_set_point ~keys =
  match Hashtbl.find_opt live_set_points keys with
  | Some p -> p
  | None ->
    let k, fom = store_machine () in
    let st = Kv.create fom (K.create_process k ()) ~manifest_bytes:(Sim.Units.kib 256) ~name:"/bench" () in
    preload st ~keys;
    let got, get = Sim.Clock.time (K.clock k) (fun () -> Kv.get st (key 1)) in
    if got <> Some (value 1 0) then failwith "Exp_store.live_set_point: preloaded value not served";
    let rng = Sim.Rng.create ~seed:7 and zipf = Sim.Rng.zipf ~n:keys ~theta:0.99 in
    let slowest = ref 0 in
    for c = 1 to 32 do
      Kv.begin_txn st;
      for _ = 1 to 4 do
        let i = 1 + zipf rng in
        Kv.put st (key i) (value i c)
      done;
      slowest := max !slowest (snd (Sim.Clock.time (K.clock k) (fun () -> Kv.commit st)))
    done;
    Kv.detach st;
    Hashtbl.replace live_set_points keys (get, !slowest);
    (get, !slowest)

(* The churn sweeps share one machine per churned-key count: 64 objects
   on a 4 KiB index (64 bucket lines), then [keys] fresh keys put and
   deleted again, 96 per transaction, so lines keep filling and emptying
   (a quarter to two thirds of the entries in use). Measured on the same
   live set at every count: 16 gets of absent keys (store_get_churn) and
   one commit of 8 fresh puts (store_commit_churn). *)
let churn_points = Hashtbl.create 4

let churn_point ~keys =
  match Hashtbl.find_opt churn_points keys with
  | Some p -> p
  | None ->
    let k, fom = store_machine () in
    let st =
      Kv.create fom (K.create_process k ()) ~manifest_bytes:(Sim.Units.kib 4) ~name:"/bench" ()
    in
    preload st ~keys:64;
    let fresh i = Printf.sprintf "churn%05d" i in
    for r = 0 to (keys / 96) - 1 do
      Kv.begin_txn st;
      for j = 0 to 95 do
        Kv.put st (fresh ((96 * r) + j)) "v"
      done;
      Kv.commit st;
      Kv.begin_txn st;
      for j = 0 to 95 do
        Kv.delete st (fresh ((96 * r) + j))
      done;
      Kv.commit st
    done;
    let misses, miss =
      Sim.Clock.time (K.clock k) (fun () ->
          List.init 16 (fun j -> Kv.get st (Printf.sprintf "miss%02d" j)))
    in
    if List.exists Option.is_some misses then failwith "Exp_store.churn_point: an absent key was served";
    Kv.begin_txn st;
    for j = 1 to 8 do
      Kv.put st (Printf.sprintf "new%d" j) "v"
    done;
    let (), commit = Sim.Clock.time (K.clock k) (fun () -> Kv.commit st) in
    if Kv.object_count st <> 72 then failwith "Exp_store.churn_point: churn changed the live set";
    Kv.detach st;
    Hashtbl.replace churn_points keys (miss, commit);
    (miss, commit)

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
    "Transactional object store on the FOM heap: crash at every durable boundary, detect every torn write, recover in O(files).";
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
