(* The persistent object store: transactions, recovery, damage
   detection, degradation, and the crash explorer. *)

open Helpers
module K = Os.Kernel
module P = O1mem.Persistence
module Kv = Store.Kv
module SC = Store.Chaos
module FI = Sim.Fault_inject

let store_config =
  {
    Os.Kernel.default_config with
    Os.Kernel.dram_bytes = Sim.Units.mib 8;
    nvm_bytes = Sim.Units.mib 8;
  }

let mk_store ?(seed = 1) ?manifest_bytes () =
  let kernel = K.create ~config:store_config () in
  let plane = FI.create ~seed ~stats:(K.stats kernel) () in
  Sim.Trace.attach_faults (K.trace kernel) plane;
  let fom = O1mem.Fom.create kernel () in
  let proc = K.create_process kernel () in
  let st = Kv.create fom proc ?manifest_bytes ~name:"/kv" () in
  (kernel, fom, plane, st)

let commit_put st kvs roots =
  Kv.begin_txn st;
  List.iter (fun (k, v) -> Kv.put st k v) kvs;
  List.iter (fun (r, k) -> Kv.set_root st r k) roots;
  Kv.commit st

(* ------------------------------ basics ------------------------------ *)

let test_basic () =
  let kernel, _, _, st = mk_store () in
  commit_put st [ ("alpha", "one"); ("beta", String.make 200 'b') ] [ ("head", "alpha") ];
  Alcotest.(check (option string)) "get" (Some "one") (Kv.get st "alpha");
  Alcotest.(check (option string)) "get big" (Some (String.make 200 'b')) (Kv.get st "beta");
  Alcotest.(check (option string)) "root" (Some "alpha") (Kv.root st "head");
  check_int "count" 2 (Kv.object_count st);
  check_bool "no open txn" false (Kv.txn_live st);
  check_int "gauge tracks objects" 2 (Sim.Stats.gauge (K.stats kernel) "store_objects");
  check_bool "wal holds the txn" true (Kv.wal_record_count st > 0);
  Alcotest.(check (list string)) "keys sorted" [ "alpha"; "beta" ] (Kv.keys st);
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  let clock = K.clock kernel in
  let c0 = Sim.Clock.now clock in
  ignore (Kv.verify st, Kv.keys st, Kv.roots st, Os.Check.run kernel);
  check_int "checkers and introspection charge nothing" c0 (Sim.Clock.now clock);
  ignore (Kv.get st "alpha");
  check_bool "a get is charged" true (Sim.Clock.now clock > c0);
  Kv.detach st

let test_abort_discards () =
  let _, _, _, st = mk_store () in
  commit_put st [ ("keep", "v") ] [];
  Kv.begin_txn st;
  Kv.put st "drop" "x";
  Kv.delete st "keep";
  Kv.abort st;
  check_bool "aborted put invisible" false (Kv.mem st "drop");
  Alcotest.(check (option string)) "aborted delete undone" (Some "v") (Kv.get st "keep");
  Kv.detach st

let test_delete_clears_roots () =
  let _, _, _, st = mk_store () in
  commit_put st [ ("a", "1"); ("b", "2") ] [ ("head", "a"); ("tail", "b") ];
  Kv.begin_txn st;
  Kv.delete st "a";
  Kv.commit st;
  Alcotest.(check (option string)) "root of deleted key cleared" None (Kv.root st "head");
  Alcotest.(check (option string)) "other root intact" (Some "b") (Kv.root st "tail");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* A root name has no length cap, so a root's block, and the list of the
   roots naming a key, can outgrow the largest user block. *)
let test_long_root_names () =
  let _, fom, _, st = mk_store () in
  let names = [ String.make 20_000 'a'; String.make 9_000 'b'; String.make 9_000 'c' ] in
  commit_put st [ ("k", "v") ] (List.map (fun r -> (r, "k")) names);
  List.iter (fun r -> Alcotest.(check (option string)) "root" (Some "k") (Kv.root st r)) names;
  ignore (P.crash_and_recover fom);
  Alcotest.(check (list (pair string string)))
    "roots survive recovery" (List.sort compare (List.map (fun r -> (r, "k")) names)) (Kv.roots st);
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

let test_validation () =
  let kernel, fom, _, st = mk_store () in
  Alcotest.check_raises "no txn" (Invalid_argument "Store: no open transaction") (fun () ->
      Kv.put st "k" "v");
  Kv.begin_txn st;
  Alcotest.check_raises "double begin" (Invalid_argument "Store.begin_txn: transaction already open")
    (fun () -> Kv.begin_txn st);
  Alcotest.check_raises "empty key" (Invalid_argument "Store.put: bad key") (fun () ->
      Kv.put st "" "v");
  Alcotest.check_raises "oversized value" (Invalid_argument "Store.put: bad value size") (fun () ->
      Kv.put st "k" (String.make (Sim.Units.kib 17) 'x'));
  Kv.abort st;
  Kv.begin_txn st;
  Kv.put st "k" "v";
  Kv.set_root st "head" "missing";
  Alcotest.check_raises "root naming a dead key"
    (Invalid_argument "Store.commit: root \"head\" names \"missing\", which is not live there")
    (fun () -> Kv.commit st);
  check_bool "rejected commit rolled back" false (Kv.txn_live st || Kv.mem st "k");
  Alcotest.check_raises "relative name" (Invalid_argument "Store.create: name must be an absolute path")
    (fun () -> ignore (Kv.create fom (K.create_process kernel ()) ~name:"kv" ()));
  Alcotest.check_raises "create over an existing store"
    (Invalid_argument "Store.create: /kv.wal already exists (create never reopens a prior store)")
    (fun () -> ignore (Kv.create fom (K.create_process kernel ()) ~name:"/kv" ()));
  Kv.detach st

(* ------------------------------ recovery ---------------------------- *)

let test_crash_recovers_committed_prefix () =
  let _, fom, _, st = mk_store () in
  commit_put st [ ("stable", "before") ] [ ("head", "stable") ];
  let proc_before = Kv.proc st in
  Kv.begin_txn st;
  Kv.put st "inflight" "never committed";
  (* Power fails with the transaction open: nothing of it was logged. *)
  let report = P.crash_and_recover fom in
  check_bool "store hook ran" true
    (List.mem_assoc "store/kv" report.P.hook_records);
  Alcotest.(check (option string)) "committed survives" (Some "before") (Kv.get st "stable");
  Alcotest.(check (option string)) "root survives" (Some "stable") (Kv.root st "head");
  check_bool "in-flight txn gone" false (Kv.mem st "inflight");
  check_bool "open txn dropped" false (Kv.txn_live st);
  check_bool "recovery re-homed the store" true (not (Kv.proc st == proc_before));
  (* The relocated store keeps working. *)
  commit_put st [ ("after", "crash") ] [];
  Alcotest.(check (option string)) "post-recovery write" (Some "crash") (Kv.get st "after");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

let test_recover_twice_idempotent () =
  let kernel, fom, _, st = mk_store () in
  commit_put st [ ("a", "1"); ("b", String.make 300 'b') ] [ ("head", "b") ];
  ignore (P.crash_and_recover fom);
  let snap1 = (Kv.keys st, Kv.roots st, Kv.last_replayed st) in
  let gauge1 = Sim.Stats.gauge (K.stats kernel) "store_objects" in
  ignore (P.crash_and_recover fom);
  let snap2 = (Kv.keys st, Kv.roots st, Kv.last_replayed st) in
  check_bool "recover twice == recover once" true (snap1 = snap2);
  check_int "object gauge stable" gauge1 (Sim.Stats.gauge (K.stats kernel) "store_objects");
  check_int "wal gauge re-baselined" (Kv.wal_used_bytes st)
    (Sim.Stats.gauge (K.stats kernel) "store_wal_bytes");
  Alcotest.(check (option string)) "values intact" (Some "1") (Kv.get st "a");
  check_int "recover counted" 2 (Sim.Stats.get (K.stats kernel) "store_recover");
  Kv.detach st

let test_checkpoint_cuts_replay () =
  let _, fom, _, st = mk_store () in
  for i = 0 to 9 do
    commit_put st [ (Printf.sprintf "k%d" i, Printf.sprintf "v%d" i) ] []
  done;
  Kv.checkpoint st;
  check_int "wal cut" 0 (Kv.wal_record_count st);
  check_bool "generation bumped" true (Kv.generation st >= 1);
  ignore (P.crash_and_recover fom);
  check_int "nothing to replay after checkpoint" 0 (Kv.last_replayed st);
  check_int "all objects back from the index" 10 (Kv.object_count st);
  Alcotest.(check (option string)) "indexed data" (Some "v7") (Kv.get st "k7");
  (* Post-checkpoint commits replay on top of the index; the log holds
     only the newest one's record. *)
  commit_put st [ ("k2", "first") ] [];
  commit_put st [ ("k3", "updated") ] [];
  check_int "one record in the log" 1 (Kv.wal_record_count st);
  ignore (P.crash_and_recover fom);
  Alcotest.(check (option string)) "log wins over the index" (Some "updated") (Kv.get st "k3");
  Alcotest.(check (option string)) "earlier commit applied in place" (Some "first") (Kv.get st "k2");
  check_int "redid the newest record only" 1 (Kv.last_replayed st);
  Kv.detach st

(* The log's one record is the newest transaction's, so damage past it
   hides nothing: a crash inside a 3-put commit's apply (its 9th durable
   step after a checkpoint: one flush per block, the WAL append's five,
   then the first index line), plus a flipped byte in the blank header
   after its record, still redoes all three writes. *)
let test_damage_past_the_record_keeps_it () =
  let _, fom, plane, st = mk_store () in
  commit_put st [ ("k1", "old1"); ("k2", "old2") ] [];
  Kv.checkpoint st;
  FI.arm plane ~site:FI.site_durable_step (FI.On_nth (FI.evaluations plane ~site:FI.site_durable_step + 9));
  (match commit_put st [ ("k1", "new1"); ("k2", "new2"); ("k3", "new3") ] [] with
  | () -> Alcotest.fail "the armed crash never fired"
  | exception FI.Injected_crash _ -> ());
  FI.disarm plane ~site:FI.site_durable_step;
  let fsys = O1mem.Fom.fs fom in
  let base =
    match Fs.Memfs.file_extents fsys (Option.get (Fs.Memfs.lookup fsys "/kv.wal")) with
    | e :: _ -> Physmem.Frame.to_addr e.Fs.Extent.start
    | [] -> Alcotest.fail "WAL has no extents"
  in
  let mem = Fs.Memfs.mem fsys in
  let target = base + Kv.wal_used_bytes st + 3 in
  check_bool "the record is followed by a blank header" true
    (Bytes.for_all (( = ) '\000') (Physmem.Phys_mem.read mem ~addr:(target - 3) ~len:12));
  Physmem.Phys_mem.restore_range mem ~addr:target "\x5a";
  ignore (P.crash_and_recover fom);
  List.iter
    (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (Kv.get st k))
    [ ("k1", "new1"); ("k2", "new2"); ("k3", "new3") ];
  check_int "redid the record" 1 (Kv.last_replayed st);
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* ------------------------------ degradation ------------------------- *)

(* The record names each write's key and slot but carries no value: after
   a 4-put commit of 1 KiB values the log holds under 256 bytes (over
   4 KiB while the record carried the values). *)
let test_record_carries_no_value () =
  let _, _, _, st = mk_store () in
  commit_put st (List.init 4 (fun i -> (Printf.sprintf "key%d" i, String.make 1024 'v'))) [];
  let used = Kv.wal_used_bytes st in
  check_bool (Printf.sprintf "%d log bytes for 4 KiB of values < 256" used) true (used < 256);
  Kv.detach st

(* The WAL's 128 KiB caps one transaction's record, and so its keys: two
   70,000-byte roots over two fresh keys give a record of about 140 KB
   from six blocks that each fit an arena slot. *)
let commit_oversized st =
  commit_put st
    [ ("big1", "x"); ("big2", "y") ]
    [ (String.make 70_000 'r', "big1"); (String.make 70_000 's', "big2") ]

let test_enospc_typed_and_clean () =
  let _, _, _, st = mk_store () in
  commit_put st [ ("seed", "v") ] [];
  (try
     commit_oversized st;
     Alcotest.fail "oversized transaction must raise ENOSPC"
   with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  check_bool "txn rolled back" false (Kv.txn_live st);
  check_bool "no partial object" false (Kv.mem st "big1");
  Alcotest.(check (option string)) "prior state intact" (Some "v") (Kv.get st "seed");
  commit_put st [ ("after", "ok") ] [];
  Alcotest.(check (option string)) "store still usable" (Some "ok") (Kv.get st "after");
  Kv.detach st

(* A commit that overflows the WAL rolls back and writes nothing: it is
   refused before anything is allocated, so the log keeps the last
   commit's record, [generation] does not move, and a crash after a later
   successful commit never resurrects the rolled-back ops. *)
let test_failed_commit_orphans_cut () =
  let _, fom, _, st = mk_store () in
  commit_put st [ ("seed", "v") ] [];
  let generation = Kv.generation st in
  (try
     commit_oversized st;
     Alcotest.fail "oversized transaction must raise ENOSPC"
   with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  check_int "the log keeps the last commit's record" 1 (Kv.wal_record_count st);
  check_int "generation unchanged" generation (Kv.generation st);
  commit_put st [ ("after", "ok") ] [];
  ignore (P.crash_and_recover fom);
  check_bool "rolled-back put not resurrected" false (Kv.mem st "big1");
  Alcotest.(check (option string)) "seed intact" (Some "v") (Kv.get st "seed");
  Alcotest.(check (option string)) "later commit intact" (Some "ok") (Kv.get st "after");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* A root name has no length cap, so the list of the roots naming a key
   can reach the heap's large threshold, where its block would get no
   arena slot: the commit fails ENOSPC before anything is written or
   logged. Two 44,000-byte roots name one key; a third takes the list
   past the threshold, while its commit's record names only that root
   and fits the WAL. (One root's own block cannot get there: the record
   carries its name and key, so the WAL check refuses it first.) *)
let test_block_too_long_enospc () =
  let _, _, _, st = mk_store () in
  commit_put st [ ("k", "v") ] [];
  let name c = String.make 44_000 c in
  commit_put st [] [ (name 'a', "k") ];
  commit_put st [] [ (name 'b', "k") ];
  let before = (Kv.keys st, Kv.roots st, Kv.verify st, Kv.wal_used_bytes st) in
  (match commit_put st [] [ (name 'c', "k") ] with
  | () -> Alcotest.fail "a block past the large threshold committed"
  | exception Sim.Errno.Error (Sim.Errno.ENOSPC, what) ->
    Alcotest.(check string) "refused for its block" "Store.commit: block outgrows an arena slot" what);
  check_bool "txn rolled back" false (Kv.txn_live st);
  check_bool "keys, roots, verify and the log unchanged" true
    (before = (Kv.keys st, Kv.roots st, Kv.verify st, Kv.wal_used_bytes st));
  check_int "two roots" 2 (List.length (Kv.roots st));
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* At most three quarters of the index's entries may be in use, and a
   commit counts every put as a possible insert: one that could overfill
   the index fails ENOSPC before anything is allocated or logged, and the
   store still recovers and serves. *)
let test_index_full_enospc () =
  let kernel, fom, _, st = mk_store ~manifest_bytes:(Sim.Units.kib 1) () in
  (* 16 bucket lines of four entries: 48 may be in use. *)
  for i = 0 to 42 do
    commit_put st [ (Printf.sprintf "seedkey%03d" i, "v") ] []
  done;
  let logged = Kv.wal_used_bytes st in
  (try
     commit_put st (List.init 6 (fun j -> (Printf.sprintf "more%d" j, "x"))) [];
     Alcotest.fail "a commit that could overfill the index must raise ENOSPC"
   with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  check_bool "txn rolled back" false (Kv.txn_live st);
  check_int "nothing logged" logged (Kv.wal_used_bytes st);
  check_bool "no partial object" false (Kv.mem st "more0");
  commit_put st [ ("seedkey001", "after") ] [];
  ignore (P.crash_and_recover fom);
  check_int "every seed back" 43 (Kv.object_count st);
  Alcotest.(check (option string)) "later commit intact" (Some "after") (Kv.get st "seedkey001");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  check_int "Os.Check clean" 0 (List.length (Os.Check.run kernel));
  Kv.detach st

(* A bit flipped in an index line fails that line's checksum: recovery
   counts the damage, every key whose chain crosses the line reads as
   EIO, and no get ever serves a value that was not committed. *)
let test_index_bit_flip_detected () =
  let _, fom, _, st = mk_store ~manifest_bytes:(Sim.Units.kib 1) () in
  let kvs = List.init 12 (fun i -> (Printf.sprintf "k%02d" i, Printf.sprintf "value%02d" i)) in
  commit_put st kvs [];
  Kv.checkpoint st;
  let fsys = O1mem.Fom.fs fom in
  let ino = Option.get (Fs.Memfs.lookup fsys "/kv.manifest") in
  let base =
    match Fs.Memfs.file_extents fsys ino with
    | e :: _ -> Physmem.Frame.to_addr e.Fs.Extent.start
    | [] -> Alcotest.fail "index has no extents"
  in
  let mem = Fs.Memfs.mem fsys in
  let line =
    List.find
      (fun l -> Bytes.exists (( <> ) '\000') (Physmem.Phys_mem.read mem ~addr:(base + (l * 64)) ~len:64))
      (List.init 16 Fun.id)
  in
  let target = base + (line * 64) + 8 in
  let byte = Bytes.get (Physmem.Phys_mem.read mem ~addr:target ~len:1) 0 in
  Physmem.Phys_mem.restore_range mem ~addr:target (String.make 1 (Char.chr (Char.code byte lxor 0x10)));
  ignore (P.crash_and_recover fom);
  check_bool "recovery counted the damaged line" true (Kv.recovery_truncations st >= 1);
  let eio = ref 0 in
  List.iter
    (fun (k, v) ->
      match Kv.get st k with
      | Some got -> if got <> v then Alcotest.failf "%s served a value it never had" k
      | None -> Alcotest.failf "%s silently lost" k
      | exception Sim.Errno.Error (Sim.Errno.EIO, _) -> incr eio)
    kvs;
  check_bool "keys on the damaged line read as EIO" true (!eio >= 1);
  check_bool "verify reports the damage" true (Kv.verify st <> []);
  Kv.detach st

(* Live damage: a delete whose chain crosses a damaged index line cannot
   tell whether it removed the key's entry, so its commit fails EIO with
   nothing logged; a put of the same key goes past the line, and a get
   finds it first. *)
let test_delete_across_damage_refused () =
  let _, fom, _, st = mk_store ~manifest_bytes:(Sim.Units.kib 1) () in
  let kvs = List.init 12 (fun i -> (Printf.sprintf "k%02d" i, Printf.sprintf "value%02d" i)) in
  commit_put st kvs [];
  Kv.checkpoint st;
  let fsys = O1mem.Fom.fs fom in
  let ino = Option.get (Fs.Memfs.lookup fsys "/kv.manifest") in
  let base =
    match Fs.Memfs.file_extents fsys ino with
    | e :: _ -> Physmem.Frame.to_addr e.Fs.Extent.start
    | [] -> Alcotest.fail "index has no extents"
  in
  let mem = Fs.Memfs.mem fsys in
  let line =
    List.find
      (fun l -> Bytes.exists (( <> ) '\000') (Physmem.Phys_mem.read mem ~addr:(base + (l * 64)) ~len:64))
      (List.init 16 Fun.id)
  in
  let target = base + (line * 64) + 8 in
  let byte = Bytes.get (Physmem.Phys_mem.read mem ~addr:target ~len:1) 0 in
  Physmem.Phys_mem.restore_range mem ~addr:target (String.make 1 (Char.chr (Char.code byte lxor 0x10)));
  let hidden =
    List.filter_map
      (fun (k, _) -> match Kv.get st k with exception Sim.Errno.Error (Sim.Errno.EIO, _) -> Some k | _ -> None)
      kvs
  in
  let k = match hidden with k :: _ -> k | [] -> Alcotest.fail "no key reads as EIO" in
  let logged = Kv.wal_used_bytes st in
  Kv.begin_txn st;
  Kv.delete st k;
  (match Kv.commit st with
  | () -> Alcotest.failf "delete of %s across a damaged line was acknowledged" k
  | exception Sim.Errno.Error (Sim.Errno.EIO, _) -> ());
  check_bool "txn rolled back" false (Kv.txn_live st);
  check_int "nothing logged" logged (Kv.wal_used_bytes st);
  commit_put st [ (k, "fresh") ] [];
  Alcotest.(check (option string)) "a put goes past the damaged line" (Some "fresh") (Kv.get st k);
  Kv.detach st

let test_injected_fault_sites () =
  let kernel, _, plane, st = mk_store () in
  (* Commit abort: typed EIO before anything is logged. *)
  FI.arm plane ~site:FI.site_store_commit (FI.On_nth 1);
  Kv.begin_txn st;
  Kv.put st "k" "v";
  (try
     Kv.commit st;
     Alcotest.fail "injected commit abort must raise EIO"
   with Sim.Errno.Error (Sim.Errno.EIO, _) -> ());
  check_bool "aborted commit leaves nothing" false (Kv.mem st "k");
  (* Allocation failure: defragment-and-retry saves the commit. On_nth
     counts cumulative per-site evaluations, so arm relative to now. *)
  FI.arm plane ~site:FI.site_store_alloc
    (FI.On_nth (FI.evaluations plane ~site:FI.site_store_alloc + 1));
  commit_put st [ ("k", "v2") ] [];
  Alcotest.(check (option string)) "retried alloc committed" (Some "v2") (Kv.get st "k");
  check_int "alloc retry counted" 1 (Sim.Stats.get (K.stats kernel) "store_alloc_retry");
  (* A heap still exhausted after the retry: typed ENOSPC, nothing logged. *)
  FI.arm plane ~site:FI.site_store_alloc FI.Always;
  let logged = Kv.wal_used_bytes st in
  (match commit_put st [ ("k", "lost"); ("other", "x") ] [] with
  | () -> Alcotest.fail "an exhausted heap must fail the commit ENOSPC"
  | exception Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  FI.disarm plane ~site:FI.site_store_alloc;
  check_bool "exhausted commit rolled back" false (Kv.txn_live st || Kv.mem st "other");
  check_int "exhausted commit logged nothing" logged (Kv.wal_used_bytes st);
  (* Media-write retry: the redo is charged, the data lands. *)
  FI.arm plane ~site:FI.site_store_apply
    (FI.On_nth (FI.evaluations plane ~site:FI.site_store_apply + 1));
  commit_put st [ ("k", "v3") ] [];
  Alcotest.(check (option string)) "retried apply committed" (Some "v3") (Kv.get st "k");
  check_int "apply retry counted" 1 (Sim.Stats.get (K.stats kernel) "store_apply_retry");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* ------------------------------ root check --------------------------- *)

let test_check_rule_guards_roots () =
  let _, fom, _, st = mk_store () in
  commit_put st [ ("a", "1") ] [ ("head", "a") ];
  check_int "rule quiet on a healthy store" 0 (List.length (Kv.check_roots st));
  (* Destroy the arena behind the live root: the check must notice. *)
  Fs.Memfs.unlink (O1mem.Fom.fs fom) "/kv.arena.0";
  let tripped = Kv.check_roots st in
  check_bool "rule trips on a lost arena" true
    (tripped <> [] && List.for_all (fun v -> v.Os.Check.check = "store_roots") tripped);
  Kv.detach st

(* ------------------------------ corruption (qcheck) ------------------ *)

(* Crash with one WAL byte corrupted at a random offset: recovery must
   land on a transaction boundary — some prefix of the committed states,
   never a partial transaction — and must count a detection. *)
let prop_torn_wal_byte =
  qtest ~count:20 "random WAL corruption never yields a partial transaction"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 1000))
    (fun (off, seed) ->
      let _, fom, _, st = mk_store ~seed () in
      let mirrors = ref [ (Kv.keys st, Kv.roots st) ] in
      for c = 1 to 3 do
        commit_put st
          [ (Printf.sprintf "k%d" c, String.make (30 * c) 'v'); ("shared", String.make (20 + c) 's') ]
          [ ("head", Printf.sprintf "k%d" c) ];
        mirrors := (Kv.keys st, Kv.roots st) :: !mirrors
      done;
      let fsys = O1mem.Fom.fs fom in
      let wal_ino = Option.get (Fs.Memfs.lookup fsys "/kv.wal") in
      let base =
        match Fs.Memfs.file_extents fsys wal_ino with
        | e :: _ -> Physmem.Frame.to_addr e.Fs.Extent.start
        | [] -> Alcotest.fail "WAL has no extents"
      in
      let target = base + (off mod Kv.wal_used_bytes st) in
      let mem = Fs.Memfs.mem fsys in
      let byte = Bytes.get (Physmem.Phys_mem.read mem ~addr:target ~len:1) 0 in
      Physmem.Phys_mem.restore_range mem ~addr:target
        (String.make 1 (Char.chr (Char.code byte lxor 0xFF)));
      ignore (P.crash_and_recover fom);
      let state = (Kv.keys st, Kv.roots st) in
      let clean = List.exists (fun m -> m = state) !mirrors in
      let detected = Kv.recovery_truncations st >= 1 in
      Kv.detach st;
      clean && detected)

(* ------------------------------ model (qcheck) ----------------------- *)

(* The store against a pure model: a map of objects and a map of roots,
   where a delete clears the roots naming its key and a transaction whose
   set_root names a key not live at that point is rejected whole. A 1 KiB
   index (16 bucket lines) makes shared lines and probe chains common, and
   an oversized transaction the typed ENOSPC rollback (WAL full).
   Crashes land between commands and, when a transaction carries
   [Some n], at its n-th durable boundary from the start of the
   transaction; recovery must then yield the model before or after it. *)

type mop =
  | M_put of string * string
  | M_delete of string
  | M_set_root of string * string
  | M_clear_root of string

type mcmd = Txn of mop list * bool * int option | Checkpoint of int option | Crash

module SM = Map.Make (String)

let model_txn m ops =
  List.fold_left
    (fun acc op ->
      Option.bind acc (fun (objs, roots) ->
          match op with
          | M_put (k, v) -> Some (SM.add k v objs, roots)
          | M_delete k -> Some (SM.remove k objs, SM.filter (fun _ k' -> k' <> k) roots)
          | M_set_root (r, k) -> if SM.mem k objs then Some (objs, SM.add r k roots) else None
          | M_clear_root r -> Some (objs, SM.remove r roots)))
    (Some m) ops

let model_state (objs, roots) = (SM.bindings objs, SM.bindings roots)
let store_state st = (List.map (fun k -> (k, Option.get (Kv.get st k))) (Kv.keys st), Kv.roots st)

let gen_cmds =
  let open QCheck2.Gen in
  let key = map (Printf.sprintf "k%d") (int_range 0 5) in
  let root = map (Printf.sprintf "r%d") (int_range 0 1) in
  let op =
    frequency
      [
        ( 5,
          map3
            (fun k n c -> M_put (k, String.make n c))
            key
            (oneof [ int_range 1 64; int_range 900 1400 ])
            (char_range 'a' 'z') );
        (2, map (fun k -> M_delete k) key);
        (1, map2 (fun r k -> M_set_root (r, k)) root key);
        (1, map (fun r -> M_clear_root r) root);
      ]
  in
  let txn =
    map3
      (fun ops commit crash -> Txn (ops, commit, crash))
      (list_size (int_range 1 6) op)
      (frequency [ (4, pure true); (1, pure false) ])
      (frequency [ (3, pure None); (1, map Option.some (int_range 1 60)) ])
  in
  (* A checkpoint crosses two durable boundaries: the WAL head's flush
     and fence. *)
  let checkpoint = map (fun crash -> Checkpoint crash) (opt (int_range 1 3)) in
  (* Two 70,000-byte roots over two fresh keys outgrow the 128 KiB WAL,
     whose record names each key: the commit writes its six blocks, fails
     ENOSPC at the append and must change nothing, whether or not power
     fails inside its block writes. It costs about 2 ms of host time, so
     it is rarer than the other commands (about 50 in 200 lists). *)
  let oversized =
    map2
      (fun c crash ->
        let big j = Printf.sprintf "big%d" j in
        let ops j =
          [ M_put (big j, String.make 64 c); M_set_root (String.make 70_000 (Char.chr (Char.code c + j)), big j) ]
        in
        Txn (ops 0 @ ops 1, true, crash))
      (char_range 'a' 'y')
      (frequency [ (1, pure None); (1, map Option.some (int_range 1 6)) ])
  in
  list_size (pure 24) (frequency [ (72, txn); (9, checkpoint); (9, pure Crash); (1, oversized) ])

let print_cmds =
  let op = function
    | M_put (k, v) -> Printf.sprintf "put %s %d%c" k (String.length v) v.[0]
    | M_delete k -> "delete " ^ k
    | M_set_root (r, k) when String.length r > 8 -> Printf.sprintf "root %d%c=%s" (String.length r) r.[0] k
    | M_set_root (r, k) -> Printf.sprintf "root %s=%s" r k
    | M_clear_root r -> "clear " ^ r
  in
  let at = function Some n -> Printf.sprintf " crash@%d" n | None -> "" in
  let cmd = function
    | Checkpoint crash -> "checkpoint" ^ at crash
    | Crash -> "crash"
    | Txn (ops, commit, crash) ->
      Printf.sprintf "txn[%s]%s%s" (String.concat ", " (List.map op ops))
        (if commit then "" else " abort")
        (at crash)
  in
  fun cmds -> String.concat "\n" (List.map cmd cmds)

(* Power fails at the [n]-th durable boundary from here, if [crash] is [Some n]. *)
let arm_crash plane crash =
  Option.iter
    (fun n ->
      FI.arm plane ~site:FI.site_durable_step (FI.On_nth (FI.evaluations plane ~site:FI.site_durable_step + n)))
    crash

let run_model_cmd (fom, plane, st) m = function
  | Checkpoint crash ->
    (* A checkpoint changes no state, so recovery from a crash inside it must
       give the model back. *)
    arm_crash plane crash;
    (match Kv.checkpoint st with
    | () -> ()
    | exception FI.Injected_crash _ -> ignore (P.crash_and_recover fom));
    FI.disarm plane ~site:FI.site_durable_step;
    m
  | Crash ->
    ignore (P.crash_and_recover fom);
    m
  | Txn (ops, commit, crash) -> (
    arm_crash plane crash;
    let want = if commit then model_txn m ops else Some m in
    let outcome =
      match
        Kv.begin_txn st;
        List.iter
          (function
            | M_put (k, v) -> Kv.put st k v
            | M_delete k -> Kv.delete st k
            | M_set_root (r, k) -> Kv.set_root st r k
            | M_clear_root r -> Kv.clear_root st r)
          ops;
        if commit then Kv.commit st else Kv.abort st
      with
      | () -> `Done
      | exception FI.Injected_crash _ -> `Crashed
      | exception Invalid_argument _ -> `Rejected
      | exception Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> `Enospc
    in
    FI.disarm plane ~site:FI.site_durable_step;
    match (outcome, want) with
    | `Done, Some _ when List.exists (function M_set_root (r, _) -> String.length r > 8 | _ -> false) ops ->
      QCheck2.Test.fail_report "an oversized transaction committed"
    | `Done, Some m' -> m'
    | (`Rejected, None | `Enospc, Some _) -> m
    | `Crashed, _ -> (
      ignore (P.crash_and_recover fom);
      match want with Some m' when store_state st = model_state m' -> m' | _ -> m)
    | `Done, None -> QCheck2.Test.fail_report "store committed a root naming a dead key"
    | `Rejected, Some _ -> QCheck2.Test.fail_report "store rejected a valid transaction"
    | `Enospc, None -> QCheck2.Test.fail_report "ENOSPC instead of rejecting a dangling root")

let prop_store_matches_model =
  qtest ~count:200 ~print:print_cmds "store matches a pure model through crashes" gen_cmds
    (fun cmds ->
      let kernel, fom, plane, st = mk_store ~manifest_bytes:(Sim.Units.kib 1) () in
      ignore
        (List.fold_left
           (fun m cmd ->
             let m = run_model_cmd (fom, plane, st) m cmd in
             if store_state st <> model_state m then
               QCheck2.Test.fail_reportf "after %s: store diverged from the model"
                 (print_cmds [ cmd ]);
             (match Kv.verify st with
             | [] -> ()
             | v :: _ ->
               QCheck2.Test.fail_reportf "after %s: %s" (print_cmds [ cmd ])
                 (Os.Check.violation_to_string v));
             m)
           (SM.empty, SM.empty) cmds);
      let clean = Os.Check.run kernel @ Kv.check_roots st = [] in
      Kv.detach st;
      clean)

(* ------------------------------ explorer & plan ---------------------- *)

let test_explorer_exhaustive () =
  let r = SC.explore_store ~keys:4 ~txns:2 ~seed:13 () in
  Alcotest.(check (list string)) "no violations" [] r.violations;
  check_bool "boundaries found" true (r.steps > 0);
  check_bool "every boundary crashed (plus damage arms)" true (r.crashes > r.steps);
  check_bool "torn arm detected damage" true (List.assoc "torn" r.detections >= 1);
  check_bool "flip arm detected damage" true (List.assoc "flip" r.detections >= 1)

(* A crash inside a fresh store's first commit can interrupt the growth
   of its first arena: the arena file exists on pmfs but no slot names
   it. Recovery must drop it, or the next growth finds the name taken
   and every later commit that needs an arena fails. *)
let test_first_commit_crash_keeps_store_growable () =
  let r =
    O1mem.Chaos.crash_every ~seed:1 ~boot:O1mem.Chaos.machine
      ~setup:(fun (kernel, fom) -> (fom, Kv.create fom (K.create_process kernel ()) ~name:"/kv" ()))
      ~run:(fun (_, st) -> commit_put st [ ("a", "hello") ] [])
      ~recover:(fun (fom, st) ~damaged:_ add ->
        ignore (P.crash_and_recover fom);
        (match
           commit_put st [ ("fresh", "after") ] [];
           Kv.get st "fresh"
         with
        | Some "after" -> ()
        | _ -> add "fresh key not served"
        | exception e -> add ("commit after recovery raised " ^ Printexc.to_string e));
        List.iter (fun v -> add (Os.Check.violation_to_string v)) (Kv.verify st);
        Kv.detach st;
        0)
      ()
  in
  check_bool "the first commit crosses durable boundaries" true (r.steps > 0);
  Alcotest.(check (list string)) "every crash leaves a growable store" [] r.violations

(* Recovery itself as the explored workload: a crash at any durable
   boundary of Persistence.recover, then one more full crash and
   recovery, must still land on the committed prefix. However many
   transactions committed since the checkpoint, the redo of the newest
   one finds its index entries in place, writes no block and fences: one
   durable boundary. *)
let test_crash_during_recovery () =
  List.iter
    (fun k ->
      let committed =
        List.init k (fun i -> (Printf.sprintf "t%d" i, String.make (40 + (30 * i)) 'c'))
      in
      let r =
        O1mem.Chaos.crash_every ~seed:k ~boot:O1mem.Chaos.machine
          ~setup:(fun (kernel, fom) ->
            let st = Kv.create fom (K.create_process kernel ()) ~name:"/kv" () in
            commit_put st [ ("base", "preloaded") ] [ ("head", "base") ];
            Kv.checkpoint st;
            List.iter (fun kv -> commit_put st [ kv ] []) committed;
            Kv.begin_txn st;
            Kv.put st "inflight" "never committed";
            P.crash fom;
            (kernel, fom, st))
          ~run:(fun (_, fom, _) -> ignore (P.recover fom))
          ~recover:(fun (kernel, fom, st) ~damaged:_ add ->
            ignore (P.crash_and_recover fom);
            let got = List.map (fun key -> (key, Option.get (Kv.get st key))) (Kv.keys st) in
            if got <> List.sort compare (("base", "preloaded") :: committed) then
              add "recovered objects are not the committed prefix";
            if Kv.roots st <> [ ("head", "base") ] then
              add "recovered roots are not the committed prefix";
            List.iter
              (fun v -> add (Os.Check.violation_to_string v))
              (Kv.verify st @ Os.Check.run kernel);
            commit_put st [ ("probe", "after") ] [];
            if Kv.get st "probe" <> Some "after" then
              add "recovered store does not serve a fresh write";
            Kv.detach st;
            0)
          ()
      in
      check_int (Printf.sprintf "k=%d: recovery redoes one txn" k) 1 r.steps;
      Alcotest.(check (list string))
        (Printf.sprintf "k=%d: every crash in recovery recovers" k)
        [] r.violations)
    [ 1; 2; 3; 4 ]

(* The store entries of [make chaos]: the explorer at seed 42 and the
   store plan at seeds 42, 7 and 2017 (16 rounds) and 31 (24 rounds). *)
let test_chaos_entries () =
  let r = SC.explore_store ~seed:42 () in
  Alcotest.(check (list string)) "explorer at seed 42: no violations" [] r.violations;
  check_bool "explorer at seed 42 stepped" true (r.steps > 0);
  List.iter
    (fun arm -> check_bool (arm ^ " arm detected damage at seed 42") true (List.assoc arm r.detections >= 1))
    [ "torn"; "flip" ];
  List.iter
    (fun (seed, rounds) ->
      let o = SC.run_plan ~seed ~rounds () in
      Alcotest.(check (list string))
        (Printf.sprintf "plan at seed %d: no violations" seed)
        [] (List.map Os.Check.violation_to_string o.O1mem.Chaos.checks);
      check_bool (Printf.sprintf "plan at seed %d: finale degraded typed" seed) true (o.O1mem.Chaos.enospc >= 1))
    [ (42, 16); (7, 16); (2017, 16); (31, 24) ]

let test_store_plan () =
  let o = SC.run_plan ~seed:3 ~rounds:10 () in
  check_string "plan name" "store" o.O1mem.Chaos.plan;
  Alcotest.(check (list string)) "no invariant violations" []
    (List.map Os.Check.violation_to_string o.O1mem.Chaos.checks);
  check_bool "faults were injected" true (o.O1mem.Chaos.injected_total >= 1);
  check_bool "ENOSPC finale degraded typed" true (o.O1mem.Chaos.enospc >= 1);
  check_bool "store sites consulted" true
    (List.exists (fun (s, evals, _) -> s = FI.site_store_commit && evals > 0) o.O1mem.Chaos.sites)

(* ---------------------------- host cost ----------------------------- *)

(* The NVM path copies each byte once: a get copies out only its value,
   and a commit allocates nothing per line it writes or per block byte.
   On a warmed store, the words per get and per 4-put commit must stay
   within 1.25x of what they measured when this held (the copying path
   before it allocated 183.0 per get and 2,353.6 per commit; a record
   that carried the values took 1,270.5 per commit). *)
let test_alloc_budget () =
  let _, _, _, st = mk_store () in
  let keys = Array.init 64 (Printf.sprintf "user%03d") in
  let value i = String.make (80 + (i mod 41)) (Char.chr (Char.code 'a' + (i mod 26))) in
  commit_put st (Array.to_list (Array.mapi (fun i k -> (k, value i)) keys)) [];
  let get i = ignore (Kv.get st keys.(i * 7 mod 64)) in
  let commit i = commit_put st (List.init 4 (fun j -> (keys.(((i * 4) + (j * 13)) mod 64), value (i + j)))) [] in
  ignore (words_per_call 200 get, words_per_call 200 commit);
  let within what ~measured got =
    check_bool (Printf.sprintf "%.1f words per %s <= 1.25 x %.1f" got what measured) true (got <= 1.25 *. measured)
  in
  within "get" ~measured:71.3 (words_per_call 200 get);
  within "4-put commit" ~measured:1099.6 (words_per_call 200 commit);
  Kv.detach st

(* A host-side walk reads each non-zero index frame once into the
   store's scan buffer and checks its lines there. [Kv.roots] on a warmed
   store with a 1 MiB index (16,384 lines, 4,096 keys, every frame in
   use) must stay within 1.25x of the words it measured when this held
   (reading 1 KiB chunks and copying out every line took 313,466). *)
let test_scan_budget () =
  let _, _, _, st = mk_store ~manifest_bytes:(Sim.Units.mib 1) () in
  for b = 0 to 63 do
    commit_put st (List.init 64 (fun j -> (Printf.sprintf "key%05d" ((64 * b) + j), "v"))) [ ("head", "key00000") ]
  done;
  ignore (Kv.roots st);
  let got = words_per_call 1 (fun _ -> ignore (Kv.roots st)) in
  let measured = 140.0 in
  check_bool (Printf.sprintf "%.1f words per Kv.roots <= 1.25 x %.1f" got measured) true (got <= 1.25 *. measured);
  Kv.detach st

let suite =
  [
    Alcotest.test_case "basic put/get/root/commit" `Quick test_basic;
    Alcotest.test_case "abort discards the transaction" `Quick test_abort_discards;
    Alcotest.test_case "delete clears referencing roots" `Quick test_delete_clears_roots;
    Alcotest.test_case "long root names outgrow the block buffer" `Quick test_long_root_names;
    Alcotest.test_case "API validation" `Quick test_validation;
    Alcotest.test_case "crash recovers the committed prefix" `Quick
      test_crash_recovers_committed_prefix;
    Alcotest.test_case "recovery is idempotent, gauges re-baselined" `Quick
      test_recover_twice_idempotent;
    Alcotest.test_case "checkpoint cuts the replay" `Quick test_checkpoint_cuts_replay;
    Alcotest.test_case "damage past the log's record does not discard it" `Quick
      test_damage_past_the_record_keeps_it;
    Alcotest.test_case "the log's record carries no value" `Quick test_record_carries_no_value;
    Alcotest.test_case "over-capacity commit degrades to typed ENOSPC" `Quick
      test_enospc_typed_and_clean;
    Alcotest.test_case "failed commit's WAL records are durably cut" `Quick
      test_failed_commit_orphans_cut;
    Alcotest.test_case "index-full commit fails ENOSPC before logging" `Quick
      test_index_full_enospc;
    Alcotest.test_case "a block past an arena slot fails ENOSPC before logging" `Quick
      test_block_too_long_enospc;
    Alcotest.test_case "bit flip in an index line is detected, never served" `Quick
      test_index_bit_flip_detected;
    Alcotest.test_case "delete across a damaged index line fails EIO" `Quick
      test_delete_across_damage_refused;
    Alcotest.test_case "injected store faults degrade and retry" `Quick test_injected_fault_sites;
    Alcotest.test_case "check rule guards live roots" `Quick test_check_rule_guards_roots;
    Alcotest.test_case "host words per get and per commit stay in budget" `Quick test_alloc_budget;
    Alcotest.test_case "a host-side index walk copies no line" `Quick test_scan_budget;
    prop_torn_wal_byte;
    prop_store_matches_model;
    Alcotest.test_case "explorer: crash at every boundary" `Slow test_explorer_exhaustive;
    Alcotest.test_case "store fault plan" `Quick test_store_plan;
    Alcotest.test_case "the store entries of make chaos" `Quick test_chaos_entries;
    Alcotest.test_case "crash in the first commit leaves the store growable" `Quick
      test_first_commit_crash_keeps_store_growable;
    Alcotest.test_case "crash during recovery, then recover again" `Quick test_crash_during_recovery;
  ]
