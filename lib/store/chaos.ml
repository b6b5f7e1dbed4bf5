(* Crash/torn-write exploration and the "store" fault plan.

   The explorer is an instance of O1mem.Chaos.crash_every: setup builds
   the store, preloads it and checkpoints, and the explored workload is a
   deterministic mixed put/delete/grow burst, so every clwb/sfence/WAL
   boundary of the burst becomes a crash point. Recovery goes through
   O1mem.Persistence (which runs the store's recovery hook) and must yield the
   committed-prefix state.

   Two damage arms ride on sampled boundaries: torn lines and bit flips
   armed probabilistically while the burst runs. Those crashes may lose
   more than the in-flight transaction — but every loss must be
   *detected* (a WAL truncation, a damaged index line, a commit refused
   with EIO or an EIO on read), never served as silently wrong data. *)

module FI = Sim.Fault_inject

(* --- the deterministic workload ------------------------------------ *)

type wop =
  | W_put of string * string
  | W_delete of string
  | W_set_root of string * string
  | W_clear_root of string

let key i = Printf.sprintf "key%02d" i

(* Version v of key i: length grows with v so re-puts change size class
   and slots move. *)
let value i v = String.make (24 + (40 * v)) (Char.chr (Char.code 'a' + ((i + v) mod 26)))

(* Transaction c of the burst: two puts (one growing re-put), a delete on
   even rounds, and root churn. The delete target is distinct from both
   puts for any keys >= 4, so the root set in the same transaction always
   names a live key. *)
let ops_of_txn ~keys c =
  let a = 2 * c mod keys and b = ((2 * c) + 1) mod keys in
  let d = ((2 * c) + 3) mod keys in
  [ W_put (key a, value a c); W_put (key b, value b c) ]
  @ (if c mod 2 = 0 then [ W_delete (key d) ] else [])
  @ [ W_set_root ("head", key a) ]
  @ if c mod 3 = 0 then [ W_set_root ("aux", key b) ] else [ W_clear_root "aux" ]

let preload_ops ~keys =
  List.init keys (fun i -> W_put (key i, value i 0)) @ [ W_set_root ("head", key 0) ]

(* Host-side mirror of the store semantics (delete clears referencing
   roots), applied transaction by transaction; mirrors.(c) is the state
   after commit c (0 = after preload + checkpoint). *)
let mirror_states ~keys ~txns =
  let objs = Hashtbl.create 16 and roots = Hashtbl.create 4 in
  let apply = function
    | W_put (k, v) -> Hashtbl.replace objs k v
    | W_delete k ->
      Hashtbl.remove objs k;
      let dead = Hashtbl.fold (fun r k' acc -> if k' = k then r :: acc else acc) roots [] in
      List.iter (Hashtbl.remove roots) dead
    | W_set_root (r, k) -> Hashtbl.replace roots r k
    | W_clear_root r -> Hashtbl.remove roots r
  in
  let snap () =
    ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) objs [] |> List.sort compare,
      Hashtbl.fold (fun r k acc -> (r, k) :: acc) roots [] |> List.sort compare )
  in
  List.iter apply (preload_ops ~keys);
  Array.init (txns + 1) (fun c ->
      if c > 0 then List.iter apply (ops_of_txn ~keys c);
      snap ())

let apply_store st = function
  | W_put (k, v) -> Kv.put st k v
  | W_delete k -> Kv.delete st k
  | W_set_root (r, k) -> Kv.set_root st r k
  | W_clear_root r -> Kv.clear_root st r

let state_of st =
  let objs = List.map (fun k -> (k, Option.get (Kv.get st k))) (Kv.keys st) in
  (objs, Kv.roots st)

let describe (objs, roots) =
  Printf.sprintf "%d object(s), %d root(s)" (List.length objs) (List.length roots)

let transact st ops =
  Kv.begin_txn st;
  List.iter (apply_store st) ops;
  Kv.commit st

(* Post-recovery usability: the store must still accept transactions and
   serve fresh writes exactly. The full checksum sweep only applies to
   clean crashes — damage arms intentionally corrupt values, and their
   detection is counted through EIO reads instead. *)
let probe_usable ~verify st add =
  transact st [ W_put ("probe", "post-recovery") ];
  (match Kv.get st "probe" with
  | Some "post-recovery" -> ()
  | _ -> add "recovered store does not serve a fresh write"
  | exception _ -> add "recovered store cannot serve a fresh write");
  if verify then List.iter (fun v -> add (Os.Check.violation_to_string v)) (Kv.verify st)

let explore_store ?(keys = 6) ?(txns = 3) ?(seed = 17) () =
  if keys < 4 then invalid_arg "Chaos.explore_store: keys must be >= 4";
  let mirrors = mirror_states ~keys ~txns in
  O1mem.Chaos.crash_every ~seed ~boot:O1mem.Chaos.machine
    ~damage:[ ("torn", FI.site_nvm_torn_line, 0.35); ("flip", FI.site_nvm_bit_flip, 0.2) ]
    (* Store creation, preload and checkpoint are setup: the interesting
       window is the burst. *)
    ~setup:(fun (kernel, fom) ->
      let st = Kv.create fom (Os.Kernel.create_process kernel ()) ~name:"/kv" () in
      transact st (preload_ops ~keys);
      Kv.checkpoint st;
      (kernel, fom, st, ref 0, ref 0))
    ~run:(fun (_, _, st, acked, refused) ->
      for c = 1 to txns do
        match transact st (ops_of_txn ~keys c) with
        | () -> acked := c
        | exception Sim.Errno.Error (Sim.Errno.EIO, _) ->
          (* Damage on a chain the commit reads: refused before anything
             was logged. A detection, and the burst goes on. *)
          incr refused
      done)
    (* Pass 0 must end in the final mirror, or the explorer proves nothing. *)
    ~baseline:(fun (_, _, st, _, _) add ->
      if state_of st <> mirrors.(txns) then
        add
          (Printf.sprintf "baseline mismatch: store has %s, mirror %s" (describe (state_of st))
             (describe mirrors.(txns)));
      Kv.detach st)
    ~recover:(fun (kernel, fom, st, acked, refused) ~damaged add ->
      let report = O1mem.Persistence.crash_and_recover fom in
      if not (List.mem_assoc "store/kv" report.O1mem.Persistence.hook_records) then
        add "recovery never ran the store hook";
      if !refused > 0 && not damaged then add "a commit on undamaged media failed with EIO";
      let detected = ref !refused in
      if damaged then begin
        (* Damage may lose more than the in-flight transaction, but every
           loss must be detected (a WAL truncation, a damaged index line,
           a refused commit or an EIO on read): any value the store does
           return must be one the workload wrote. A commit writes each
           key's final value only: the values of the mirror states. *)
        detected := !detected + Kv.recovery_truncations st;
        List.iter
          (fun key ->
            match Kv.get st key with
            | None -> ()
            | Some v ->
              if not (Array.exists (fun (objs, _) -> List.assoc_opt key objs = Some v) mirrors) then
                add (Printf.sprintf "key %S recovered with a value that was never written" key)
            | exception Sim.Errno.Error (Sim.Errno.EIO, _) -> incr detected)
          (Kv.keys st)
      end
      else begin
        (* A clean crash recovers the committed prefix: mirror [acked], or
           [acked+1] when the crash fell between the commit record becoming
           durable and the acknowledgement (redo replays the in-flight
           transaction). *)
        let got = state_of st in
        let want = mirrors.(!acked) in
        if not (got = want || (!acked < txns && got = mirrors.(!acked + 1))) then
          add
            (Printf.sprintf "recovered %s; committed prefix has %s (acked %d)" (describe got)
               (describe want) !acked)
      end;
      (* Roots are checked once: by [Kv.verify] after a clean crash. *)
      List.iter
        (fun v -> add (Os.Check.violation_to_string v))
        (Os.Check.run kernel @ if damaged then Kv.check_roots st else []);
      probe_usable ~verify:(not damaged) st add;
      Kv.detach st;
      !detected)
    ()

(* --- the "store" fault plan ----------------------------------------- *)

(* Sustained probabilistic injection at the store's own sites while a
   transaction mix runs, a mid-run crash/recover, then the ENOSPC finale:
   a transaction whose record the WAL cannot hold must fail typed (or at
   allocation first, under injection), with the store intact. Runs on
   O1mem.Chaos.run_armed, so the faults CLI prints every plan uniformly;
   the injected commit abort is a typed EIO that rolls the transaction
   back. *)
let run_plan ?(seed = 1) ?(rounds = 12) () =
  O1mem.Chaos.run_armed ~plan:"store" ~seed ~retried:"store_alloc_retry" ~eio:true
    ~sites:[ (FI.site_store_alloc, 0.15); (FI.site_store_commit, 0.1); (FI.site_store_apply, 0.15) ]
  @@ fun kernel fom guard ->
  let st = Kv.create fom (Os.Kernel.create_process kernel ()) ~name:"/kv" () in
  let txn ops =
    guard (fun () -> transact st ops);
    if Kv.txn_live st then Kv.abort st
  in
  for i = 1 to rounds do
    txn
      ([
         W_put (key (i mod 8), value (i mod 8) (i mod 5));
         W_put (Printf.sprintf "round%02d" i, String.make (64 + (i * 16 mod 512)) 'r');
       ]
      @ (if i mod 3 = 0 then [ W_delete (key ((i + 1) mod 8)) ] else [])
      @ [ W_set_root ("latest", Printf.sprintf "round%02d" i) ]);
    if i mod 4 = 0 then guard (fun () -> Kv.checkpoint st)
  done;
  (* Mid-plan power loss: the store must come back and keep serving. *)
  ignore (O1mem.Persistence.crash_and_recover fom);
  txn [ W_put ("after-crash", "still here") ];
  (* ENOSPC finale: a transaction whose record cannot fit the WAL must
     fail typed and leave no trace. The record names each key, so two
     70,000-byte roots over two fresh keys outgrow it. *)
  let huge j =
    let k = Printf.sprintf "huge%02d" j in
    [ W_put (k, "h"); W_set_root (String.make 70_000 (Char.chr (Char.code 'a' + j)), k) ]
  in
  txn (huge 1 @ huge 2);
  let partial = List.filter (fun k -> String.starts_with ~prefix:"huge" k) (Kv.keys st) in
  Os.Check.run kernel @ Kv.verify st
  @
  if partial = [] then []
  else
    [
      {
        Os.Check.check = "store_degrade";
        detail = Printf.sprintf "failed bulk commit left %d partial object(s)" (List.length partial);
      };
    ]
