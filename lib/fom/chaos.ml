(* Crash-at-every-step exploration and named fault plans.

   One engine, [crash_every], runs every explorer. It leans on one
   property of the injection plane: an unarmed site still counts its
   evaluations. Pass 0 runs the workload to completion with
   ["durable_step"] unarmed, which enumerates every clwb/sfence boundary
   the workload crosses; the engine then rebuilds the machine once per
   boundary with [On_nth k] armed, crashes it at that exact point, and
   hands it to the caller's recovery-and-check step. Every pass uses the
   same seed, so the k-th replay is byte-identical to the baseline up to
   the crash. *)

module FI = Sim.Fault_inject

type report = {
  steps : int;
  fences : int;
  crashes : int;
  detections : (string * int) list;
  violations : string list;
}

let crash_every ?(damage = []) ?baseline ~seed ~boot ~setup ~run ~recover () =
  let violations = ref [] in
  let add k msg = violations := Printf.sprintf "step %d: %s" k msg :: !violations in
  (* Pass 0: enumerate the boundaries [run] crosses; [setup]'s are not
     crash points. *)
  let plane0, stats0, m0 = boot ~seed in
  let w0 = setup m0 in
  let e0 = FI.evaluations plane0 ~site:FI.site_durable_step in
  let f0 = Sim.Stats.get stats0 "sfence" in
  run w0;
  let e1 = FI.evaluations plane0 ~site:FI.site_durable_step in
  let fences = Sim.Stats.get stats0 "sfence" - f0 in
  Option.iter (fun check -> check w0 (add 0)) baseline;
  let steps = e1 - e0 in
  let crashes = ref 0 in
  (* One run from a fresh boot: power fails at durable step [crash], or
     at the run's end when [crash] is [None]. Returns the boundaries the
     setup and the run ended on, and the caller's detections. *)
  let replay ?(seed = seed) ?arm crash =
    let plane, _, m = boot ~seed in
    Option.iter (fun k -> FI.arm plane ~site:FI.site_durable_step (FI.On_nth k)) crash;
    Option.iter (fun (site, p) -> FI.arm plane ~site (FI.Prob p)) arm;
    let w = setup m in
    let start = FI.evaluations plane ~site:FI.site_durable_step in
    let crashed =
      try
        run w;
        false
      with FI.Injected_crash _ -> true
    in
    let stop = FI.evaluations plane ~site:FI.site_durable_step in
    incr crashes;
    let at = Option.value crash ~default:stop - start in
    if crash <> None && not crashed then add at "durable step never fired";
    (* The damage happened while power was on; recovery itself runs on
       healthy hardware. *)
    Option.iter (fun (site, _) -> FI.disarm plane ~site) arm;
    FI.disarm plane ~site:FI.site_durable_step;
    (start, stop, recover w ~damaged:(arm <> None) (add at))
  in
  for k = e0 + 1 to e1 do
    ignore (replay (Some k))
  done;
  (* Damage arms: the site fires with probability p while the workload
     runs, and the crash lands on sampled boundaries. Losses are allowed;
     the caller counts the detected ones, and an arm that detects nothing
     is a violation. *)
  let arm_pass ~site ~stride ~p ~salt =
    let found = ref 0 and k = ref (e0 + 1) in
    while !k <= e1 do
      (* A fresh plane seed per boundary: with a shared seed every run
         draws the same damage pattern, and one unlucky trajectory (all
         damage healed by later flushes or by recovery) would blind the
         whole arm. Damage the workload reads back (a line failing its
         checksum, a refused commit) changes its path, so pass 0 does not
         give a damaged run's boundaries: the same seed and arm first run
         to the end and lose power there, and the crash then lands on
         the sampled boundary counted within that run. *)
      let seed = seed + (salt * !k) and arm = (site, p) in
      let start, stop, n = replay ~seed ~arm None in
      found := !found + n;
      if stop > start then begin
        let _, _, n = replay ~seed ~arm (Some (start + min (!k - e0) (stop - start))) in
        found := !found + n
      end;
      k := !k + stride
    done;
    !found
  in
  let detections =
    List.map
      (fun (name, site, p) ->
        let found = arm_pass ~site ~stride:(max 1 (steps / 4)) ~p ~salt:997 in
        (* Damage can legitimately land only on lines a later flush or the
           recovery pass rewrites; escalate (denser boundaries, hotter
           injection, new seeds) before concluding the detectors are
           blind. *)
        let found =
          if found > 0 then found
          else arm_pass ~site ~stride:(max 1 (steps / 8)) ~p:(min 0.9 (3.0 *. p)) ~salt:1009
        in
        if found = 0 then add 0 (name ^ " arm: no crash produced a detected loss");
        (name, found))
      damage
  in
  { steps; fences; crashes = !crashes; detections; violations = List.rev !violations }

(* ------------------------------------------------------------------ *)
(* The chaos machine: kernel + FOM on an 8 MiB pmfs, plane attached.   *)
(* ------------------------------------------------------------------ *)

let chaos_config =
  {
    Os.Kernel.default_config with
    Os.Kernel.dram_bytes = Sim.Units.mib 8;
    nvm_bytes = Sim.Units.mib 8;
    (* SMP so a lost shootdown ack has a victim: the tlb plan migrates
       between access and unmap, making the IPI round target a remote
       core that really caches the pages. *)
    cores = 4;
  }

let machine ~seed =
  let kernel = Os.Kernel.create ~config:chaos_config () in
  let plane = FI.create ~seed ~stats:(Os.Kernel.stats kernel) () in
  Sim.Trace.attach_faults (Os.Kernel.trace kernel) plane;
  (plane, Os.Kernel.stats kernel, (kernel, Fom.create kernel ()))

(* ------------------------------------------------------------------ *)
(* WAL explorer: a bare NVM machine, no kernel.                        *)
(* ------------------------------------------------------------------ *)

let wal_capacity = Sim.Units.kib 16

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
  | _ :: _, [] -> false

(* Deterministic payloads with lengths that straddle cache-line and
   word boundaries, so flushes cover 1..2 lines. *)
let wal_payloads ~records ~seed =
  let rng = Sim.Rng.create ~seed in
  List.init records (fun i ->
      String.make (5 + Sim.Rng.int rng 76) (Char.chr (Char.code 'a' + (i mod 26))))

let wal_machine ~seed =
  let clock = Sim.Clock.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create ~clock () in
  let mem =
    Physmem.Phys_mem.create ~clock ~stats ~trace ~dram_bytes:(Sim.Units.mib 1)
      ~nvm_bytes:(Sim.Units.mib 1) ()
  in
  let plane = FI.create ~seed ~stats () in
  Sim.Trace.attach_faults trace plane;
  (plane, stats, (mem, Physmem.Frame.to_addr (Physmem.Phys_mem.dram_frames mem)))

let explore_wal ?(records = 6) ?(seed = 7) () =
  let payloads = wal_payloads ~records ~seed in
  let recover_log mem base = Fs.Wal.recover ~mem ~base ~capacity:wal_capacity in
  crash_every ~seed ~boot:wal_machine
    ~setup:(fun (mem, base) -> (mem, base, Fs.Wal.create ~mem ~base ~capacity:wal_capacity, ref []))
    ~run:(fun (_, _, wal, committed) ->
      List.iter
        (fun p ->
          match Fs.Wal.append wal p with
          | Ok () -> committed := p :: !committed
          | Error Fs.Wal.Wal_full ->
            invalid_arg "Chaos.explore_wal: workload exceeds the WAL capacity")
        payloads)
    ~recover:(fun (mem, base, _, committed) ~damaged:_ add ->
      Physmem.Phys_mem.crash mem;
      let back = recover_log mem base in
      let recovered = Fs.Wal.entries back in
      let committed = List.rev !committed in
      (* Committed-prefix durability: every acknowledged append survives.
         Recovery may additionally keep the in-flight record when the
         crash hit the post-marker fence — the record was durable, only
         the acknowledgement was lost — which is why [recovered] may run
         one past [committed]. *)
      if not (is_prefix committed recovered) then
        add
          (Printf.sprintf "acknowledged record lost (committed %d, recovered %d)"
             (List.length committed) (List.length recovered));
      (* No torn record: whatever recovery kept is a clean prefix of what
         the workload wrote, byte for byte. *)
      if not (is_prefix recovered payloads) then
        add (Printf.sprintf "recovered log torn or reordered (%d records)" (List.length recovered));
      (* The recovered log stays usable: it accepts an append, and the
         next crash keeps it. *)
      (match Fs.Wal.append back "post-recovery" with
      | Error Fs.Wal.Wal_full -> add "recovered log refused a further append"
      | Ok () ->
        Physmem.Phys_mem.crash mem;
        if Fs.Wal.entries (recover_log mem base) <> recovered @ [ "post-recovery" ] then
          add "record appended after recovery lost by the next crash");
      0)
    ()

(* ------------------------------------------------------------------ *)
(* File-system explorer: kernel + FOM, crash inside journaled ops.     *)
(* ------------------------------------------------------------------ *)

let fs_payload i = Printf.sprintf "chaos-%02d" i

(* Alternate persistent named files and volatile temporaries; [made]
   records each region the moment its data write completed, so a crash
   mid-allocation leaves the in-flight file untracked (recovery may
   legitimately keep or drop it). *)
let fs_workload ~files ((kernel, fom), made) =
  let proc = Os.Kernel.create_process kernel () in
  for i = 1 to files do
    let persistent = i mod 2 = 1 in
    let r =
      if persistent then
        Fom.alloc fom proc ~name:(Printf.sprintf "/chaos%d" i)
          ~persistence:Fs.Inode.Persistent ~len:(Sim.Units.kib 16)
          ~prot:Hw.Prot.rw ()
      else Fom.alloc fom proc ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ()
    in
    Fs.Memfs.write_file (Fom.fs fom) r.Fom.ino ~off:0 (fs_payload i);
    made := (r, persistent, i) :: !made
  done

let explore_fs ?(files = 5) ?(seed = 11) () =
  crash_every ~seed ~boot:machine
    ~setup:(fun m -> (m, ref []))
    ~run:(fs_workload ~files)
    ~recover:(fun ((kernel, fom), made) ~damaged:_ add ->
      let masters_before = Shared_pt.master_count (Fom.shared_pt fom) in
      let report = Persistence.crash_and_recover fom in
      (* Master pruning is total: every pre-crash master was either kept
         (its file survived) or dropped, and a second prune finds nothing
         — masters are pruned iff their file died, exactly once. *)
      if report.Persistence.masters_kept + report.Persistence.masters_dropped <> masters_before
      then
        add
          (Printf.sprintf "master accounting: %d before, %d kept + %d dropped" masters_before
             report.Persistence.masters_kept report.Persistence.masters_dropped);
      let fs = Fom.fs fom in
      if not (List.for_all (Fs.Memfs.exists fs) (Shared_pt.inodes (Fom.shared_pt fom))) then
        add "recovery left masters pointing at dead files";
      List.iter
        (fun (r, persistent, i) ->
          match (Fs.Memfs.lookup fs r.Fom.path, persistent) with
          | Some ino, true ->
            let want = fs_payload i in
            let got =
              Bytes.to_string (Fs.Memfs.read_file fs ino ~off:0 ~len:(String.length want))
            in
            if not (String.equal got want) then
              add (Printf.sprintf "persistent %s corrupted (%S <> %S)" r.Fom.path got want)
          | None, true -> add (Printf.sprintf "persistent %s lost by recovery" r.Fom.path)
          | Some _, false -> add (Printf.sprintf "volatile %s survived recovery" r.Fom.path)
          | None, false -> ())
        (List.rev !made);
      List.iter (fun v -> add (Os.Check.violation_to_string v)) (Os.Check.run kernel);
      (* Graceful continuation: the recovered machine still allocates. *)
      let p2 = Os.Kernel.create_process kernel () in
      Fom.free fom p2 (Fom.alloc fom p2 ~len:(Sim.Units.kib 4) ~prot:Hw.Prot.rw ());
      0)
    ()

(* ------------------------------------------------------------------ *)
(* Named fault plans: sustained probabilistic injection + degradation. *)
(* ------------------------------------------------------------------ *)

type plan_outcome = {
  plan : string;
  seed : int;
  sites : (string * int * int) list;
  injected_total : int;
  enomem : int;
  enospc : int;
  retried : int;
  reclaimed_frames : int;
  ooms : int;
  checks : Os.Check.violation list;
}

let run_armed ?(retried = "alloc_retry_reclaim") ?(eio = false) ~plan ~seed ~sites body =
  let plane, stats, (kernel, fom) = machine ~seed in
  List.iter (fun (site, p) -> FI.arm plane ~site (FI.Prob p)) sites;
  let enomem = ref 0 and enospc = ref 0 in
  (* Typed errors are the degradation contract: anything else escaping
     a faulted operation is a real bug and propagates to the caller. *)
  let guard f =
    try f () with
    | Sim.Errno.Error (Sim.Errno.ENOMEM, _) -> incr enomem
    | Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> incr enospc
    | Sim.Errno.Error (Sim.Errno.EIO, _) when eio -> ()
  in
  let checks = body kernel fom guard in
  {
    plan;
    seed;
    sites = FI.totals plane;
    injected_total = FI.injected_total plane;
    enomem = !enomem;
    enospc = !enospc;
    retried = Sim.Stats.get stats retried;
    reclaimed_frames = Sim.Stats.get stats "alloc_reclaimed_frames";
    ooms = Sim.Stats.get stats "alloc_oom";
    checks;
  }

let plans = [ "alloc"; "nvm"; "quota"; "tlb"; "all" ]

(* The tlb plan intentionally breaks coherence: the checker is expected
   to find the stale entries, so its violations are the pass condition,
   not a failure. *)
let plan_expects_violations = function "tlb" | "all" -> true | _ -> false

let plan_sites plan =
  let alloc = [ (FI.site_frame_alloc_fail, 0.05); (FI.site_zero_cache_empty, 0.25) ] in
  let nvm =
    [ (FI.site_nvm_torn_line, 0.05); (FI.site_nvm_bit_flip, 0.05); (FI.site_wal_partial_flush, 0.1) ]
  in
  let quota = [ (FI.site_quota_enospc, 0.2) ] in
  let tlb = [ (FI.site_tlb_ack_lost, 0.5) ] in
  match plan with
  | "alloc" -> alloc
  | "nvm" -> nvm
  | "quota" -> quota
  | "tlb" -> tlb
  | "all" -> alloc @ nvm @ quota @ tlb
  | p ->
    invalid_arg
      (Printf.sprintf "Chaos.run_plan: unknown plan %S (expected one of %s)" p
         (String.concat ", " plans))

let run_plan ?(seed = 1) ?(rounds = 16) ~plan () =
  run_armed ~plan ~seed ~sites:(plan_sites plan) @@ fun kernel fom guard ->
  let p1 = Os.Kernel.create_process kernel () in
  let p2 = Os.Kernel.create_process kernel () in
  let cores = chaos_config.Os.Kernel.cores in
  for i = 1 to rounds do
    guard (fun () ->
        let len = Sim.Units.kib 64 in
        (* Touch the pages on one core, unmap from another: the shootdown
           must now cross cores, so a dropped ack (tlb plan) leaves a
           stale entry the final checker can catch. *)
        Os.Kernel.migrate kernel p1 ~core:(i mod cores);
        let va =
          Os.Kernel.mmap_anon kernel p1 ~len ~prot:Hw.Prot.rw ~populate:false
        in
        ignore
          (Os.Kernel.access_range kernel p1 ~va ~len ~write:true
             ~stride:Sim.Units.page_size);
        Os.Kernel.migrate kernel p1 ~core:((i + 1) mod cores);
        Os.Kernel.munmap kernel p1 ~va ~len);
    guard (fun () ->
        let len = Sim.Units.kib 16 in
        let va =
          Os.Kernel.mmap_anon kernel p2 ~len ~prot:Hw.Prot.rw ~populate:true
        in
        Os.Kernel.munmap kernel p2 ~va ~len);
    ignore (Os.Kernel.background_zero kernel ~budget_frames:8);
    guard (fun () ->
        let r =
          Fom.alloc fom p1 ~name:(Printf.sprintf "/plan%d" i)
            ~persistence:Fs.Inode.Persistent ~len:(Sim.Units.kib 32)
            ~prot:Hw.Prot.rw ()
        in
        ignore
          (Fom.access_range fom p1 ~va:r.Fom.va ~len:r.Fom.len ~write:true
             ~stride:Sim.Units.page_size);
        Fom.free fom p1 r)
  done;
  (* Pressure finale: overcommit the anonymous pool ~3x. Injected faults
     aside, allocation now fails for real, so the reclaim-then-retry
     pass (and, if reclaim cannot keep up, the typed OOM) is exercised
     under genuine exhaustion, not just simulated refusals. *)
  let hog = Os.Kernel.create_process kernel () in
  guard (fun () ->
      for _ = 1 to 12 do
        let len = Sim.Units.mib 1 in
        let va =
          Os.Kernel.mmap_anon kernel hog ~len ~prot:Hw.Prot.rw ~populate:false
        in
        ignore
          (Os.Kernel.access_range kernel hog ~va ~len ~write:true
             ~stride:Sim.Units.page_size)
      done);
  Os.Check.run kernel
