type report = {
  files_scanned : int;
  masters_kept : int;
  masters_dropped : int;
  recovery_cycles : int;
  hook_records : (string * int) list;
}

let crash fom =
  let kernel = Fom.kernel fom in
  (* Processes die with the machine: no orderly teardown, no unmap cost. *)
  Physmem.Phys_mem.crash (Os.Kernel.mem kernel);
  Fs.Memfs.crash (Os.Kernel.tmpfs kernel);
  (match Os.Kernel.pmfs kernel with Some p -> Fs.Memfs.crash p | None -> ());
  Os.Kernel.reset_after_crash kernel;
  Fom.reset_after_crash fom;
  Sim.Stats.incr (Os.Kernel.stats kernel) "machine_crash"

let recover fom =
  let kernel = Fom.kernel fom in
  let clock = Os.Kernel.clock kernel in
  let before = Sim.Clock.now clock in
  let files_scanned =
    match Os.Kernel.pmfs kernel with Some p -> Fs.Memfs.recover p | None -> 0
  in
  (* Nothing grafts a master any more: one whose file died is freed. *)
  let sp = Fom.shared_pt fom and live = Fs.Memfs.exists (Fom.fs fom) in
  let drop n ino = if live ino then n else n + Shared_pt.drop sp ~ino in
  let dropped = List.fold_left drop 0 (Shared_pt.inodes sp) in
  let kept = Shared_pt.master_count sp in
  (* Re-baseline the journal gauge: recovery replayed/kept the WAL, and
     the gauge must reflect the post-recovery log, not the pre-crash one. *)
  (match Os.Kernel.pmfs kernel with
  | Some p -> Sim.Stats.set_gauge (Os.Kernel.stats kernel) "wal_bytes" (Fs.Memfs.journal_bytes p)
  | None -> ());
  (* Component recovery hooks last: the file system is consistent, so the
     store (and anything else registered) can replay its own WAL and
     rebuild its index — before any process maps the recovered data. *)
  let hook_records = Fom.run_recovery_hooks fom in
  {
    files_scanned;
    masters_kept = kept;
    masters_dropped = dropped;
    recovery_cycles = Sim.Clock.elapsed clock ~since:before;
    hook_records;
  }

let crash_and_recover fom =
  crash fom;
  recover fom
