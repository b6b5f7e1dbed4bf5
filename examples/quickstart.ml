(* Quickstart: boot a simulated machine, allocate memory as a file,
   touch it with zero page faults, survive a power failure, and read the
   data back. Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A machine: 1 GiB DRAM + 4 GiB persistent memory (NVM). *)
  let kernel = Os.Kernel.create () in
  let fom = O1mem.Fom.create kernel () in
  let proc = Os.Kernel.create_process kernel () in
  Printf.printf "Booted: %d MiB DRAM, %d MiB NVM\n"
    (Physmem.Phys_mem.dram_frames (Os.Kernel.mem kernel) * Sim.Units.page_size / Sim.Units.mib 1)
    (Physmem.Phys_mem.nvm_frames (Os.Kernel.mem kernel) * Sim.Units.page_size / Sim.Units.mib 1);

  (* 2. Allocate 16 MiB of memory *as a named file* and map it whole. *)
  let region =
    O1mem.Fom.alloc fom proc ~name:"/my-dataset" ~len:(Sim.Units.mib 16) ~prot:Hw.Prot.rw ()
  in
  Printf.printf "Allocated %s at VA %#x backed by file %s (strategy: %s)\n"
    (Sim.Units.bytes_to_string region.O1mem.Fom.len)
    region.O1mem.Fom.va region.O1mem.Fom.path
    (O1mem.Fom.strategy_name region.O1mem.Fom.strategy);

  (* 3. Touch every page. File-only memory is fully mapped up front, so
     this never takes a page fault. *)
  let touched =
    O1mem.Fom.access_range fom proc ~va:region.O1mem.Fom.va ~len:region.O1mem.Fom.len
      ~write:true ~stride:Sim.Units.page_size
  in
  Printf.printf "Touched %d pages; page faults taken: %d\n" touched
    (Sim.Stats.get (Os.Kernel.stats kernel) "page_fault");

  (* 4. Write some real data through the file API and mark it persistent. *)
  let fs = O1mem.Fom.fs fom in
  Fs.Memfs.write_file fs region.O1mem.Fom.ino ~off:0 "records: 42";
  O1mem.Fom.persist fom region;
  Printf.printf "Wrote data and marked the file persistent.\n";

  (* 5. Power failure. All processes die; DRAM is gone. *)
  let report = O1mem.Persistence.crash_and_recover fom in
  Printf.printf "Crash! Recovery scanned %d files in %.1f us (O(files), not O(bytes)).\n"
    report.O1mem.Persistence.files_scanned
    (Sim.Clock.us report.O1mem.Persistence.recovery_cycles);

  (* 6. The named file survived, data intact; map it into a new process. *)
  let proc2 = Os.Kernel.create_process kernel () in
  let region2 = O1mem.Fom.map_path fom proc2 "/my-dataset" in
  let ino = region2.O1mem.Fom.ino in
  let back = Fs.Memfs.read_file fs ino ~off:0 ~len:11 in
  Printf.printf "After reboot, /my-dataset reads: %S\n" (Bytes.to_string back);

  (* 7. Whole-file operations: one call changes protection for all 16 MiB. *)
  let region2 = O1mem.Fom.protect fom proc2 region2 ~prot:Hw.Prot.r in
  Printf.printf "Downgraded the whole mapping to read-only in one O(windows) call.\n";
  (try
     O1mem.Fom.access fom proc2 ~va:region2.O1mem.Fom.va ~write:true;
     print_endline "BUG: write should have been denied"
   with Os.Fault.Segfault _ -> Printf.printf "Write correctly denied after protect.\n");

  Printf.printf "Total simulated time: %.1f us\n"
    (Sim.Clock.us (Sim.Clock.now (Os.Kernel.clock kernel)))
