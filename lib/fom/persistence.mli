(** Crash and recovery orchestration (paper §4.1, experiment E17).

    "All data lives in files that can be marked at any time as volatile
    or persistent to indicate whether they should survive process
    terminations and system restarts."

    A crash kills every process and loses DRAM (tmpfs included); PMFS
    metadata and [Persistent] file contents survive. Recovery is
    O(files): volatile files in PMFS are deleted (their frames
    bulk-erased), persistent files — and their pre-created master page
    tables — are immediately usable again. *)

type report = {
  files_scanned : int;
  masters_kept : int;
  masters_dropped : int;
  recovery_cycles : int;
  hook_records : (string * int) list;
      (** per registered recovery hook (name order): records it replayed *)
}

val crash : Fom.t -> unit
(** Power failure: all processes die, DRAM contents and the tmpfs
    namespace are lost, and {!Physmem.Phys_mem.crash} reverts every
    unflushed NVM line (PMFS's journal and the store's alike). *)

val recover : Fom.t -> report
(** Bring the machine back: run PMFS recovery, prune master page tables
    of files that did not survive, and reset FOM's region registry; then
    run registered {!Fom.on_recover} hooks (e.g. store WAL replay), so
    recovery completes before any process remaps the data. *)

val crash_and_recover : Fom.t -> report
