type t = { fs : Fs.Memfs.t; mutable paths : string list }

let create ~fs = { fs; paths = [] }

let register_cache_file t ~path ~size =
  let ino = Fs.Memfs.create_file t.fs path ~persistence:Fs.Inode.Volatile in
  Fs.Memfs.extend t.fs ino ~bytes_wanted:size;
  Fs.Memfs.set_discardable t.fs ino true;
  t.paths <- path :: t.paths

let touch t ~path =
  match Fs.Memfs.lookup t.fs path with
  | Some ino -> Fs.Memfs.open_file t.fs ino; Fs.Memfs.close_file t.fs ino
  | None -> ()

let still_present t ~path = Fs.Memfs.lookup t.fs path <> None

let pressure t ~needed_bytes =
  let freed = Fs.Memfs.reclaim_discardable t.fs ~target_bytes:needed_bytes in
  t.paths <- List.filter (fun p -> still_present t ~path:p) t.paths;
  freed

