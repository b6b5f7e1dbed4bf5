(* A key-value store whose cache tier lives in discardable files.

   The paper (§4.1): "if applications use a file API to access
   non-critical data (i.e., discardable data such as caches), the OS can
   reclaim the memory by deleting non-critical files" — the benefits of
   transcendent memory without per-page scanning.

   This example builds a KV store with a persistent log file and a set of
   per-shard cache files. Under memory pressure the OS deletes the coldest
   shards; the store transparently rebuilds them from the log on the next
   miss. Run with: dune exec examples/kv_cache.exe *)

module F = O1mem.Fom

type store = {
  fom : F.t;
  fs : Fs.Memfs.t;
  log_ino : int;
  mutable log_entries : (string * string) list; (* newest first *)
  shards : int;
}

let shard_path i = Printf.sprintf "/kv/shard-%d" i
let shard_of store key = Hashtbl.hash key mod store.shards

let create fom ~shards =
  let fs = F.fs fom in
  Fs.Memfs.mkdir fs "/kv";
  let log_ino = Fs.Memfs.create_file fs "/kv/log" ~persistence:Fs.Inode.Persistent in
  { fom; fs; log_ino; log_entries = []; shards }

(* Rebuild a shard cache file from the log: an expensive miss path. *)
let rebuild_shard store i =
  let path = shard_path i in
  (match Fs.Memfs.lookup store.fs path with
  | Some _ -> ()
  | None ->
    let ino = Fs.Memfs.create_file store.fs path ~persistence:Fs.Inode.Volatile in
    Fs.Memfs.set_discardable store.fs ino true;
    (* Serialize this shard's entries into the cache file. *)
    let entries =
      List.filter (fun (k, _) -> shard_of store k = i) store.log_entries
    in
    let payload = String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) entries) in
    Fs.Memfs.write_file store.fs ino ~off:0 (if payload = "" then ";" else payload);
    (* Pad the cache to a realistic working-set size. *)
    Fs.Memfs.extend store.fs ino ~bytes_wanted:(Sim.Units.kib 256));
  Option.get (Fs.Memfs.lookup store.fs path)

let put store key value =
  (* Append to the durable log... *)
  let entry = key ^ "=" ^ value ^ "\n" in
  let off = (Fs.Memfs.inode store.fs store.log_ino).Fs.Inode.size in
  Fs.Memfs.write_file store.fs store.log_ino ~off entry;
  store.log_entries <- (key, value) :: store.log_entries;
  (* ...and update the shard cache if it is currently materialized. *)
  let i = shard_of store key in
  match Fs.Memfs.lookup store.fs (shard_path i) with
  | Some ino -> Fs.Memfs.write_file store.fs ino ~off:0 (key ^ "=" ^ value)
  | None -> ()

let get store key =
  let i = shard_of store key in
  let hit = Fs.Memfs.lookup store.fs (shard_path i) <> None in
  let ino = rebuild_shard store i in
  ignore ino;
  let value = List.assoc_opt key store.log_entries in
  (value, hit)

let () =
  let kernel = Os.Kernel.create () in
  let fom = O1mem.Fom.create kernel () in
  let store = create fom ~shards:16 in
  let rng = Sim.Rng.create ~seed:2017 in

  (* Load phase: 200 keys, then warm every shard. *)
  for i = 1 to 200 do
    put store (Printf.sprintf "user:%d" i) (Printf.sprintf "profile-%d" i)
  done;
  for i = 0 to store.shards - 1 do
    ignore (rebuild_shard store i)
  done;
  Printf.printf "Store loaded: %d keys across %d cached shards (%s of cache)\n"
    200 store.shards
    (Sim.Units.bytes_to_string (store.shards * Sim.Units.kib 256));

  (* Serve a zipf-skewed read workload; everything hits. *)
  let hits = ref 0 and misses = ref 0 and zipf = Sim.Rng.zipf ~n:200 ~theta:0.9 in
  let serve n =
    for _ = 1 to n do
      let k = Printf.sprintf "user:%d" (1 + zipf rng) in
      match get store k with
      | Some _, true -> incr hits
      | Some _, false -> incr misses
      | None, _ -> failwith "lost a key!"
    done
  in
  serve 500;
  Printf.printf "Warm phase: %d hits, %d misses\n" !hits !misses;

  (* Memory pressure: the OS needs 2 MiB back *now*. Instead of scanning
     page lists, it deletes the coldest discardable shard files. *)
  let freed =
    Fs.Memfs.reclaim_discardable store.fs ~target_bytes:(Sim.Units.mib 2)
  in
  let surviving =
    List.length
      (List.filter
         (fun i -> Fs.Memfs.lookup store.fs (shard_path i) <> None)
         (List.init store.shards Fun.id))
  in
  Printf.printf "Pressure! Reclaimed %s by deleting %d cold shards in O(files) time.\n"
    (Sim.Units.bytes_to_string freed)
    (store.shards - surviving);

  (* Keep serving: reclaimed shards rebuild lazily, nothing is lost. *)
  hits := 0;
  misses := 0;
  serve 500;
  Printf.printf "Post-reclaim phase: %d hits, %d misses (rebuilds), all keys intact.\n" !hits !misses;
  Printf.printf "Simulated time: %.1f ms\n"
    (Sim.Clock.us (Sim.Clock.now (Os.Kernel.clock kernel)) /. 1000.0)
