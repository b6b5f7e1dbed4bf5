(* A transactional persistent KV/object store on the FOM heap.

   Layout (all named persistent files under the store's prefix):

     <name>.wal        redo log, raw NVM journaled via Memfs.Wal
     <name>.manifest   two ping-pong snapshot halves, each a one-record WAL
     <name>.arena.<n>  Fom_heap arenas holding the object bytes

   Commit protocol (redo logging): ops buffer volatile; commit allocates
   every slot up front, appends [op records..., commit record] to the
   WAL (each record durable before the next — Wal.append's clwb/sfence
   discipline), then applies in place with durable slot writes. A crash
   anywhere yields the committed prefix: recovery replays exactly the
   transactions whose commit record survived, and everything else — torn
   records included — is detected by the WAL's checksums and truncated.
   Every record carries its transaction id and replay only adopts
   pending ops tagged with the id of the commit record that closes them,
   so records orphaned by a failed commit (e.g. ENOSPC after the
   auto-checkpoint retry) are inert even if they linger in the log ahead
   of a later transaction's records.

   Object identity is arena-relative (arena index, byte offset), never a
   virtual address: after a crash the arenas are re-mapped at fresh VAs
   (Fom_heap.reattach) and every slot still names the same bytes — the
   Puddles relocatable-region idea.

   The key -> slot index and root table are host-side bookkeeping, the
   stand-in for a persistent index structure that would live in the
   arenas themselves (PMO-style) and be re-mapped O(extents) at
   recovery; rebuilding them charges nothing, so recovery's charged cost
   is O(files + WAL records), which bench/exp_store.ml fits. *)

module FI = Sim.Fault_inject

let max_key_bytes = 512
let max_value_bytes = Sim.Units.kib 16

type slot = { arena : int; off : int; len : int; cksum : int }

type op =
  | Put of string * string
  | Delete of string
  | Set_root of string * string
  | Clear_root of string

type txn = { id : int; mutable ops : op list (* newest first *) }

type t = {
  fom : O1mem.Fom.t;
  mutable proc : Os.Proc.t;
  name : string;
  heap : Heap.Fom_heap.t;
  nvm : Physmem.Nvm.t; (* private handle: its unflushed lines are the store's *)
  wal_base : int;
  wal_capacity : int;
  mutable wal : Fs.Wal.t;
  manifest_base : int;
  manifest_half : int;
  mutable manifest_current : int; (* half holding the live snapshot *)
  mutable generation : int;
  index : (string, slot) Hashtbl.t;
  root_tbl : (string, string) Hashtbl.t;
  mutable txn : txn option;
  mutable next_txn_id : int;
  mutable detached : bool;
  mutable recovery_truncations : int;
  mutable last_replayed : int;
  rule_name : string;
}

let kernel t = O1mem.Fom.kernel t.fom
let fs t = O1mem.Fom.fs t.fom
let stats t = Os.Kernel.stats (kernel t)
let trace t = Os.Kernel.trace (kernel t)
let plane t = Sim.Trace.faults (trace t)

(* Same Adler-ish checksum as the WAL's, for value integrity: a get whose
   bytes no longer match raises EIO instead of serving damage. *)
let checksum s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  let v = (!b lsl 16) lor !a in
  if v = 0 then 1 else v

(* --- record encoding ----------------------------------------------- *)

let w32 buf v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Buffer.add_bytes buf b

let wstr buf s =
  w32 buf (String.length s);
  Buffer.add_string buf s

let r32 s pos =
  if !pos + 4 > String.length s then invalid_arg "Store: truncated record";
  let v = Int32.to_int (Bytes.get_int32_le (Bytes.of_string (String.sub s !pos 4)) 0) land 0xFFFFFFFF in
  pos := !pos + 4;
  v

let rstr s pos =
  let n = r32 s pos in
  if !pos + n > String.length s then invalid_arg "Store: truncated record";
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

type rec_op =
  | R_put of string * slot * string
  | R_delete of string
  | R_set_root of string * string
  | R_clear_root of string
  | R_commit of int

(* Every record opens with [tag; txn id]: replay matches pending ops to
   their commit record by id, so orphans can never ride a later commit. *)

let encode_put ~id k slot v =
  let b = Buffer.create (String.length k + String.length v + 32) in
  Buffer.add_char b 'P';
  w32 b id;
  wstr b k;
  w32 b slot.arena;
  w32 b slot.off;
  w32 b slot.len;
  w32 b slot.cksum;
  Buffer.add_string b v;
  Buffer.contents b

let encode_delete ~id k =
  let b = Buffer.create (String.length k + 12) in
  Buffer.add_char b 'D';
  w32 b id;
  wstr b k;
  Buffer.contents b

let encode_set_root ~id r k =
  let b = Buffer.create (String.length r + String.length k + 16) in
  Buffer.add_char b 'R';
  w32 b id;
  wstr b r;
  wstr b k;
  Buffer.contents b

let encode_clear_root ~id r =
  let b = Buffer.create (String.length r + 12) in
  Buffer.add_char b 'C';
  w32 b id;
  wstr b r;
  Buffer.contents b

let encode_commit id =
  let b = Buffer.create 8 in
  Buffer.add_char b 'T';
  w32 b id;
  Buffer.contents b

let decode payload =
  if payload = "" then invalid_arg "Store: empty record";
  let pos = ref 1 in
  let tag = payload.[0] in
  let id = r32 payload pos in
  match tag with
  | 'P' ->
    let k = rstr payload pos in
    let arena = r32 payload pos in
    let off = r32 payload pos in
    let len = r32 payload pos in
    let cksum = r32 payload pos in
    if !pos + len > String.length payload then invalid_arg "Store: truncated put";
    (id, R_put (k, { arena; off; len; cksum }, String.sub payload !pos len))
  | 'D' -> (id, R_delete (rstr payload pos))
  | 'R' ->
    let r = rstr payload pos in
    (id, R_set_root (r, rstr payload pos))
  | 'C' -> (id, R_clear_root (rstr payload pos))
  | 'T' -> (id, R_commit id)
  | c -> invalid_arg (Printf.sprintf "Store: unknown record tag %C" c)

(* Snapshot: generation, then the whole index and root table. *)
let encode_snapshot t ~gen =
  let b = Buffer.create 1024 in
  Buffer.add_char b 'S';
  w32 b gen;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.index [] |> List.sort String.compare in
  w32 b (List.length keys);
  List.iter
    (fun k ->
      let s = Hashtbl.find t.index k in
      wstr b k;
      w32 b s.arena;
      w32 b s.off;
      w32 b s.len;
      w32 b s.cksum)
    keys;
  let roots = Hashtbl.fold (fun r k acc -> (r, k) :: acc) t.root_tbl [] |> List.sort compare in
  w32 b (List.length roots);
  List.iter
    (fun (r, k) ->
      wstr b r;
      wstr b k)
    roots;
  Buffer.contents b

let decode_snapshot payload =
  if payload = "" || payload.[0] <> 'S' then invalid_arg "Store: bad snapshot";
  let pos = ref 1 in
  let gen = r32 payload pos in
  let nobj = r32 payload pos in
  let objs = ref [] in
  for _ = 1 to nobj do
    let k = rstr payload pos in
    let arena = r32 payload pos in
    let off = r32 payload pos in
    let len = r32 payload pos in
    let cksum = r32 payload pos in
    objs := (k, { arena; off; len; cksum }) :: !objs
  done;
  let nroots = r32 payload pos in
  let roots = ref [] in
  for _ = 1 to nroots do
    let r = rstr payload pos in
    let k = rstr payload pos in
    roots := (r, k) :: !roots
  done;
  (gen, List.rev !objs, List.rev !roots)

(* --- media addressing ---------------------------------------------- *)

(* Physical chunks backing [off, off+len) of an arena file (the arena
   region maps the file whole from offset 0, so a heap offset is a file
   offset). Values may straddle extent boundaries. *)
let phys_chunks t ~arena ~off ~len =
  let r = Heap.Fom_heap.arena_region t.heap arena in
  let page = Sim.Units.page_size in
  let exts = Fs.Memfs.file_extents (fs t) r.O1mem.Fom.ino in
  let chunks = ref [] in
  let remaining = ref len and cur = ref off in
  while !remaining > 0 do
    let pageno = !cur / page in
    match
      List.find_opt
        (fun (e : Fs.Extent.t) -> pageno >= e.Fs.Extent.logical && pageno < e.Fs.Extent.logical + e.Fs.Extent.count)
        exts
    with
    | None -> invalid_arg "Store: slot outside its arena's extents"
    | Some e ->
      let within = !cur - (e.Fs.Extent.logical * page) in
      let avail = (e.Fs.Extent.count * page) - within in
      let n = min avail !remaining in
      chunks := (Physmem.Frame.to_addr e.Fs.Extent.start + within, n) :: !chunks;
      cur := !cur + n;
      remaining := !remaining - n
  done;
  List.rev !chunks

let write_slot t slot value =
  let chunks = phys_chunks t ~arena:slot.arena ~off:slot.off ~len:(String.length value) in
  let pos = ref 0 in
  List.iter
    (fun (addr, n) ->
      Physmem.Nvm.write_persistent t.nvm ~addr (String.sub value !pos n);
      Physmem.Nvm.flush t.nvm ~addr ~len:n;
      pos := !pos + n)
    chunks;
  Physmem.Nvm.fence t.nvm

let read_slot t slot =
  let mem = Physmem.Nvm.mem t.nvm in
  let buf = Buffer.create slot.len in
  List.iter
    (fun (addr, n) -> Buffer.add_bytes buf (Physmem.Phys_mem.read mem ~addr ~len:n))
    (phys_chunks t ~arena:slot.arena ~off:slot.off ~len:slot.len);
  Buffer.contents buf

(* A WAL or manifest file must be one contiguous extent: the journal is
   raw NVM addressed linearly. FOM files are single-extent whenever free
   space allows; defragment once if not. *)
let contiguous_base fsys ino ~bytes =
  let single () =
    match Fs.Memfs.file_extents fsys ino with
    | [ e ] when e.Fs.Extent.count * Sim.Units.page_size >= bytes ->
      Some (Physmem.Frame.to_addr e.Fs.Extent.start)
    | _ -> None
  in
  match single () with
  | Some base -> base
  | None -> (
    ignore (Fs.Memfs.defragment fsys ());
    match single () with
    | Some base -> base
    | None -> invalid_arg "Store: journal file is not a single extent")

(* --- gauges -------------------------------------------------------- *)

let update_gauges t =
  let s = stats t in
  Sim.Stats.set_gauge s "store_objects" (Hashtbl.length t.index);
  Sim.Stats.set_gauge s "store_txn_live" (match t.txn with Some _ -> 1 | None -> 0);
  Sim.Stats.set_gauge s "store_wal_bytes" (Fs.Wal.used_bytes t.wal)

(* --- invariant rule ------------------------------------------------ *)

let root_rule t kernel' =
  if t.detached || not (kernel' == kernel t) then []
  else
    Hashtbl.fold
      (fun root key acc ->
        let bad detail = { Os.Check.check = "store_roots"; detail = t.name ^ ": " ^ detail } in
        match Hashtbl.find_opt t.index key with
        | None -> bad (Printf.sprintf "root %S -> missing key %S" root key) :: acc
        | Some slot -> (
          match Heap.Fom_heap.arena_region t.heap slot.arena with
          | exception Invalid_argument _ ->
            bad (Printf.sprintf "root %S -> key %S in unknown arena %d" root key slot.arena) :: acc
          | r ->
            if Fs.Memfs.lookup (fs t) r.O1mem.Fom.path <> Some r.O1mem.Fom.ino then
              bad (Printf.sprintf "root %S -> key %S: arena file %s gone" root key r.O1mem.Fom.path)
              :: acc
            else (
              match phys_chunks t ~arena:slot.arena ~off:slot.off ~len:slot.len with
              | _ -> acc
              | exception Invalid_argument _ ->
                bad
                  (Printf.sprintf "root %S -> key %S: slot (%d, %d, %d) outside arena extents" root
                     key slot.arena slot.off slot.len)
                :: acc)))
      t.root_tbl []

(* --- recovery ------------------------------------------------------ *)

let apply_replayed t ops =
  let replayed = ref 0 in
  let latest_put = Hashtbl.create 16 in
  List.iter
    (fun op ->
      incr replayed;
      match op with
      | R_put (k, slot, v) ->
        Hashtbl.replace t.index k slot;
        Hashtbl.replace latest_put k (slot, v)
      | R_delete k ->
        Hashtbl.remove t.index k;
        Hashtbl.remove latest_put k;
        let dead = Hashtbl.fold (fun r k' acc -> if k' = k then r :: acc else acc) t.root_tbl [] in
        List.iter (Hashtbl.remove t.root_tbl) dead
      | R_set_root (r, k) -> Hashtbl.replace t.root_tbl r k
      | R_clear_root r -> Hashtbl.remove t.root_tbl r
      | R_commit _ -> ())
    ops;
  (!replayed, latest_put)

let recover_hook t () =
  if t.detached then 0
  else
    Sim.Trace.span (trace t) ~op:"store_recover" ~arg:Fun.id @@ fun () ->
    t.proc <- Os.Kernel.create_process (kernel t) ();
    Heap.Fom_heap.reattach t.heap t.proc;
    (* Pick the newest valid manifest snapshot (ping-pong halves). A torn
       half fails the WAL's checksums — detected, counted, ignored. The
       scan is uncharged (recover_host): the snapshot stands in for a
       persistent index that recovery would re-map in O(extents), not
       stream through the CPU — this is what keeps recovery's charged
       cost O(files + WAL records) rather than O(objects). *)
    let best = ref None in
    for half = 0 to 1 do
      let w =
        Fs.Wal.recover_host ~nvm:t.nvm ~base:(t.manifest_base + (half * t.manifest_half))
          ~capacity:t.manifest_half
      in
      (match Fs.Wal.recovery_detail w with
      | Some { Fs.Wal.truncated = Some _; _ } ->
        t.recovery_truncations <- t.recovery_truncations + 1;
        Sim.Stats.incr (stats t) "store_manifest_truncated"
      | _ -> ());
      match Fs.Wal.entries w with
      | snap :: _ -> (
        match decode_snapshot snap with
        | gen, objs, roots -> (
          match !best with
          | Some (g, _, _, _) when g >= gen -> ()
          | _ -> best := Some (gen, objs, roots, half))
        | exception Invalid_argument _ ->
          t.recovery_truncations <- t.recovery_truncations + 1;
          Sim.Stats.incr (stats t) "store_manifest_truncated")
      | [] -> ()
    done;
    Hashtbl.reset t.index;
    Hashtbl.reset t.root_tbl;
    (match !best with
    | Some (gen, objs, roots, half) ->
      t.generation <- gen;
      t.manifest_current <- half;
      List.iter (fun (k, s) -> Hashtbl.replace t.index k s) objs;
      List.iter (fun (r, k) -> Hashtbl.replace t.root_tbl r k) roots
    | None ->
      t.generation <- 0;
      t.manifest_current <- 1);
    (* Replay the committed prefix of the redo log. *)
    let w = Fs.Wal.recover ~nvm:t.nvm ~base:t.wal_base ~capacity:t.wal_capacity in
    (match Fs.Wal.recovery_detail w with
    | Some { Fs.Wal.truncated = Some _; _ } ->
      t.recovery_truncations <- t.recovery_truncations + 1;
      Sim.Stats.incr (stats t) "store_wal_truncated"
    | _ -> ());
    t.wal <- w;
    (* Two-phase: fold committed transactions into the final index first,
       then redo value writes — never write a logged value into a slot
       the final index assigns to someone else (slot reuse). A commit
       record adopts only the pending ops tagged with its own txn id:
       anything else is an orphan of a commit that failed after logging
       (its id was never committed and ids are never reused), so it is
       dropped, not replayed. *)
    let pending = ref [] and committed = ref [] in
    List.iter
      (fun payload ->
        match decode payload with
        | _, (R_commit cid as c) ->
          let mine, orphans = List.partition (fun (id, _) -> id = cid) !pending in
          if orphans <> [] then
            Sim.Stats.add (stats t) "store_wal_orphans" (List.length orphans);
          committed := !committed @ List.rev_map snd ((cid, c) :: mine);
          pending := []
        | tagged -> pending := tagged :: !pending
        | exception Invalid_argument _ -> pending := [] (* defensive; WAL checksums make this unreachable *))
      (Fs.Wal.entries w);
    let replayed, latest_put = apply_replayed t !committed in
    Hashtbl.iter
      (fun k (slot, v) ->
        match Hashtbl.find_opt t.index k with
        | Some s when s = slot -> write_slot t slot v
        | _ -> ())
      latest_put;
    (* Reconcile the heap: blocks allocated by uncommitted transactions
       (or orphaned by truncation) are not referenced by the final index
       — free them. Host-side sweep, the stand-in for a journaled
       allocator walking its own metadata. *)
    let referenced = Hashtbl.create 64 in
    Hashtbl.iter (fun _ s -> Hashtbl.replace referenced (s.arena, s.off) ()) t.index;
    let stale = ref [] in
    Heap.Fom_heap.iter_live t.heap (fun va _ ->
        match Heap.Fom_heap.locate t.heap va with
        | Some (arena, off) when not (Hashtbl.mem referenced (arena, off)) -> stale := va :: !stale
        | _ -> ());
    List.iter (fun va -> Heap.Fom_heap.free t.heap va) !stale;
    t.txn <- None;
    t.last_replayed <- replayed;
    update_gauges t;
    Sim.Stats.incr (stats t) "store_recover";
    replayed

(* --- lifecycle ----------------------------------------------------- *)

let instance = ref 0

let create fom proc ?(arena_bytes = Sim.Units.mib 1) ?(wal_bytes = Sim.Units.kib 128)
    ?(manifest_bytes = Sim.Units.kib 128) ~name () =
  if name = "" || name.[0] <> '/' then invalid_arg "Store.create: name must be an absolute path";
  (match Os.Kernel.pmfs (O1mem.Fom.kernel fom) with
  | Some p when p == O1mem.Fom.fs fom -> ()
  | _ -> invalid_arg "Store.create: the FOM must live on the persistent file system");
  let fsys = O1mem.Fom.fs fom in
  (* Creating over an existing store would silently wipe its committed
     state (both journals are initialised blank below); reopening is not
     supported, so refuse rather than destroy. *)
  let mk path bytes =
    match Fs.Memfs.lookup fsys path with
    | Some _ ->
      invalid_arg (Printf.sprintf "Store.create: %s already exists (create never reopens a prior store)" path)
    | None ->
      let ino = Fs.Memfs.create_file fsys path ~persistence:Fs.Inode.Persistent in
      Fs.Memfs.extend fsys ino ~bytes_wanted:bytes;
      ino
  in
  let wal_ino = mk (name ^ ".wal") wal_bytes in
  let manifest_ino = mk (name ^ ".manifest") manifest_bytes in
  let nvm = Physmem.Nvm.create (Os.Kernel.mem (O1mem.Fom.kernel fom)) in
  let heap = Heap.Fom_heap.create fom proc ~arena_bytes ~file_prefix:(name ^ ".arena") () in
  let wal_base = contiguous_base fsys wal_ino ~bytes:wal_bytes in
  let manifest_base = contiguous_base fsys manifest_ino ~bytes:manifest_bytes in
  let manifest_half = manifest_bytes / 2 in
  let wal = Fs.Wal.create ~nvm ~base:wal_base ~capacity:wal_bytes in
  Fs.Wal.reset wal;
  (* Start from a clean slate durably: both manifest halves blank. *)
  for half = 0 to 1 do
    let w = Fs.Wal.create ~nvm ~base:(manifest_base + (half * manifest_half)) ~capacity:manifest_half in
    Fs.Wal.reset w
  done;
  incr instance;
  let t =
    {
      fom;
      proc;
      name;
      heap;
      nvm;
      wal_base;
      wal_capacity = wal_bytes;
      wal;
      manifest_base;
      manifest_half;
      manifest_current = 1;
      generation = 0;
      index = Hashtbl.create 256;
      root_tbl = Hashtbl.create 8;
      txn = None;
      next_txn_id = 1;
      detached = false;
      recovery_truncations = 0;
      last_replayed = 0;
      rule_name = Printf.sprintf "store_roots:%s#%d" name !instance;
    }
  in
  O1mem.Fom.on_crash fom ~name:("store" ^ name) (fun () ->
      if not t.detached then Physmem.Nvm.crash t.nvm);
  O1mem.Fom.on_recover fom ~name:("store" ^ name) (fun () -> recover_hook t ());
  Os.Check.register_rule ~name:t.rule_name (root_rule t);
  update_gauges t;
  t

let detach t =
  t.detached <- true;
  Os.Check.unregister_rule ~name:t.rule_name;
  O1mem.Fom.remove_hooks t.fom ~name:("store" ^ t.name)

(* --- transactions --------------------------------------------------- *)

let require_txn t =
  match t.txn with
  | Some txn -> txn
  | None -> invalid_arg "Store: no open transaction"

let begin_txn t =
  if t.detached then invalid_arg "Store: detached";
  (match t.txn with Some _ -> invalid_arg "Store.begin_txn: transaction already open" | None -> ());
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  t.txn <- Some { id; ops = [] };
  update_gauges t;
  id

let put t key value =
  if key = "" || String.length key > max_key_bytes then invalid_arg "Store.put: bad key";
  if value = "" || String.length value > max_value_bytes then invalid_arg "Store.put: bad value size";
  let txn = require_txn t in
  txn.ops <- Put (key, value) :: txn.ops

let delete t key =
  let txn = require_txn t in
  txn.ops <- Delete key :: txn.ops

let set_root t root key =
  if root = "" then invalid_arg "Store.set_root: empty root name";
  let txn = require_txn t in
  txn.ops <- Set_root (root, key) :: txn.ops

let clear_root t root =
  let txn = require_txn t in
  txn.ops <- Clear_root root :: txn.ops

let abort t =
  ignore (require_txn t);
  t.txn <- None;
  update_gauges t

let addr_of t slot = Heap.Fom_heap.address t.heap ~arena:slot.arena ~off:slot.off

let alloc_block t len =
  let attempt () =
    if FI.fires (plane t) ~site:FI.site_store_alloc then
      Sim.Errno.fail Sim.Errno.ENOSPC "Store.alloc (injected)"
    else Heap.Fom_heap.malloc t.heap ~bytes:len
  in
  try attempt ()
  with Sim.Errno.Error ((Sim.Errno.ENOMEM | Sim.Errno.ENOSPC), _) ->
    (* Graceful degradation: defragment the file system (coalescing free
       space so the next arena can be a single extent) and retry once. *)
    Sim.Stats.incr (stats t) "store_alloc_retry";
    ignore (Fs.Memfs.defragment (fs t) ());
    attempt ()

let live_apply_put t key slot =
  (match Hashtbl.find_opt t.index key with
  | Some old -> Heap.Fom_heap.free t.heap (addr_of t old)
  | None -> ());
  Hashtbl.replace t.index key slot

let live_apply_delete t key =
  match Hashtbl.find_opt t.index key with
  | None -> ()
  | Some old ->
    Heap.Fom_heap.free t.heap (addr_of t old);
    Hashtbl.remove t.index key;
    let dead = Hashtbl.fold (fun r k acc -> if k = key then r :: acc else acc) t.root_tbl [] in
    List.iter (Hashtbl.remove t.root_tbl) dead

let checkpoint_locked t =
  let gen = t.generation + 1 in
  let snap = encode_snapshot t ~gen in
  let half = 1 - t.manifest_current in
  let base = t.manifest_base + (half * t.manifest_half) in
  let mwal = Fs.Wal.create ~nvm:t.nvm ~base ~capacity:t.manifest_half in
  Fs.Wal.reset mwal;
  (match Fs.Wal.append mwal snap with
  | Ok () -> ()
  | Error Fs.Wal.Wal_full -> Sim.Errno.fail Sim.Errno.ENOSPC "Store.checkpoint: manifest too small");
  (* The new snapshot is durable; only now may the redo log be cut. A
     crash in between replays the log on top of the snapshot, which is
     idempotent. *)
  t.generation <- gen;
  t.manifest_current <- half;
  Fs.Wal.reset t.wal;
  Sim.Stats.incr (stats t) "store_checkpoint";
  update_gauges t

let checkpoint t =
  if t.detached then invalid_arg "Store: detached";
  (match t.txn with Some _ -> invalid_arg "Store.checkpoint: transaction open" | None -> ());
  Sim.Profile.span (Sim.Trace.profile (trace t)) "store_checkpoint" @@ fun () ->
  checkpoint_locked t

let commit t =
  let txn = require_txn t in
  let n_ops = List.length txn.ops in
  Sim.Trace.span (trace t) ~op:"store_commit" ~arg:(fun () -> n_ops) @@ fun () ->
  if FI.fires (plane t) ~site:FI.site_store_commit then begin
    t.txn <- None;
    update_gauges t;
    Sim.Stats.incr (stats t) "store_commit_abort";
    Sim.Errno.fail Sim.Errno.EIO "Store.commit: injected abort"
  end;
  let ops = List.rev txn.ops in
  let allocated = ref [] in
  let rollback () =
    List.iter (fun va -> Heap.Fom_heap.free t.heap va) !allocated;
    t.txn <- None;
    update_gauges t
  in
  let staged =
    try
      List.map
        (fun op ->
          match op with
          | Put (k, v) ->
            let va = alloc_block t (String.length v) in
            allocated := va :: !allocated;
            let arena, off =
              match Heap.Fom_heap.locate t.heap va with
              | Some x -> x
              | None -> assert false (* values are capped below the large threshold *)
            in
            let slot = { arena; off; len = String.length v; cksum = checksum v } in
            (op, Some slot, encode_put ~id:txn.id k slot v)
          | Delete k -> (op, None, encode_delete ~id:txn.id k)
          | Set_root (r, k) -> (op, None, encode_set_root ~id:txn.id r k)
          | Clear_root r -> (op, None, encode_clear_root ~id:txn.id r))
        ops
    with e ->
      rollback ();
      raise e
  in
  let payloads = List.map (fun (_, _, p) -> p) staged @ [ encode_commit txn.id ] in
  let append_all () =
    let rec go = function
      | [] -> true
      | p :: tl -> (
        match Fs.Wal.append t.wal p with
        | Ok () -> go tl
        | Error Fs.Wal.Wal_full -> false)
    in
    go payloads
  in
  if not (append_all ()) then begin
    (* WAL full mid-commit: checkpoint and retry once. Apply-at-commit
       means every committed transaction is already durable in place, so
       cutting the log loses nothing; the current transaction's partial
       records die with the reset (its commit record never landed) and
       are re-appended whole. *)
    Sim.Stats.incr (stats t) "store_wal_checkpoint";
    (try checkpoint_locked t
     with e ->
       (* Checkpoint itself failed (e.g. the snapshot outgrew a manifest
          half): the transaction cannot land. Its partial records stay in
          the log but are txn-id-tagged, so replay can never attribute
          them to a later commit. *)
       rollback ();
       raise e);
    if not (append_all ()) then begin
      (* The checkpoint just cut the log, so it now holds only this
         transaction's partial records: cut them durably so the
         rolled-back ops can never be replayed. *)
      Fs.Wal.reset t.wal;
      rollback ();
      Sim.Errno.fail Sim.Errno.ENOSPC "Store.commit: transaction exceeds WAL capacity"
    end
  end;
  (* Commit point passed: apply in place (redo). *)
  List.iter
    (fun (op, slot, _) ->
      match (op, slot) with
      | Put (k, v), Some slot ->
        if FI.fires (plane t) ~site:FI.site_store_apply then begin
          (* A failed media write: pay for it, then redo. *)
          Sim.Stats.incr (stats t) "store_apply_retry";
          write_slot t slot v
        end;
        write_slot t slot v;
        live_apply_put t k slot
      | Delete k, _ -> live_apply_delete t k
      | Set_root (r, k), _ -> Hashtbl.replace t.root_tbl r k
      | Clear_root r, _ -> Hashtbl.remove t.root_tbl r
      | Put _, None -> assert false)
    staged;
  t.txn <- None;
  Sim.Stats.incr (stats t) "store_commit";
  update_gauges t

(* --- reads ---------------------------------------------------------- *)

let get t key =
  match Hashtbl.find_opt t.index key with
  | None -> None
  | Some slot ->
    let v = read_slot t slot in
    if checksum v <> slot.cksum then begin
      Sim.Stats.incr (stats t) "store_eio";
      Sim.Errno.fail Sim.Errno.EIO (Printf.sprintf "Store.get: checksum mismatch for %S" key)
    end;
    Some v

let mem t key = Hashtbl.mem t.index key
let root t name = Hashtbl.find_opt t.root_tbl name

let roots t =
  Hashtbl.fold (fun r k acc -> (r, k) :: acc) t.root_tbl [] |> List.sort compare

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.index [] |> List.sort String.compare
let object_count t = Hashtbl.length t.index
let txn_live t = match t.txn with Some _ -> true | None -> false
let wal_used_bytes t = Fs.Wal.used_bytes t.wal
let wal_record_count t = Fs.Wal.entry_count t.wal
let arena_count t = Heap.Fom_heap.arena_count t.heap
let generation t = t.generation
let recovery_truncations t = t.recovery_truncations
let last_replayed t = t.last_replayed
let name t = t.name
let proc t = t.proc

let verify t =
  let acc = ref (root_rule t (kernel t)) in
  Hashtbl.iter
    (fun k slot ->
      match read_slot t slot with
      | v ->
        if checksum v <> slot.cksum then
          acc :=
            {
              Os.Check.check = "store_data";
              detail = Printf.sprintf "%s: key %S fails its checksum" t.name k;
            }
            :: !acc
      | exception Invalid_argument msg ->
        acc :=
          { Os.Check.check = "store_data"; detail = Printf.sprintf "%s: key %S: %s" t.name k msg }
          :: !acc)
    t.index;
  List.rev !acc
