(* A transactional persistent KV/object store on the FOM heap.

   Layout (all named persistent files under the store's prefix):

     <name>.wal        redo log, raw NVM journaled via Fs.Wal: one record
     <name>.manifest   the index: a fixed-bucket hash table of 64-byte
                       lines, updated in place
     <name>.arena.<n>  Fom_heap arenas (1 MiB each) holding the blocks

   A block holds a key beside its value under one checksum; an index
   entry holds the key's tag and the block's slot, so a get confirms the
   key with the block read it does anyway. A root is an object too:
   [root_key r] holds the key [r] names and [refs_key k] lists the roots
   naming [k], so the log, the apply and recovery only see key writes.

   Commit: fold the ops into each key's final write, write each new block
   to a fresh slot, flushed, then log one WAL record over the log's head
   naming each write's slot or its delete, with no value (the append's
   first fence orders the blocks before its marker), then point the index
   lines at the blocks in place, each flushed, under one fence. Every
   apply is durable before the next record overwrites its own, so the log
   holds one record, the only one whose apply can be partial: recovery
   redoes at most one transaction, through the same index-only apply.
   Writes go through the machine's one persistence domain (Phys_mem), so
   the store holds no durability handle and needs no crash hook.

   Media I/O copies each byte once. A block is built and checksummed in
   the store's block buffer and written from it; a block read lands in
   the same buffer, where its checksum and key are checked in place, and
   a get copies out only the value. An index line is read into the
   store's line buffer (never the block buffer, which a probe's accept
   reads into while the line is held), edited, checksummed and written
   from there; a host-side walk checks whole index frames in a third
   buffer. A block's extents are walked without building a list.

   Object identity is arena-relative (arena index, byte offset), never a
   virtual address: after a crash the arenas are re-mapped at fresh VAs
   (Fom_heap.reattach) and every slot still names the same bytes — the
   Puddles relocatable-region idea. The heap's allocation state is the
   one host-side stand-in left: recovery frees the blocks of a commit that
   never reached its record by walking the index uncharged (DESIGN.md S23). *)

module FI = Sim.Fault_inject
module PM = Physmem.Phys_mem

let max_key_bytes = 512
let max_value_bytes = Sim.Units.kib 16
let wal_bytes = Sim.Units.kib 128 (* the redo log: it caps one transaction's record *)

(* A block: [checksum 4][key length 4][key][value]; [len] covers it all. *)
type slot = { arena : int; off : int; len : int }

let block_header = 8
let block_len key value = block_header + String.length key + String.length value
let max_block = block_header + max_key_bytes + max_value_bytes

type op =
  | Put of string * string
  | Delete of string
  | Set_root of string * string
  | Clear_root of string

(* A key's final write in a transaction: its new block's slot, or none. *)
type write = { key : string; put : slot option }

type t = {
  fom : O1mem.Fom.t;
  mutable proc : Os.Proc.t;
  name : string;
  heap : Heap.Fom_heap.t;
  wal_base : int;
  mutable wal : Fs.Wal.t;
  index_base : int;
  buckets : int; (* bucket lines 0..buckets-1 *)
  mutable generation : int; (* host-side: moves each time the log restarts *)
  mutable entries : int; (* index entries in use, internal ones included *)
  mutable objects : int; (* user keys *)
  mutable txn : op list option; (* newest first *)
  mutable detached : bool;
  mutable recovery_truncations : int;
  mutable last_replayed : int;
  mutable block : Bytes.t; (* the block being built or read *)
  line : Bytes.t; (* the index line being probed or written *)
  scan : Bytes.t; (* the index frame a host-side walk is on *)
}

let kernel t = O1mem.Fom.kernel t.fom
let fs t = O1mem.Fom.fs t.fom
let stats t = Os.Kernel.stats (kernel t)
let trace t = Os.Kernel.trace (kernel t)
let plane t = Sim.Trace.faults (trace t)
let mem t = Os.Kernel.mem (kernel t)

(* Checkers, introspection and the recovery sweep read the media host-side. *)
let uncharged t f = Sim.Clock.off (Os.Kernel.clock (kernel t)) f

let root_key r = "\000" ^ r
let refs_key k = "\001" ^ k
let internal key = key <> "" && (key.[0] = '\000' || key.[0] = '\001')

(* FNV-1a, folded: the bucket from the low bits, the tag from the high. *)
let hash key =
  let h = ref 0xcbf29ce4 in
  for i = 0 to String.length key - 1 do
    h := (!h lxor Char.code key.[i]) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let tag_of h = match (h lsr 31) land 0xFFFFFFFF with 0 -> 1 | v -> v

(* --- the record ----------------------------------------------------- *)

let w32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let wstr buf s =
  w32 buf (String.length s);
  Buffer.add_string buf s

let r32 s pos =
  pos := !pos + 4;
  Int32.to_int (String.get_int32_le s (!pos - 4)) land 0xFFFFFFFF

let rstr s pos =
  let n = r32 s pos in
  pos := !pos + n;
  String.sub s (!pos - n) n

(* One record per transaction: every final write, oldest first, naming
   its block's slot; the blocks are on the media before the record. *)
let encode_txn writes =
  let b = Buffer.create 256 in
  List.iter
    (fun w ->
      wstr b w.key;
      match w.put with
      | Some s ->
        Buffer.add_char b 'P';
        w32 b s.arena;
        w32 b s.off;
        w32 b s.len
      | None -> Buffer.add_char b 'D')
    writes;
  Buffer.contents b

(* The length of [encode_txn]'s record for [finals]: per write, the
   key's length and bytes and the kind byte, plus the slot for a put. *)
let record_len finals =
  List.fold_left (fun n (key, v) -> n + 5 + String.length key + if v = None then 0 else 12) 0 finals

let decode_txn payload =
  let pos = ref 0 and acc = ref [] in
  while !pos < String.length payload do
    let key = rstr payload pos in
    incr pos;
    let put =
      if payload.[!pos - 1] = 'D' then None
      else
        let arena = r32 payload pos in
        let off = r32 payload pos in
        Some { arena; off; len = r32 payload pos }
    in
    acc := { key; put } :: !acc
  done;
  List.rev !acc

(* --- blocks -------------------------------------------------------- *)

(* [f addr pos n] on each physical run of the first [len] bytes of
   [slot]'s block, [pos] counting from the block's start. The arena
   region maps the file whole from offset 0, so a heap offset is a file
   offset; a block may straddle extent boundaries. *)
let iter_chunks t slot ~len f =
  let r = Heap.Fom_heap.arena_region t.heap slot.arena in
  let page = Sim.Units.page_size in
  let tree = Fs.Inode.extents (Fs.Memfs.inode (fs t) r.O1mem.Fom.ino) in
  let pos = ref 0 in
  while !pos < len do
    match Fs.Extent_tree.find_extent tree ~page:((slot.off + !pos) / page) with
    | None -> invalid_arg "Store: slot outside its arena's extents"
    | Some e ->
      let within = slot.off + !pos - (e.Fs.Extent.logical * page) in
      let n = min ((e.Fs.Extent.count * page) - within) (len - !pos) in
      f (Physmem.Frame.to_addr e.Fs.Extent.start + within) !pos n;
      pos := !pos + n
  done

let get32 b o = Int32.to_int (Bytes.get_int32_le b o) land 0xFFFFFFFF

(* Grow [t.block] to hold [len] bytes: every user block fits the
   [max_block] it starts at, but a long root name or a long list of the
   roots naming a key may not. *)
let fit_block t len =
  if Bytes.length t.block < len then t.block <- Bytes.create (max len (2 * Bytes.length t.block))

(* Build a block in [t.block] and checksum it there, then write and flush
   it, ahead of the record that names it. *)
let write_block t slot key value =
  fit_block t slot.len;
  let b = t.block and kl = String.length key in
  Bytes.set_int32_le b 4 (Int32.of_int kl);
  Bytes.blit_string key 0 b block_header kl;
  Bytes.blit_string value 0 b (block_header + kl) (String.length value);
  Bytes.set_int32_le b 0 (Int32.of_int (Fs.Wal.checksum_sub b ~pos:4 ~len:(slot.len - 4)));
  let write () =
    iter_chunks t slot ~len:slot.len (fun addr pos n ->
        PM.write_persistent_sub (mem t) ~addr b ~pos ~len:n;
        PM.flush (mem t) ~addr ~len:n)
  in
  if FI.fires (plane t) ~site:FI.site_store_apply then begin
    (* A failed media write: pay for it, then redo. *)
    Sim.Stats.incr (stats t) "store_apply_retry";
    write ()
  end;
  write ()

(* The first [len] bytes of a block into [t.block], through charged
   reads. The checks below read them there. *)
let read_block t slot ~len =
  fit_block t len;
  iter_chunks t slot ~len (fun addr pos n -> PM.read_into (mem t) ~addr ~len:n t.block ~pos)

let sum_ok t len = get32 t.block 0 = Fs.Wal.checksum_sub t.block ~pos:4 ~len:(len - 4)

(* The length of the key the block read claims, checksum unchecked, or
   -1 if it cannot hold one. *)
let key_len t len =
  let kl = if len < block_header then 0 else Int32.to_int (Bytes.get_int32_le t.block 4) in
  if kl < 1 || block_header + kl > len then -1 else kl

let key_of t len = match key_len t len with -1 -> None | kl -> Some (Bytes.sub_string t.block block_header kl)

let rec same_from b o key i =
  i = String.length key || (Bytes.get b (o + i) = key.[i] && same_from b o key (i + 1))

(* Whether the block read claims [key], compared in place. *)
let has_key t len key = key_len t len = String.length key && same_from t.block block_header key 0

(* The value of [key]'s block read: the one copy a get makes. *)
let value_in t len key =
  let o = block_header + String.length key in
  Bytes.sub_string t.block o (len - o)

(* --- index lines --------------------------------------------------- *)

(* A line: [checksum 4][overflow 2][internal bits 1][pad 1], then four
   entries of [tag 4][off 4][len 4][arena 2]. An all-zero line is empty;
   any other line must match its checksum. [overflow] counts the live
   entries placed past this line on their chain, so a lookup goes on to
   the next line only while one is; it saturates at 0xFFFF. Readers take
   the line's offset [o] in [b]: 0 in [t.line], any in [t.scan]. *)
let line_bytes = 64
let per_line = 4
let entry_at o i = o + 8 + (14 * i)
let line_addr t i = t.index_base + (i * line_bytes)

(* Into [t.line], which it returns: a caller is done with one line before
   it reads the next. *)
let read_line t i =
  PM.read_into (mem t) ~addr:(line_addr t i) ~len:line_bytes t.line ~pos:0;
  t.line

let line_sum b o = Fs.Wal.checksum_sub b ~pos:(o + 4) ~len:(line_bytes - 4)
let rec zero_from b o i = i = line_bytes || (Bytes.get_int64_ne b (o + i) = 0L && zero_from b o (i + 8))
let line_ok b o = match get32 b o with 0 -> zero_from b o 0 | sum -> sum = line_sum b o
let e_tag b o i = get32 b (entry_at o i)
let e_off b o i = get32 b (entry_at o i + 4)
let e_len b o i = get32 b (entry_at o i + 8)
let e_arena b o i = Bytes.get_uint16_le b (entry_at o i + 12)
let e_slot b o i = { off = e_off b o i; len = e_len b o i; arena = e_arena b o i }
let e_internal b o i = Bytes.get_uint8 b (o + 6) land (1 lsl i) <> 0
let overflow b = Bytes.get_uint16_le b 4

(* [Some (tag, internal, slot)] sets entry [i] of line [b], [None] clears it. *)
let set_entry b i entry =
  let o = entry_at 0 i and bits = Bytes.get_uint8 b 6 land lnot (1 lsl i) in
  match entry with
  | None ->
    Bytes.fill b o 14 '\000';
    Bytes.set_uint8 b 6 bits
  | Some (tag, internal, slot) ->
    Bytes.set_int32_le b o (Int32.of_int tag);
    Bytes.set_int32_le b (o + 4) (Int32.of_int slot.off);
    Bytes.set_int32_le b (o + 8) (Int32.of_int slot.len);
    Bytes.set_uint16_le b (o + 12) slot.arena;
    Bytes.set_uint8 b 6 (if internal then bits lor (1 lsl i) else bits)

let write_line t i b =
  Bytes.set_int32_le b 0 (Int32.of_int (line_sum b 0));
  PM.write_persistent_sub (mem t) ~addr:(line_addr t i) b ~pos:0 ~len:line_bytes;
  PM.flush (mem t) ~addr:(line_addr t i) ~len:line_bytes

let chain t h i = ((h land 0x7FFFFFFF) + i) mod t.buckets

(* Move [line]'s overflow count by [d], unless it is damaged or saturated. *)
let recount t line b d =
  if line_ok b 0 && overflow b < 0xFFFF && overflow b + d >= 0 then begin
    Bytes.set_uint16_le b 4 (overflow b + d);
    write_line t line b
  end

(* [Found (step, line, b, pos, x)]: entry [pos] of the chain's [step]-th line, read as [b]. *)
type 'a probe = Found of int * int * Bytes.t * int * 'a | Absent of bool (* a damaged line was passed *)

(* The first entry on [key]'s chain (charged line reads) with its tag that
   [accept] takes; damaged lines are stepped over like overflowed ones. *)
let probe t key accept =
  let h = hash key in
  let tag = tag_of h in
  let rec walk i damaged =
    if i = t.buckets then Absent damaged
    else
      let line = chain t h i in
      let b = read_line t line in
      let rec scan pos =
        if pos = per_line then None
        else if e_tag b 0 pos <> tag then scan (pos + 1)
        else match accept (e_slot b 0 pos) with Some x -> Some (pos, x) | None -> scan (pos + 1)
      in
      if not (line_ok b 0) then walk (i + 1) true
      else
        match scan 0 with
        | Some (pos, x) -> Found (i, line, b, pos, x)
        | None -> if overflow b > 0 then walk (i + 1) damaged else Absent damaged
  in
  walk 0 false

let confirm t key slot =
  let len = block_header + String.length key in
  if slot.len <= len then None
  else begin
    read_block t slot ~len;
    if has_key t len key then Some () else None
  end

let eio t what key =
  Sim.Stats.incr (stats t) "store_eio";
  Sim.Errno.fail Sim.Errno.EIO (Printf.sprintf "Store: %s for %S" what key)

(* What [accept] takes of [key]'s entry; a damaged line on the chain
   might hold the entry, so a miss past one is EIO. *)
let find t key accept =
  match probe t key accept with
  | Found (_, _, _, _, x) -> Some x
  | Absent false -> None
  | Absent true -> eio t "damaged index line" key

(* A key's value through charged reads; a block failing its checksum is
   damage, never data: EIO. *)
let lookup t key =
  find t key (fun slot ->
      read_block t slot ~len:slot.len;
      if not (sum_ok t slot.len) then eio t "checksum mismatch" key
      else if has_key t slot.len key then Some (value_in t slot.len key)
      else None)

let present t key = find t key (confirm t key) <> None

(* [key] surely has no entry (tags only: a damaged block still counts). *)
let lacks t key = match probe t key (fun _ -> Some ()) with Absent false -> true | _ -> false

let count t key d =
  t.entries <- t.entries + d;
  if not (internal key) then t.objects <- t.objects + d

let free_block t slot =
  let va = Heap.Fom_heap.address t.heap ~arena:slot.arena ~off:slot.off in
  if Heap.Fom_heap.size_of t.heap va <> None then Heap.Fom_heap.free t.heap va

(* Point [key]'s entry at [slot], or insert one in the first free entry
   of its chain past any damaged line, counting it first in every full
   line passed (a crash between leaves a count too high, never an entry
   no probe reaches). An entry already naming [slot] is [key]'s (a slot
   holds one block): a redo finds most entries so, and writes nothing. *)
let upsert t key slot =
  let entry tag = Some (tag, internal key, slot) in
  match probe t key (fun s -> if s = slot then Some () else confirm t key s) with
  | Found (_, line, b, pos, ()) ->
    let old = e_slot b 0 pos in
    if old <> slot then begin
      set_entry b pos (entry (e_tag b 0 pos));
      write_line t line b;
      free_block t old
    end
  | Absent _ ->
    let h = hash key in
    let rec place i =
      if i = t.buckets then Sim.Errno.fail Sim.Errno.ENOSPC "Store: index full";
      let line = chain t h i in
      let b = read_line t line in
      let rec empty pos = if pos = per_line || e_tag b 0 pos = 0 then pos else empty (pos + 1) in
      if line_ok b 0 && empty 0 < per_line then begin
        set_entry b (empty 0) (entry (tag_of h));
        write_line t line b
      end
      else begin
        recount t line b 1;
        place (i + 1)
      end
    in
    place 0;
    count t key 1

(* Clear [key]'s entry, then uncount it from the lines its chain passed
   (in that order: a crash between leaves a count too high), so chains
   shrink again under delete/insert churn. *)
let remove t key =
  match probe t key (confirm t key) with
  | Found (step, line, b, pos, ()) ->
    let old = e_slot b 0 pos in
    set_entry b pos None;
    write_line t line b;
    for i = 0 to step - 1 do
      let line = chain t (hash key) i in
      recount t line (read_line t line) (-1)
    done;
    free_block t old;
    count t key (-1)
  | Absent _ -> ()

(* Point the index at [writes]' blocks, on the media already, under one
   fence, freeing each block an entry stops naming: a commit and a
   recovery redo run this same code. *)
let apply t writes =
  List.iter (fun w -> match w.put with Some slot -> upsert t w.key slot | None -> remove t w.key) writes;
  PM.fence (mem t)

(* [f ~internal ~tag ~arena ~off ~len] on every entry of every intact
   line, host-side; returns the damaged lines. All-zero frames are
   skipped unread, the rest read whole into [t.scan] and their lines
   checked there, allocating nothing ([f] may probe and read blocks). *)
let scan t f =
  uncharged t @@ fun () ->
  let damaged = ref 0 in
  let addr = ref t.index_base and stop = line_addr t t.buckets in
  while !addr < stop do
    let n = min (stop - !addr) (Sim.Units.page_size - (!addr mod Sim.Units.page_size)) in
    if not (PM.frame_is_zero (mem t) (Physmem.Frame.of_addr !addr)) then begin
      PM.read_into (mem t) ~addr:!addr ~len:n t.scan ~pos:0;
      for l = 0 to (n / line_bytes) - 1 do
        let b = t.scan and o = l * line_bytes in
        if not (line_ok b o) then incr damaged
        else
          for i = 0 to per_line - 1 do
            if e_tag b o i <> 0 then
              f ~internal:(e_internal b o i) ~tag:(e_tag b o i) ~arena:(e_arena b o i) ~off:(e_off b o i) ~len:(e_len b o i)
          done
      done
    end;
    addr := !addr + n
  done;
  !damaged

(* The key and value of an intact block whose key hashes to [tag]. *)
let parse t ~tag slot =
  read_block t slot ~len:slot.len;
  match key_of t slot.len with
  | Some k when sum_ok t slot.len && tag_of (hash k) = tag -> Some (k, value_in t slot.len k)
  | _ -> None

(* Every root as [(root, key)], host-side. *)
let root_entries t =
  let acc = ref [] in
  ignore
    (scan t (fun ~internal ~tag ~arena ~off ~len ->
         match if internal then parse t ~tag { arena; off; len } else None with
         | Some (k, v) when k.[0] = '\000' -> acc := (String.sub k 1 (String.length k - 1), v) :: !acc
         | _ -> ()));
  !acc

(* --- media addressing and gauges ------------------------------------ *)

(* A WAL or index file must be one contiguous extent: both are raw NVM
   addressed linearly. FOM files are single-extent whenever free space
   allows; defragment once if not. *)
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

let update_gauges t =
  let s = stats t in
  Sim.Stats.set_gauge s "store_objects" t.objects;
  Sim.Stats.set_gauge s "store_txn_live" (match t.txn with Some _ -> 1 | None -> 0);
  Sim.Stats.set_gauge s "store_wal_bytes" (Fs.Wal.used_bytes t.wal)

(* --- the root check ------------------------------------------------ *)

(* Every entry's slot lies in a live arena file's extents, and every root
   names a key with an entry. Host-side: charges nothing. *)
let check_roots t =
  let bad detail = { Os.Check.check = "store_roots"; detail = t.name ^ ": " ^ detail } in
  let readable slot =
    match Heap.Fom_heap.arena_region t.heap slot.arena with
    | exception Invalid_argument _ -> false
    | r -> (
      Fs.Memfs.lookup (fs t) r.O1mem.Fom.path = Some r.O1mem.Fom.ino
      &&
      match iter_chunks t slot ~len:slot.len (fun _ _ _ -> ()) with
      | () -> true
      | exception Invalid_argument _ -> false)
  in
  let acc = ref [] in
  ignore
    (scan t (fun ~internal:_ ~tag:_ ~arena ~off ~len ->
         if not (readable { arena; off; len }) then
           acc := bad (Printf.sprintf "slot (%d, %d, %d) is not in a live arena file" arena off len) :: !acc));
  (* Blocks are only read once every slot is known to be readable. *)
  if !acc <> [] then List.rev !acc
  else
    uncharged t (fun () ->
        List.filter_map
          (fun (root, key) ->
            if lacks t key then Some (bad (Printf.sprintf "root %S -> missing key %S" root key)) else None)
          (root_entries t))

(* --- recovery ------------------------------------------------------ *)

(* The one uncharged stand-in: the heap's allocation state is host-side,
   so the blocks no entry references (a commit's that never reached its
   record, or an old one whose free a crash cut off) are found by walking
   the index, where a persistent allocator would walk its own metadata. *)
let sweep t =
  let referenced = Hashtbl.create 64 in
  let entries = ref 0 and objects = ref 0 in
  let damaged =
    scan t (fun ~internal ~tag:_ ~arena ~off ~len:_ ->
        Hashtbl.replace referenced (arena, off) ();
        incr entries;
        if not internal then incr objects)
  in
  if damaged > 0 then begin
    t.recovery_truncations <- t.recovery_truncations + 1;
    Sim.Stats.add (stats t) "store_index_damaged" damaged
  end;
  t.entries <- !entries;
  t.objects <- !objects;
  let stale = ref [] in
  Heap.Fom_heap.iter_live t.heap (fun va _ ->
      match Heap.Fom_heap.locate t.heap va with
      | Some (arena, off) when not (Hashtbl.mem referenced (arena, off)) -> stale := va :: !stale
      | _ -> ());
  List.iter (fun va -> Heap.Fom_heap.free t.heap va) !stale

let recover_hook t () =
  if t.detached then 0
  else
    Sim.Trace.span (trace t) ~op:"store_recover" ~arg:Fun.id @@ fun () ->
    t.proc <- Os.Kernel.create_process (kernel t) ();
    Heap.Fom_heap.reattach t.heap t.proc;
    (* The index is in place, and the log's one record is the newest
       transaction's, whose apply may be partial: redo it if it is intact,
       whatever follows it (its commit overwrote older, applied ones). *)
    t.wal <- Fs.Wal.recover ~mem:(mem t) ~base:t.wal_base ~capacity:wal_bytes;
    if Fs.Wal.truncated t.wal then begin
      t.recovery_truncations <- t.recovery_truncations + 1;
      Sim.Stats.incr (stats t) "store_wal_truncated"
    end;
    t.last_replayed <-
      (match Fs.Wal.entries t.wal with
      | record :: _ -> apply t (decode_txn record); 1
      | [] -> 0);
    sweep t;
    (* Damage can revert the line a root's key sat in: a root left naming
       a key with no entry is dropped, and the loss counted. *)
    let dangling = uncharged t (fun () -> List.filter (fun (_, k) -> lacks t k) (root_entries t)) in
    if dangling <> [] then begin
      List.iter (fun (r, _) -> remove t (root_key r)) dangling;
      PM.fence (mem t);
      t.recovery_truncations <- t.recovery_truncations + 1
    end;
    t.txn <- None;
    update_gauges t;
    Sim.Stats.incr (stats t) "store_recover";
    t.last_replayed

(* --- lifecycle ----------------------------------------------------- *)

let create fom proc ?(manifest_bytes = Sim.Units.kib 128) ~name () =
  if name = "" || name.[0] <> '/' then invalid_arg "Store.create: name must be an absolute path";
  if manifest_bytes < line_bytes then invalid_arg "Store.create: index smaller than a line";
  (match Os.Kernel.pmfs (O1mem.Fom.kernel fom) with
  | Some p when p == O1mem.Fom.fs fom -> ()
  | _ -> invalid_arg "Store.create: the FOM must live on the persistent file system");
  let fsys = O1mem.Fom.fs fom in
  (* Creating over an existing store would silently wipe its committed
     state (the journal is initialised blank below); reopening is not
     supported, so refuse rather than destroy. *)
  let mk path bytes =
    match Fs.Memfs.lookup fsys path with
    | Some _ ->
      invalid_arg (Printf.sprintf "Store.create: %s already exists (create never reopens a prior store)" path)
    | None ->
      let ino = Fs.Memfs.create_file fsys path ~persistence:Fs.Inode.Persistent in
      Fs.Memfs.extend fsys ino ~bytes_wanted:bytes;
      contiguous_base fsys ino ~bytes
  in
  let wal_base = mk (name ^ ".wal") wal_bytes in
  (* The file system hands out zeroed frames: a fresh index is empty. *)
  let index_base = mk (name ^ ".manifest") manifest_bytes in
  let heap = Heap.Fom_heap.create fom proc ~file_prefix:(name ^ ".arena") () in
  let wal = Fs.Wal.create ~mem:(Os.Kernel.mem (O1mem.Fom.kernel fom)) ~base:wal_base ~capacity:wal_bytes in
  Fs.Wal.reset wal;
  let t =
    {
      fom;
      proc;
      name;
      heap;
      wal_base;
      wal;
      index_base;
      buckets = manifest_bytes / line_bytes;
      generation = 0;
      entries = 0;
      objects = 0;
      txn = None;
      detached = false;
      recovery_truncations = 0;
      last_replayed = 0;
      block = Bytes.create max_block;
      line = Bytes.create line_bytes;
      scan = Bytes.create Sim.Units.page_size;
    }
  in
  O1mem.Fom.on_recover fom ~name:("store" ^ name) (fun () -> recover_hook t ());
  update_gauges t;
  t

let detach t =
  t.detached <- true;
  O1mem.Fom.remove_hooks t.fom ~name:("store" ^ t.name)

(* --- transactions --------------------------------------------------- *)

let require_txn t =
  match t.txn with
  | Some ops -> ops
  | None -> invalid_arg "Store: no open transaction"

let begin_txn t =
  if t.detached then invalid_arg "Store: detached";
  (match t.txn with Some _ -> invalid_arg "Store.begin_txn: transaction already open" | None -> ());
  t.txn <- Some [];
  update_gauges t

let add t op = t.txn <- Some (op :: require_txn t)

let put t key value =
  if key = "" || String.length key > max_key_bytes || internal key then invalid_arg "Store.put: bad key";
  if value = "" || String.length value > max_value_bytes then invalid_arg "Store.put: bad value size";
  add t (Put (key, value))

let delete t key =
  if internal key then invalid_arg "Store.delete: bad key";
  add t (Delete key)

let set_root t root key =
  if root = "" || String.contains root '\000' then invalid_arg "Store.set_root: bad root name";
  add t (Set_root (root, key))

let clear_root t root = add t (Clear_root root)

let abort t =
  ignore (require_txn t);
  t.txn <- None;
  update_gauges t

let mem = present

(* Fold a transaction's ops (oldest first) into each key's final value,
   in order of first touch, through charged reads of what it did not
   write itself. [refs_key k] lists the roots naming [k], NUL-separated.
   A read that meets damage raises EIO, and so does a delete whose chain
   crosses a damaged line (it cannot tell whether it removed anything):
   the commit fails before anything is logged. *)
let expand t ops =
  let overlay = Hashtbl.create 8 and order = ref [] in
  let read k = match Hashtbl.find_opt overlay k with Some v -> v | None -> lookup t k in
  let write k v =
    if not (Hashtbl.mem overlay k) then order := k :: !order;
    Hashtbl.replace overlay k v
  in
  let refs k = match read (refs_key k) with Some s -> String.split_on_char '\000' s | None -> [] in
  let set_refs k rs = write (refs_key k) (if rs = [] then None else Some (String.concat "\000" rs)) in
  let unroot r =
    Option.iter
      (fun k ->
        set_refs k (List.filter (( <> ) r) (refs k));
        write (root_key r) None)
      (read (root_key r))
  in
  List.iter
    (function
      | Put (k, v) -> write k (Some v)
      | Delete k ->
        ignore (present t k);
        List.iter (fun r -> if read (root_key r) = Some k then unroot r) (refs k);
        write k None
      | Set_root (r, k) ->
        let live = match Hashtbl.find_opt overlay k with Some v -> v <> None | None -> present t k in
        if not live then
          invalid_arg (Printf.sprintf "Store.commit: root %S names %S, which is not live there" r k);
        unroot r;
        set_refs k (r :: refs k);
        write (root_key r) (Some k)
      | Clear_root r -> unroot r)
    ops;
  List.rev_map (fun k -> (k, Hashtbl.find overlay k)) !order

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

(* Every commit is applied in place and durable, so the log holds
   nothing the index lacks: blanking its head empties it. *)
let checkpoint t =
  if t.detached then invalid_arg "Store: detached";
  (match t.txn with Some _ -> invalid_arg "Store.checkpoint: transaction open" | None -> ());
  Sim.Trace.span (trace t) ~op:"store_checkpoint" @@ fun () ->
  Fs.Wal.reset t.wal;
  t.generation <- t.generation + 1;
  Sim.Stats.incr (stats t) "store_checkpoint";
  update_gauges t

let commit t =
  let ops = require_txn t in
  Sim.Trace.span (trace t) ~op:"store_commit" ~arg:(fun () -> List.length ops) @@ fun () ->
  let allocated = ref [] in
  let rollback () =
    List.iter (fun va -> Heap.Fom_heap.free t.heap va) !allocated;
    t.txn <- None;
    update_gauges t
  in
  if FI.fires (plane t) ~site:FI.site_store_commit then begin
    rollback ();
    Sim.Stats.incr (stats t) "store_commit_abort";
    Sim.Errno.fail Sim.Errno.EIO "Store.commit: injected abort"
  end;
  let finals, writes =
    try
      let finals = expand t (List.rev ops) in
      let puts = List.filter_map (fun (key, v) -> Option.map (block_len key) v) finals in
      (* At most three quarters of the entries may be in use, and every
         put may insert: refuse before anything is allocated or logged. *)
      if t.entries + List.length puts > t.buckets * per_line * 3 / 4 then
        Sim.Errno.fail Sim.Errno.ENOSPC "Store.commit: index full";
      (* The record must fit the rewound log, or the log and [generation]
         would move for a commit that then fails. *)
      if record_len finals > Fs.Wal.max_record t.wal then
        Sim.Errno.fail Sim.Errno.ENOSPC "Store.commit: transaction exceeds WAL capacity";
      (* A block from the large threshold up gets no arena slot. *)
      if List.exists (fun len -> len >= Heap.Size_class.large_threshold) puts then
        Sim.Errno.fail Sim.Errno.ENOSPC "Store.commit: block outgrows an arena slot";
      let alloc key v =
        let len = block_len key v in
        let va = alloc_block t len in
        allocated := va :: !allocated;
        let arena, off = Option.get (Heap.Fom_heap.locate t.heap va) in
        { arena; off; len }
      in
      (finals, List.map (fun (key, v) -> { key; put = Option.map (alloc key) v }) finals)
    with e ->
      rollback ();
      raise e
  in
  (* Allocate every block before writing any (store_alloc draws stay
     ahead of store_apply draws); all are flushed before the record. *)
  List.iter2
    (fun w (_, v) -> match (w.put, v) with Some slot, Some v -> write_block t slot w.key v | _ -> ())
    writes finals;
  let record = encode_txn writes in
  if record <> "" then begin
    (* The log's one record is applied already: write over it. The
       append's first fence orders the blocks before its commit marker;
       the record fits, as checked before anything was allocated. *)
    Fs.Wal.rewind t.wal;
    t.generation <- t.generation + 1;
    (match Fs.Wal.append t.wal record with Ok () -> () | Error Fs.Wal.Wal_full -> assert false);
    (* Commit point passed: point the index at the blocks. *)
    apply t writes
  end;
  t.txn <- None;
  Sim.Stats.incr (stats t) "store_commit";
  update_gauges t

(* --- reads ---------------------------------------------------------- *)

let get t key = lookup t key
let root t name = lookup t (root_key name)
let roots t = uncharged t (fun () -> root_entries t) |> List.sort compare

(* A key whose value is damaged is still listed: its get raises EIO. *)
let keys t =
  let acc = ref [] in
  ignore
    (scan t (fun ~internal ~tag ~arena ~off ~len ->
         if not internal then begin
           read_block t { arena; off; len } ~len;
           match key_of t len with Some k when tag_of (hash k) = tag -> acc := k :: !acc | _ -> ()
         end));
  List.sort String.compare !acc

let object_count t = t.objects
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
  let bad detail = { Os.Check.check = "store_data"; detail = t.name ^ ": " ^ detail } in
  let acc = ref [] in
  let damaged =
    scan t (fun ~internal:_ ~tag ~arena ~off ~len ->
        let slot = { arena; off; len } in
        match parse t ~tag slot with
        | None -> acc := bad (Printf.sprintf "block (%d, %d) fails its checksum" slot.arena slot.off) :: !acc
        | Some (key, _) -> (
          match probe t key (fun s -> if s = slot then Some () else None) with
          | Found _ -> ()
          | Absent _ -> acc := bad (Printf.sprintf "key %S is off its own probe chain" key) :: !acc))
  in
  check_roots t
  @ (if damaged > 0 then [ bad (Printf.sprintf "%d damaged index line(s)" damaged) ] else [])
  @ List.rev !acc
