module S = Size_class
module F = O1mem.Fom

type t = { heap : F.region S.t; fom : F.t; proc : Os.Proc.t ref; file_prefix : string option }

let arena_path prefix n = Printf.sprintf "%s.%d" prefix n

let create fom proc ?file_prefix () =
  let proc = ref proc in
  let alloc ?name ?persistence len =
    F.alloc fom !proc ?name ?persistence ~len ~prot:Hw.Prot.rw ()
  in
  let map_arena n =
    match file_prefix with
    | None -> alloc S.arena_bytes
    | Some prefix ->
      (* Named, persistent arenas: the heap's memory survives a crash and
         can be re-mapped by path, in creation order, after recovery. *)
      alloc ~name:(arena_path prefix n) ~persistence:Fs.Inode.Persistent S.arena_bytes
  in
  let heap =
    S.create
      {
        S.name = "Fom_heap";
        map_arena;
        map_large = (fun len -> alloc len);
        unmap = (fun r -> F.free fom !proc r);
        va = (fun r -> r.F.va);
        len = (fun r -> r.F.len);
      }
  in
  { heap; fom; proc; file_prefix }

let malloc t ~bytes = S.malloc t.heap ~bytes
let free t va = S.free t.heap va
let size_of t va = S.size_of t.heap va
let live_bytes t = S.live_bytes t.heap
let footprint_bytes t = S.footprint_bytes t.heap
let region_count t = S.region_count t.heap
let arena_count t = S.arena_count t.heap
let arena_region t i = S.arena t.heap i
let locate t va = S.locate t.heap va
let address t ~arena ~off = S.address t.heap ~arena ~off
let iter_live t f = S.iter_live t.heap f
let destroy t = S.destroy t.heap

let reattach t proc =
  let prefix =
    match t.file_prefix with
    | Some p -> p
    | None -> invalid_arg "Fom_heap.reattach: heap has no file_prefix"
  in
  if region_count t > arena_count t then
    invalid_arg "Fom_heap.reattach: large regions do not survive reattach";
  let remap i = F.map_path t.fom proc ~prot:Hw.Prot.rw (arena_region t i).F.path in
  S.relocate t.heap (Array.init (arena_count t) remap);
  t.proc := proc;
  (* A crash inside an arena's creation can leave the next arena's file
     behind with no committed slot in it; drop it, or the next growth
     collides with its name. The scan is host-side, so a heap without
     such a file pays nothing. *)
  let fs = F.fs t.fom in
  let orphan = arena_path prefix (arena_count t) in
  let found = ref None in
  Fs.Memfs.iter_files fs (fun path node -> if path = orphan then found := Some node.Fs.Inode.ino);
  Option.iter
    (fun ino ->
      ignore (O1mem.Shared_pt.drop (F.shared_pt t.fom) ~ino);
      Fs.Memfs.unlink fs orphan)
    !found
