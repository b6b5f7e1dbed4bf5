module IntMap = Map.Make (Int)

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  table : Hw.Page_table.t;
  mmu : Hw.Mmu.t;
  range_table : Hw.Range_table.t option;
  mutable vmas : Vma.t IntMap.t; (* keyed by start *)
  mutable last : Vma.t option; (* [find_vma]'s last hit, until the next insert or removal *)
  mutable mmap_cursor : int;
}

(* Default mmap area base, clear of the code/heap/stack layout helpers in
   Proc. *)
let mmap_base = 0x2000_0000_0000

let create ~clock ~stats ?(trace = Sim.Trace.disabled) ~table ?range_table
    ?(mode = Hw.Walker.Native) ?smp ?asid () =
  let mmu = Hw.Mmu.create ~clock ~stats ~trace ~table ?range_table ~mode ?smp ?asid () in
  { clock; stats; table; mmu; range_table; vmas = IntMap.empty; last = None; mmap_cursor = mmap_base }

let page_table t = t.table
let mmu t = t.mmu
let range_table t = t.range_table

let alloc_va t ~len ~align =
  let base = Sim.Units.round_up t.mmap_cursor ~align in
  t.mmap_cursor <- base + Sim.Units.round_up len ~align:Sim.Units.page_size;
  base

let overlaps t (v : Vma.t) =
  let below = IntMap.find_last_opt (fun s -> s <= v.Vma.start) t.vmas in
  let above = IntMap.find_first_opt (fun s -> s > v.Vma.start) t.vmas in
  (match below with Some (_, b) -> Vma.end_ b > v.Vma.start | None -> false)
  || (match above with Some (_, a) -> Vma.end_ v > a.Vma.start | None -> false)

let insert_vma t v =
  if overlaps t v then invalid_arg "Address_space.insert_vma: overlap";
  t.last <- None;
  Sim.Clock.charge t.clock Sim.Cost_model.vma_setup;
  Sim.Stats.incr t.stats "vma_setup";
  (* Merge with the VMA just below and/or just above, Linux-style. *)
  let v =
    match IntMap.find_last_opt (fun s -> s < v.Vma.start) t.vmas with
    | Some (s, b) when Vma.can_merge b v ->
      t.vmas <- IntMap.remove s t.vmas;
      b.Vma.len <- b.Vma.len + v.Vma.len;
      Sim.Stats.incr t.stats "vma_merge";
      b
    | _ -> v
  in
  let v =
    match IntMap.find_first_opt (fun s -> s >= Vma.end_ v) t.vmas with
    | Some (s, a) when Vma.can_merge v a ->
      t.vmas <- IntMap.remove s t.vmas;
      v.Vma.len <- v.Vma.len + a.Vma.len;
      Sim.Stats.incr t.stats "vma_merge";
      v
    | _ -> v
  in
  t.vmas <- IntMap.add v.Vma.start v t.vmas

(* VMAs never overlap, so the last hit is the answer while it holds
   [va]: a run of faults on one VMA searches and allocates nothing. *)
let find_vma t ~va =
  match t.last with
  | Some v as hit when Vma.contains v va -> hit
  | _ ->
    let hit =
      match IntMap.find_last_opt (fun s -> s <= va) t.vmas with
      | Some (_, v) when Vma.contains v va -> Some v
      | _ -> None
    in
    t.last <- hit;
    hit

(* [v]'s piece over [lo, hi), its file offset moved with its start. *)
let slice (v : Vma.t) ~lo ~hi =
  let backing =
    match v.Vma.backing with
    | Vma.Anon -> Vma.Anon
    | Vma.File f -> Vma.File { f with file_offset = f.file_offset + (lo - v.Vma.start) }
  in
  let piece = Vma.make ~start:lo ~len:(hi - lo) ~prot:v.Vma.prot ~backing ~share:v.Vma.share in
  piece.Vma.populated <- v.Vma.populated;
  piece

(* Visits only the VMAs overlapping the range, from the one holding
   [start] up; a head or tail left outside it stays mapped. The removed
   pieces come back highest first, the order teardown walks them in. *)
let remove_range t ~start ~len =
  t.last <- None;
  let finish = start + len in
  let first =
    match IntMap.find_last_opt (fun s -> s < start) t.vmas with
    | Some (s, v) when Vma.end_ v > start -> s
    | _ -> start
  in
  let vmas, removed =
    Seq.fold_left
      (fun (vmas, removed) (s, v) ->
        let e = Vma.end_ v in
        let vmas = IntMap.remove s vmas in
        let vmas = if s < start then IntMap.add s (slice v ~lo:s ~hi:start) vmas else vmas in
        let vmas = if e > finish then IntMap.add finish (slice v ~lo:finish ~hi:e) vmas else vmas in
        (vmas, slice v ~lo:(max s start) ~hi:(min e finish) :: removed))
      (t.vmas, [])
      (Seq.take_while (fun (s, _) -> s < finish) (IntMap.to_seq_from first t.vmas))
  in
  t.vmas <- vmas;
  removed

let vma_count t = IntMap.cardinal t.vmas
let iter_vmas t f = IntMap.iter (fun _ v -> f v) t.vmas

let mmap_cursor t = t.mmap_cursor
let set_mmap_cursor t v = t.mmap_cursor <- v
