type backing = Anon | File of { fs : Fs.Memfs.t; ino : int; file_offset : int }

type share = Private | Shared

type t = {
  mutable start : int;
  mutable len : int;
  mutable prot : Hw.Prot.t;
  backing : backing;
  share : share;
  mutable populated : bool;
}

let make ~start ~len ~prot ~backing ~share =
  if len <= 0 || not (Sim.Units.is_aligned start ~align:Sim.Units.page_size) then
    invalid_arg "Vma.make: empty or unaligned region";
  { start; len; prot; backing; share; populated = false }

let end_ t = t.start + t.len
let contains t va = va >= t.start && va < end_ t

let can_merge a b =
  (match (a.backing, b.backing) with Anon, Anon -> true | _ -> false)
  && end_ a = b.start
  && Hw.Prot.equal a.prot b.prot
  && a.share = b.share && a.populated = b.populated

let file_page_of_va t ~va =
  match t.backing with
  | File { file_offset; _ } -> (file_offset + (va - t.start)) / Sim.Units.page_size
  | Anon -> invalid_arg "Vma.file_page_of_va: anonymous VMA"
