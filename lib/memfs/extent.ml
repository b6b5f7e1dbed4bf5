type t = { logical : int; start : Physmem.Frame.t; count : int }

let bytes e = e.count * Sim.Units.page_size
let logical_end e = e.logical + e.count

let frame_of_logical e page =
  if page >= e.logical && page < logical_end e then Some (e.start + (page - e.logical))
  else None

let mergeable a b = logical_end a = b.logical && a.start + a.count = b.start

let merge a b =
  assert (mergeable a b);
  { a with count = a.count + b.count }
