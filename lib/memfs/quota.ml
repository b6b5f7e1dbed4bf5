type t = { mutable used : int; mutable limit : int option }

let create ?limit_frames () = { used = 0; limit = limit_frames }
let set_limit t l = t.limit <- l

let try_charge t ~frames =
  assert (frames >= 0);
  match t.limit with
  | Some l when t.used + frames > l -> false
  | _ ->
    t.used <- t.used + frames;
    true

let release t ~frames =
  assert (frames >= 0 && frames <= t.used);
  t.used <- t.used - frames

let used t = t.used
