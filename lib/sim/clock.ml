type t = { mutable cycles : int }

let create () = { cycles = 0 }
let now t = t.cycles

let charge t c =
  assert (c >= 0);
  t.cycles <- t.cycles + c

let reset t = t.cycles <- 0
let elapsed t ~since = t.cycles - since

let off t f =
  let cycles = t.cycles in
  let r = f () in
  t.cycles <- cycles;
  r

let time t f =
  let start = t.cycles in
  let r = f () in
  (r, t.cycles - start)

let us c = float_of_int c /. (Cost_model.freq_ghz *. 1000.0)
