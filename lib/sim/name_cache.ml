let slots = 256

type 'a t = { keys : string array; vals : 'a array; empty : 'a }

(* No caller holds this block, so it matches no name. *)
let no_name = String.make 1 '\000'

let create empty = { keys = Array.make slots no_name; vals = Array.make slots empty; empty }

(* The slot depends on the length and three bytes, never on the address:
   the GC moves strings built at run time. *)
let slot name =
  let n = String.length name in
  if n = 0 then 0
  else
    let h = (n * 31) + Char.code (String.unsafe_get name 0) in
    let h = (h * 31) + Char.code (String.unsafe_get name (n / 2)) in
    let h = (h * 31) + Char.code (String.unsafe_get name (n - 1)) in
    (h lxor (h lsr 5)) land (slots - 1)

(* [Hashtbl.find], not [find_opt]: a miss allocates nothing either. *)
let find t tbl ~make name =
  let i = slot name in
  if Array.unsafe_get t.keys i == name then Array.unsafe_get t.vals i
  else begin
    let v =
      match Hashtbl.find tbl name with
      | v -> v
      | exception Not_found ->
        let v = make () in
        Hashtbl.add tbl name v;
        v
    in
    t.keys.(i) <- name;
    t.vals.(i) <- v;
    v
  end

let clear t =
  Array.fill t.keys 0 slots no_name;
  Array.fill t.vals 0 slots t.empty
