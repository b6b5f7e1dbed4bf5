type resolution = Provide of string | Zero_page | Sigbus

type handler = va:int -> write:bool -> resolution

type region = { start : int; len : int; prot : Hw.Prot.t; handler : handler }

type t = { regions : (int, region list) Hashtbl.t (* by pid *) }

let create () = { regions = Hashtbl.create 8 }

let of_pid t pid = Option.value (Hashtbl.find_opt t.regions pid) ~default:[]

let register t ~pid ~va ~len ~prot handler =
  if len <= 0 then invalid_arg "Userfault.register: empty range";
  let existing = of_pid t pid in
  if List.exists (fun r -> va < r.start + r.len && r.start < va + len) existing then
    invalid_arg "Userfault.register: overlapping registration";
  Hashtbl.replace t.regions pid ({ start = va; len; prot; handler } :: existing)

let unregister t ~pid ~va =
  let existing = of_pid t pid in
  if not (List.exists (fun r -> r.start = va) existing) then
    invalid_arg "Userfault.unregister: no such registration";
  Hashtbl.replace t.regions pid (List.filter (fun r -> r.start <> va) existing)

(* Asked on every kernel fault: no hashing while nothing is registered. *)
let find t ~pid ~va =
  if Hashtbl.length t.regions = 0 then None
  else
    List.find_opt (fun r -> va >= r.start && va < r.start + r.len) (of_pid t pid)
    |> Option.map (fun r -> (r.handler, r.prot))

let region_count t ~pid = List.length (of_pid t pid)

let clear t = Hashtbl.reset t.regions

let iter_regions t f =
  Hashtbl.iter
    (fun pid regions -> List.iter (fun r -> f ~pid ~va:r.start ~len:r.len) regions)
    t.regions
