type op = Alloc of { id : int; bytes : int } | Touch of { id : int } | Free of { id : int }

let min_bytes = 64
let mean_lifetime = 50

module IntMap = Map.Make (Int)

let generate ~rng ~ops ?(max_bytes = Sim.Units.mib 4) () =
  let lg_min = log (float_of_int min_bytes) and lg_max = log (float_of_int max_bytes) in
  let ops_out = ref [] in
  let free ids = List.iter (fun id -> ops_out := Free { id } :: !ops_out) (List.rev ids) in
  (* Pending frees in buckets keyed by deadline, each bucket's ids newest
     first. Every deadline lies past the step that schedules it, so at
     step s exactly the bucket for s is due: a step costs O(log buckets),
     not O(live allocations). *)
  let pending = ref IntMap.empty in
  for step = 0 to ops - 1 do
    (match IntMap.find_opt step !pending with
    | Some ids ->
      pending := IntMap.remove step !pending;
      free ids
    | None -> ());
    let bytes =
      int_of_float (exp (lg_min +. (Sim.Rng.float rng *. (lg_max -. lg_min))))
    in
    let id = step in
    ops_out := Alloc { id; bytes = max min_bytes bytes } :: !ops_out;
    ops_out := Touch { id } :: !ops_out;
    let life = 1 + int_of_float (Sim.Rng.exponential rng ~mean:(float_of_int mean_lifetime)) in
    pending :=
      IntMap.update (step + life) (fun ids -> Some (id :: Option.value ids ~default:[])) !pending
  done;
  (* Drain the stragglers, by deadline. *)
  IntMap.iter (fun _ ids -> free ids) !pending;
  List.rev !ops_out

type heap_driver = {
  h_malloc : bytes:int -> int;
  h_free : int -> unit;
  h_touch : va:int -> bytes:int -> unit;
}

let run trace driver =
  let vas = Hashtbl.create 256 in
  let sizes = Hashtbl.create 256 in
  let n = ref 0 in
  List.iter
    (fun op ->
      incr n;
      match op with
      | Alloc { id; bytes } ->
        Hashtbl.replace vas id (driver.h_malloc ~bytes);
        Hashtbl.replace sizes id bytes
      | Touch { id } ->
        let va = Hashtbl.find vas id and bytes = Hashtbl.find sizes id in
        driver.h_touch ~va ~bytes
      | Free { id } ->
        driver.h_free (Hashtbl.find vas id);
        Hashtbl.remove vas id;
        Hashtbl.remove sizes id)
    trace;
  !n
