type op = Alloc of { id : int; bytes : int } | Touch of { id : int } | Free of { id : int }

let min_bytes = 64
let mean_lifetime = 50

let generate ~rng ~ops ?(max_bytes = Sim.Units.mib 4) () =
  let lg_min = log (float_of_int min_bytes) and lg_max = log (float_of_int max_bytes) in
  let ops_out = ref [] in
  let next_id = ref 0 in
  (* (deadline, id) pending frees, kept sorted by deadline. *)
  let pending = ref [] in
  let schedule_free step id =
    let life = 1 + int_of_float (Sim.Rng.exponential rng ~mean:(float_of_int mean_lifetime)) in
    pending := List.merge compare !pending [ (step + life, id) ]
  in
  let flush_due step =
    let due, rest = List.partition (fun (d, _) -> d <= step) !pending in
    pending := rest;
    List.iter (fun (_, id) -> ops_out := Free { id } :: !ops_out) due
  in
  for step = 0 to ops - 1 do
    flush_due step;
    let bytes =
      int_of_float (exp (lg_min +. (Sim.Rng.float rng *. (lg_max -. lg_min))))
    in
    let id = !next_id in
    incr next_id;
    ops_out := Alloc { id; bytes = max min_bytes bytes } :: !ops_out;
    ops_out := Touch { id } :: !ops_out;
    schedule_free step id
  done;
  (* Drain the stragglers. *)
  List.iter (fun (_, id) -> ops_out := Free { id } :: !ops_out) !pending;
  List.rev !ops_out

let to_string ops =
  let buf = Buffer.create 1024 in
  List.iter
    (fun op ->
      Buffer.add_string buf
        (match op with
        | Alloc { id; bytes } -> Printf.sprintf "A %d %d\n" id bytes
        | Touch { id } -> Printf.sprintf "T %d\n" id
        | Free { id } -> Printf.sprintf "F %d\n" id))
    ops;
  Buffer.contents buf

let of_string s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ "A"; id; bytes ] -> Alloc { id = int_of_string id; bytes = int_of_string bytes }
         | [ "T"; id ] -> Touch { id = int_of_string id }
         | [ "F"; id ] -> Free { id = int_of_string id }
         | _ -> invalid_arg ("Churn.of_string: bad line: " ^ line))

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
