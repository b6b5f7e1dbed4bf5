(* Counters plus a gauge registry. Counters only go up (between resets);
   gauges track a current level (TLB occupancy, zero-cache depth, resident
   pages...) with a high watermark and an optional clock-driven time
   series sampled at a fixed cycle interval. *)

type gauge = {
  mutable value : int;
  mutable hwm : int;
  points : (int * int) Queue.t; (* (cycle, value), oldest first *)
}

(* Each table sits behind a name cache; values are never removed from
   a table, so its cache stays valid for the life of the [t]. *)
type t = {
  counters : (string, int ref) Hashtbl.t;
  counter_cache : int ref Name_cache.t;
  gauges : (string, gauge) Hashtbl.t;
  gauge_cache : gauge Name_cache.t;
  mutable sample_interval : int; (* cycles between samples; 0 = sampling off *)
  mutable next_sample : int;
}

let series_capacity = 1024

let new_gauge () = { value = 0; hwm = 0; points = Queue.create () }

let create () =
  {
    counters = Hashtbl.create 32;
    counter_cache = Name_cache.create (ref 0);
    gauges = Hashtbl.create 16;
    gauge_cache = Name_cache.create (new_gauge ());
    sample_interval = 0;
    next_sample = 0;
  }

let cell t name = Name_cache.find t.counter_cache t.counters ~make:(fun () -> ref 0) name

let incr t name = Stdlib.incr (cell t name)

let add t name n =
  let r = cell t name in
  r := !r + n

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let snapshot t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (-v)) before;
  List.iter
    (fun (k, v) ->
      let prev = match Hashtbl.find_opt tbl k with Some p -> p | None -> 0 in
      Hashtbl.replace tbl k (prev + v))
    after;
  Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------- gauges ------------------------------- *)

let gauge_cell t name = Name_cache.find t.gauge_cache t.gauges ~make:new_gauge name

let set_gauge t name v =
  let g = gauge_cell t name in
  g.value <- v;
  if v > g.hwm then g.hwm <- v

let add_gauge t name d =
  let g = gauge_cell t name in
  g.value <- g.value + d;
  if g.value > g.hwm then g.hwm <- g.value

let gauge t name = match Hashtbl.find_opt t.gauges name with Some g -> g.value | None -> 0
let gauge_hwm t name = match Hashtbl.find_opt t.gauges name with Some g -> g.hwm | None -> 0

let gauges t =
  Hashtbl.fold (fun k g acc -> (k, g.value, g.hwm) :: acc) t.gauges []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let set_sample_interval t ~cycles =
  if cycles < 0 then invalid_arg "Stats.set_sample_interval: negative interval";
  t.sample_interval <- cycles;
  t.next_sample <- 0

let sample t ~now =
  if t.sample_interval > 0 && now >= t.next_sample then begin
    Hashtbl.iter
      (fun _ g ->
        Queue.push (now, g.value) g.points;
        if Queue.length g.points > series_capacity then ignore (Queue.pop g.points))
      t.gauges;
    t.next_sample <- now + t.sample_interval
  end

let series t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> List.of_seq (Queue.to_seq g.points)
  | None -> []

let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter
    (fun _ g ->
      g.value <- 0;
      g.hwm <- 0;
      Queue.clear g.points)
    t.gauges;
  t.next_sample <- 0

(* ------------------------------- export ------------------------------- *)

let to_json t = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (snapshot t))

let gauges_to_json t =
  Json.Obj
    (List.map
       (fun (k, v, hwm) ->
         ( k,
           Json.Obj
             [
               ("value", Json.Int v);
               ("hwm", Json.Int hwm);
               ("samples", Json.Int (List.length (series t k)));
             ] ))
       (gauges t))
