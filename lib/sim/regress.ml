(* Compare two metrics JSON documents and flag regressions. Pure Json.t ->
   report; file IO and exit codes live in the CLI. *)

type status = Within | Regressed | Improved | Added | Removed | Downgraded | Upgraded

let status_name = function
  | Within -> "within"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Added -> "added"
  | Removed -> "removed"
  | Downgraded -> "DOWNGRADED"
  | Upgraded -> "upgraded"

type delta = {
  section : string;
  key : string;
  old_v : string;
  new_v : string;
  pct : float option;
  status : status;
}

type report = { threshold_pct : float; compared : int; deltas : delta list }

(* ------------------------------ policy ------------------------------- *)

type direction = Lower | Higher | Report | Skip

(* What a leaf means, from its top-level section and its own name. The
   default is a virtual-clock cost: deterministic, so any drift is a code
   change, and lower is better. The "host" section mixes in host
   measurements and compares only what it names: it gates allocated words
   and virtual counts, reports its ns totals, and skips per-path ns and GC
   heap gauges, which move on every run. A fit's exponent, r2 and growth
   and its sweep sizes are reported, because the fitted class is what
   gates. So are an explorer's steps, crashes and fences and a probe's
   recorded events and samples: they count coverage, not cost. An
   identifier (the core the makespan ends on) is reported too: a tie
   between cores can move it, and a core's index is no cost. *)
let policy ~section key =
  let ends suffix = String.ends_with ~suffix key in
  match (section, key) with
  | ("schema" | "provenance"), _ -> Skip
  | "host", ("total_ns" | "attributed_ns") -> Report
  | "host", "attributed_words_fraction" -> Higher
  | ( "host",
      ( "words" | "self_words" | "total_words" | "attributed_words" | "allocated_words"
      | "minor_words" | "promoted_words" | "major_words" | "calls" | "vcycles" | "total_vcycles"
      | "ops" | "enabled" ) ) ->
    Lower
  | "host", _ -> Skip
  | ( _,
      ( "exponent" | "r2" | "growth" | "n_min" | "n_max" | "steps" | "crashes" | "fences"
      | "recorded" | "in_ring" | "samples" | "makespan_core" ) ) ->
    Report
  | _ when ends "_fraction" || ends "_detections" || ends "_hit" -> Higher
  | _ -> Lower

(* ------------------------------ compare ------------------------------ *)

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let show_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

let rec leaves = function
  | Json.Obj fields -> List.fold_left (fun n (_, v) -> n + leaves v) 0 fields
  | Json.List items -> List.fold_left (fun n v -> n + leaves v) 0 items
  | _ -> 1

(* A one-sided value: containers print as their leaf count, not their JSON. *)
let show = function
  | (Json.Obj _ | Json.List _) as v -> Printf.sprintf "%d leaves" (leaves v)
  | v -> ( match number v with Some f -> show_number f | None -> Json.to_string v)

let pct_change o n =
  if o = 0.0 then Float.infinity *. Float.of_int (Stdlib.compare n o) else (n -. o) /. o *. 100.0

(* Unknown class names fail safe: they read as a downgrade. *)
let class_status old_c new_c =
  match (Complexity.cls_of_name old_c, Complexity.cls_of_name new_c) with
  | Some a, Some b when Complexity.rank b < Complexity.rank a -> Upgraded
  | _ -> Downgraded

(* One leaf present on both sides: [None] when it is not a metric (a label
   string or a list), else its row. Numbers gate beyond the threshold in
   their direction, booleans when they flip to false, and "class" strings
   when their rank rises. *)
let judge ~threshold ~dir ~key o n =
  let row old_v new_v pct status =
    Some (old_v, new_v, pct, if dir = Report then Within else status)
  in
  match (o, n) with
  | Json.Bool a, Json.Bool b ->
    row (string_of_bool a) (string_of_bool b) None (if b then Improved else Regressed)
  | Json.String a, Json.String b when key = "class" -> row a b None (class_status a b)
  | _ -> (
    match (number o, number n) with
    | Some a, Some b ->
      let pct = pct_change a b in
      let worse = if dir = Higher then b < a else b > a in
      row (show_number a) (show_number b) (Some pct)
        (if Float.abs pct <= threshold then Within else if worse then Regressed else Improved)
    | _ -> None)

(* One recursive walk over the union of both documents' keys: objects on
   both sides recurse, leaves go to [judge], and a key on one side only is
   one row, whatever it holds. A host span whose inclusive words are equal
   on both sides allocated no more: its own words and every descendant's
   only moved between spans, so they are reported, not gated ([held]). *)
let walk ~threshold old_doc new_doc =
  let compared = ref 0 and rows = ref [] in
  let emit ~section ~key (old_v, new_v, pct, status) =
    rows := { section; key; old_v; new_v; pct; status } :: !rows
  in
  let rec go ~top ~section ~held old_fields new_fields =
    let held =
      held
      || top = "host"
         && List.mem_assoc "words" old_fields
         && List.assoc_opt "words" old_fields = List.assoc_opt "words" new_fields
    in
    let keys = List.sort_uniq String.compare (List.map fst old_fields @ List.map fst new_fields) in
    List.iter
      (fun key ->
        let top, path = if section = "" then (key, key) else (top, section ^ "." ^ key) in
        let dir =
          if held && (key = "words" || key = "self_words") then Report else policy ~section:top key
        in
        let one_sided v = dir <> Skip || match v with Json.Obj _ -> true | _ -> false in
        match (List.assoc_opt key old_fields, List.assoc_opt key new_fields) with
        | Some (Json.Obj o), Some (Json.Obj n) -> go ~top ~section:path ~held o n
        | Some o, Some n when dir <> Skip -> (
          match judge ~threshold ~dir ~key o n with
          | Some row ->
            incr compared;
            if o <> n then emit ~section ~key row
          | None -> ())
        | Some o, None when one_sided o ->
          incr compared;
          emit ~section ~key (show o, "-", None, Removed)
        | None, Some n when one_sided n ->
          incr compared;
          emit ~section ~key ("-", show n, None, Added)
        | _ -> ())
      keys
  in
  let fields = function Json.Obj f -> f | _ -> [] in
  go ~top:"" ~section:"" ~held:false (fields old_doc) (fields new_doc);
  (!compared, List.rev !rows)

let compare_docs ?(threshold_pct = 10.0) ~old_doc ~new_doc () =
  let schema d = match Json.member d "schema" with Some (Json.String s) -> Some s | _ -> None in
  match (schema old_doc, schema new_doc) with
  | None, _ | _, None -> Error "missing \"schema\" field: not a metrics document"
  | Some a, Some b when a <> b ->
    Error (Printf.sprintf "schema mismatch: %S vs %S — regenerate the baseline" a b)
  | Some _, Some _ -> (
    match (Json.member old_doc "provenance", Json.member new_doc "provenance") with
    | Some p, Some q when p <> q ->
      Error "provenance mismatch (cost model or trace capacity differ): runs are not comparable"
    | Some _, None | None, Some _ ->
      Error "provenance present in only one document: runs are not comparable"
    | _ ->
      let compared, deltas = walk ~threshold:threshold_pct old_doc new_doc in
      Ok { threshold_pct; compared; deltas })

let regressions r =
  List.filter (fun d -> d.status = Regressed || d.status = Downgraded) r.deltas

let render r =
  if r.deltas = [] then
    Printf.sprintf "bench-diff: %d metrics compared, no differences (threshold %.1f%%)\n" r.compared
      r.threshold_pct
  else begin
    let t =
      Table.create ~title:"bench-diff deltas"
        ~columns:[ "section"; "metric"; "old"; "new"; "delta"; "status" ]
    in
    List.iter
      (fun d ->
        let delta =
          match d.pct with
          | Some p when Float.is_finite p -> Printf.sprintf "%+.1f%%" p
          | Some p -> if p > 0.0 then "+inf" else "-inf"
          | None -> "-"
        in
        Table.add_row t [ d.section; d.key; d.old_v; d.new_v; delta; status_name d.status ])
      r.deltas;
    let bad = List.length (regressions r) in
    let improved = List.length (List.filter (fun d -> d.status = Improved) r.deltas) in
    Table.render t
    ^ Printf.sprintf "\n%d metrics compared, %d changed: %d regression%s, %d improvement%s (threshold %.1f%%)\n"
        r.compared (List.length r.deltas) bad
        (if bad = 1 then "" else "s")
        improved
        (if improved = 1 then "" else "s")
        r.threshold_pct
  end
