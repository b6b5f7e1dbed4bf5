(* Nested-span call-tree profiler, a sink that Trace.span drives through
   [enter]/[leave]. Each frame reads its meters (virtual cycles; host ns
   and minor-heap words when a host clock was given) as it opens and
   closes, and the deltas accrue to the current path. It never charges
   the clock, so attribution costs zero simulated cycles. *)

type node = {
  name : string;
  calls : int;
  cum : int;
  self : int;
  ns : int;
  self_ns : int;
  words : int;
  self_words : int;
  children : node list;
}

type metric = [ `Cycles | `Ns | `Words ]

(* Mutable call-tree node; one per distinct path, children keyed by name.
   Each metric keeps its cumulative total and its children's share. *)
type inode = {
  iname : string;
  mutable calls : int;
  mutable cum : int;
  mutable child_cum : int;
  mutable ns : int;
  mutable child_ns : int;
  mutable words : int;
  mutable child_words : int;
  children : (string, inode) Hashtbl.t;
}

(* One stack slot: the open span's node and its meters at entry. Slots
   are reused, so opening a frame allocates nothing. *)
type frame = { mutable node : inode; mutable c0 : int; mutable ns0 : int; mutable w0 : int }

(* Running summary of the self-samples: constant space however many. *)
type self = {
  mutable samples : int;
  mutable heap_words_max : int;
  mutable top_heap_words : int;
  mutable rss_kb_max : int;
  mutable minor_collections : int;
  mutable major_collections : int;
}

type t = {
  clock : Clock.t option; (* None = disabled sentinel *)
  now_ns : (unit -> int) option; (* None = no host metrics *)
  roots : (string, inode) Hashtbl.t;
  mutable frames : frame array;
  mutable depth : int;
  (* Meters when created/reset: cost before them is out of scope. *)
  mutable c_start : int;
  mutable ns_start : int;
  mutable w_start : int;
  mutable gc_start : float * float * float;
  mutable self : self;
}

let minor_words () = int_of_float (Gc.minor_words ())

let new_inode iname =
  let children = Hashtbl.create 4 in
  { iname; calls = 0; cum = 0; child_cum = 0; ns = 0; child_ns = 0; words = 0; child_words = 0; children }

let no_samples () =
  { samples = 0; heap_words_max = 0; top_heap_words = 0; rss_kb_max = 0; minor_collections = 0; major_collections = 0 }

let new_frames n = Array.init n (fun _ -> { node = new_inode ""; c0 = 0; ns0 = 0; w0 = 0 })

let make ?now_ns clock =
  {
    clock;
    now_ns;
    roots = Hashtbl.create 16;
    frames = new_frames (if clock = None then 0 else 32);
    depth = 0;
    c_start = 0;
    ns_start = 0;
    w_start = 0;
    gc_start = (0.0, 0.0, 0.0);
    self = no_samples ();
  }

let reset t =
  Hashtbl.reset t.roots;
  t.depth <- 0;
  t.self <- no_samples ();
  (match t.clock with Some c -> t.c_start <- Clock.now c | None -> ());
  match t.now_ns with
  | Some now ->
    (* Start on an empty minor heap. In OCaml 5.1 the words [Gc.counters]
       reports for one run (minor, and so promoted and major) move with
       how full the minor heap was when it began, so without this the gc
       block shifts whenever code before it allocates more or less. *)
    Gc.minor ();
    t.ns_start <- now ();
    t.w_start <- minor_words ();
    t.gc_start <- Gc.counters ()
  | None -> ()

let create ~clock ?now_ns () =
  let t = make ?now_ns (Some clock) in
  reset t;
  t

let disabled = make None
let enabled t = t.clock <> None
let host t = t.now_ns <> None
let depth t = t.depth

let child_of t name =
  let tbl = if t.depth = 0 then t.roots else t.frames.(t.depth - 1).node.children in
  match Hashtbl.find tbl name with
  | n -> n
  | exception Not_found ->
    let n = new_inode name in
    Hashtbl.add tbl name n;
    n

(* The host meters are read last on entry and first on exit, so the
   frame's own bookkeeping stays out of its words and (mostly) its ns.
   Without a host clock they stay 0 and so do their deltas. *)
let enter t name =
  match t.clock with
  | None -> ()
  | Some clock -> (
    let node = child_of t name in
    if t.depth = Array.length t.frames then
      t.frames <- Array.append t.frames (new_frames t.depth);
    let fr = t.frames.(t.depth) in
    t.depth <- t.depth + 1;
    fr.node <- node;
    fr.c0 <- Clock.now clock;
    match t.now_ns with
    | Some now ->
      fr.ns0 <- now ();
      fr.w0 <- minor_words ()
    | None -> ())

let leave t =
  match t.clock with
  | None -> ()
  | Some clock ->
    let w1 = match t.now_ns with Some _ -> minor_words () | None -> 0 in
    let ns1 = match t.now_ns with Some now -> now () | None -> 0 in
    let d = t.depth - 1 in
    let fr = t.frames.(d) in
    t.depth <- d;
    let n = fr.node in
    let dc = Clock.now clock - fr.c0 and dw = w1 - fr.w0 in
    (* Clamp: a host clock that steps backwards never attributes
       negative time. *)
    let dns = max 0 (ns1 - fr.ns0) in
    n.calls <- n.calls + 1;
    n.cum <- n.cum + dc;
    n.ns <- n.ns + dns;
    n.words <- n.words + dw;
    if d > 0 then begin
      let p = t.frames.(d - 1).node in
      p.child_cum <- p.child_cum + dc;
      p.child_ns <- p.child_ns + dns;
      p.child_words <- p.child_words + dw
    end

(* Resident set from /proc/self/statm (second field, in pages), assuming
   4 KiB host pages; 0 where /proc is absent. *)
let rss_kb () =
  match In_channel.with_open_text "/proc/self/statm" In_channel.input_line with
  | Some line -> ( try int_of_string (List.nth (String.split_on_char ' ' line) 1) * 4 with _ -> 0)
  | None | (exception Sys_error _) -> 0

let sample_self t =
  if host t then begin
    let q = Gc.quick_stat () and s = t.self in
    s.samples <- s.samples + 1;
    s.heap_words_max <- max s.heap_words_max q.Gc.heap_words;
    s.top_heap_words <- q.Gc.top_heap_words;
    s.rss_kb_max <- max s.rss_kb_max (rss_kb ());
    s.minor_collections <- q.Gc.minor_collections;
    s.major_collections <- q.Gc.major_collections
  end

(* ------------------------------ snapshot ------------------------------ *)

let by_name l = List.sort (fun (a : node) b -> String.compare a.name b.name) l

let rec snapshot (n : inode) =
  {
    name = n.iname;
    calls = n.calls;
    cum = n.cum;
    self = max 0 (n.cum - n.child_cum);
    ns = n.ns;
    self_ns = max 0 (n.ns - n.child_ns);
    words = n.words;
    self_words = max 0 (n.words - n.child_words);
    children = by_name (Hashtbl.fold (fun _ c acc -> snapshot c :: acc) n.children []);
  }

let tree t = by_name (Hashtbl.fold (fun _ n acc -> snapshot n :: acc) t.roots [])

let paths t =
  let rec go prefix (n : node) =
    let path = if prefix = "" then n.name else prefix ^ ";" ^ n.name in
    (path, n) :: List.concat_map (go path) n.children
  in
  List.concat_map (go "") (tree t)

let flatten t = List.map (fun (path, (n : node)) -> (path, n.calls, n.self, n.cum)) (paths t)
let self_of ~by (n : node) = match by with `Cycles -> n.self | `Ns -> n.self_ns | `Words -> n.self_words

let top ?(k = max_int) ~by t =
  paths t
  |> List.stable_sort (fun (pa, a) (pb, b) ->
         let ma = self_of ~by a and mb = self_of ~by b in
         if ma <> mb then compare mb ma else String.compare pa pb)
  |> List.filteri (fun i _ -> i < k)

let total ?(by = `Cycles) t =
  match (by, t.clock, t.now_ns) with
  | `Cycles, Some c, _ -> Clock.now c - t.c_start
  | `Ns, _, Some now -> max 0 (now () - t.ns_start)
  | `Words, _, Some _ -> minor_words () - t.w_start
  | _ -> 0

let attributed ?(by = `Cycles) t =
  let cum (n : inode) = match by with `Cycles -> n.cum | `Ns -> n.ns | `Words -> n.words in
  Hashtbl.fold (fun _ n acc -> acc + cum n) t.roots 0

let unattributed ?by t = max 0 (total ?by t - attributed ?by t)
let fraction ~part ~total = if total = 0 then 1.0 else float_of_int part /. float_of_int total
let attributed_fraction ?by t = fraction ~part:(attributed ?by t) ~total:(total ?by t)
let ns_per_vcycle (n : node) = if n.cum <= 0 then 0.0 else float_of_int n.ns /. float_of_int n.cum

(* ------------------------------ exporters ----------------------------- *)

let tree_json fields t =
  let rec node_json (n : node) =
    Json.Obj
      (fields n
      @
      if n.children = [] then []
      else [ ("children", Json.Obj (List.map (fun (c : node) -> (c.name, node_json c)) n.children)) ])
  in
  Json.Obj (List.map (fun (n : node) -> (n.name, node_json n)) (tree t))

let to_json t =
  Json.Obj
    [
      ("enabled", Json.Bool (enabled t));
      ("total_cycles", Json.Int (total t));
      ("attributed_cycles", Json.Int (attributed t));
      ("unattributed_cycles", Json.Int (unattributed t));
      ("attributed_fraction", Json.Float (attributed_fraction t));
      ( "tree",
        tree_json
          (fun n -> [ ("calls", Json.Int n.calls); ("cum", Json.Int n.cum); ("self", Json.Int n.self) ])
          t );
    ]

let host_json t =
  (* Read the meters before building anything, so the export's own
     allocation stays out of the totals. *)
  let total_ns = total ~by:`Ns t and total_words = total ~by:`Words t in
  let attributed_ns = attributed ~by:`Ns t and attributed_words = attributed ~by:`Words t in
  (* GC word counters are deltas since create/reset; heap occupancy and
     collection counts are current process state. *)
  let q = Gc.quick_stat () and minor, promoted, major = Gc.counters () in
  let minor0, promoted0, major0 = t.gc_start in
  let delta now start = Json.Int (max 0 (int_of_float (now -. start))) in
  let s = t.self in
  Json.Obj
    [
      ("enabled", Json.Bool (host t));
      ("total_ns", Json.Int total_ns);
      ("attributed_ns", Json.Int attributed_ns);
      ("attributed_ns_fraction", Json.Float (fraction ~part:attributed_ns ~total:total_ns));
      ("total_words", Json.Int total_words);
      ("attributed_words", Json.Int attributed_words);
      ("attributed_words_fraction", Json.Float (fraction ~part:attributed_words ~total:total_words));
      ("total_vcycles", Json.Int (total t));
      ( "gc",
        Json.Obj
          [
            ("allocated_words", Json.Int total_words);
            ("minor_words", delta minor minor0);
            ("promoted_words", delta promoted promoted0);
            ("major_words", delta major major0);
            ("minor_collections", Json.Int q.Gc.minor_collections);
            ("major_collections", Json.Int q.Gc.major_collections);
            ("heap_words", Json.Int q.Gc.heap_words);
            ("top_heap_words", Json.Int q.Gc.top_heap_words);
            ("compactions", Json.Int q.Gc.compactions);
          ] );
      ( "self",
        Json.Obj
          [
            ("samples", Json.Int s.samples);
            ("heap_words_max", Json.Int s.heap_words_max);
            ("top_heap_words", Json.Int s.top_heap_words);
            ("rss_kb_max", Json.Int s.rss_kb_max);
            ("minor_collections", Json.Int s.minor_collections);
            ("major_collections", Json.Int s.major_collections);
          ] );
      ( "tree",
        tree_json
          (fun n ->
            [
              ("calls", Json.Int n.calls);
              ("ns", Json.Int n.ns);
              ("self_ns", Json.Int n.self_ns);
              ("words", Json.Int n.words);
              ("self_words", Json.Int n.self_words);
              ("vcycles", Json.Int n.cum);
            ])
          t );
    ]

(* Collapsed stacks for flamegraph.pl / speedscope: one "a;b;c self"
   line per path with a non-zero self cost, in deterministic DFS order.
   The unattributed remainder is reported explicitly as its own root. *)
let to_collapsed ?(by = `Cycles) t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, n) ->
      let v = self_of ~by n in
      if v > 0 then Buffer.add_string buf (Printf.sprintf "%s %d\n" path v))
    (paths t);
  let rest = unattributed ~by t in
  if rest > 0 then Buffer.add_string buf (Printf.sprintf "(unattributed) %d\n" rest);
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>profile: %d total cycles, %d attributed (%.1f%%), %d unattributed@,"
    (total t) (attributed t)
    (100.0 *. attributed_fraction t)
    (unattributed t);
  if host t then
    Format.fprintf ppf "host: %d ns total (%.1f%% attributed), %d words allocated (%.1f%% attributed)@,"
      (total ~by:`Ns t)
      (100.0 *. attributed_fraction ~by:`Ns t)
      (total ~by:`Words t)
      (100.0 *. attributed_fraction ~by:`Words t);
  let rec go indent n =
    Format.fprintf ppf "%s%-*s calls=%-8d self=%-12d cum=%d" indent
      (max 1 (28 - String.length indent))
      n.name n.calls n.self n.cum;
    if host t then
      Format.fprintf ppf " self_ns=%d self_words=%d ns/vcycle=%.1f" n.self_ns n.self_words
        (ns_per_vcycle n);
    Format.fprintf ppf "@,";
    List.iter (go (indent ^ "  ")) n.children
  in
  List.iter (go "") (tree t);
  Format.fprintf ppf "@]"
