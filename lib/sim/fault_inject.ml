(* A seeded, deterministic fault-injection plane. Components consult the
   plane at named sites on their hot paths via [fires]; a disabled plane
   answers with a single branch and no allocation, so the sites are
   zero-cost (host and virtual) in normal runs. *)

type mode =
  | Never
  | Always
  | Prob of float
  | On_nth of int

type site_state = {
  mutable mode : mode;
  mutable evaluations : int;
  mutable injected : int;
}

type t = {
  enabled : bool;
  seed : int;
  rng : Rng.t;
  sites : (string, site_state) Hashtbl.t;
  stats : Stats.t option;
  mutable reporter : (string -> unit) option;
}

exception Injected_crash of string

(* Canonical site names, so components and plans agree on spelling. *)
let site_nvm_torn_line = "nvm_torn_line"
let site_nvm_bit_flip = "nvm_bit_flip"
let site_wal_partial_flush = "wal_partial_flush"
let site_frame_alloc_fail = "frame_alloc_fail"
let site_zero_cache_empty = "zero_cache_empty"
let site_quota_enospc = "quota_enospc"
let site_tlb_ack_lost = "tlb_ack_lost"
let site_durable_step = "durable_step"
let site_store_commit = "store_commit"
let site_store_apply = "store_apply"
let site_store_alloc = "store_alloc"

let all_sites =
  [
    site_nvm_torn_line;
    site_nvm_bit_flip;
    site_wal_partial_flush;
    site_frame_alloc_fail;
    site_zero_cache_empty;
    site_quota_enospc;
    site_tlb_ack_lost;
    site_durable_step;
    site_store_commit;
    site_store_apply;
    site_store_alloc;
  ]

let disabled =
  {
    enabled = false;
    seed = 0;
    rng = Rng.create ~seed:0;
    sites = Hashtbl.create 1;
    stats = None;
    reporter = None;
  }

let create ?(seed = 1) ?stats () =
  { enabled = true; seed; rng = Rng.create ~seed; sites = Hashtbl.create 16; stats; reporter = None }

let enabled t = t.enabled

let state t ~site =
  match Hashtbl.find_opt t.sites site with
  | Some s -> s
  | None ->
    let s = { mode = Never; evaluations = 0; injected = 0 } in
    Hashtbl.add t.sites site s;
    s

let arm t ~site mode =
  if not t.enabled then invalid_arg "Fault_inject.arm: disabled plane";
  (match mode with
  | Prob p when not (p >= 0.0 && p <= 1.0) -> invalid_arg "Fault_inject.arm: probability not in [0,1]"
  | On_nth n when n <= 0 -> invalid_arg "Fault_inject.arm: On_nth needs n >= 1"
  | _ -> ());
  (state t ~site).mode <- mode

let disarm t ~site = match Hashtbl.find_opt t.sites site with Some s -> s.mode <- Never | None -> ()

let set_reporter t f =
  if not t.enabled then invalid_arg "Fault_inject.set_reporter: disabled plane";
  t.reporter <- Some f

let fires t ~site =
  if not t.enabled then false
  else begin
    let s = state t ~site in
    s.evaluations <- s.evaluations + 1;
    let fire =
      match s.mode with
      | Never -> false
      | Always -> true
      | Prob p -> Rng.float t.rng < p
      | On_nth n -> s.evaluations = n
    in
    if fire then begin
      s.injected <- s.injected + 1;
      (match t.stats with
      | Some stats ->
        Stats.incr stats "fault_inject";
        Stats.incr stats ("fault_inject:" ^ site)
      | None -> ());
      match t.reporter with Some f -> f site | None -> ()
    end;
    fire
  end

let rand_int t bound = Rng.int t.rng bound

let evaluations t ~site =
  match Hashtbl.find_opt t.sites site with Some s -> s.evaluations | None -> 0

let injected t ~site = match Hashtbl.find_opt t.sites site with Some s -> s.injected | None -> 0

let totals t =
  Hashtbl.fold (fun site s acc -> (site, s.evaluations, s.injected) :: acc) t.sites []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let injected_total t = Hashtbl.fold (fun _ s acc -> acc + s.injected) t.sites 0
