let size_sweep_kb () = [ 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]
let page_sweep () = [ 1; 2; 16; 64; 256; 1024; 4096; 16384 ]

type pattern = Sequential | One_byte_per_page | Random_pages of int | Zipf_pages of int

let offsets ~rng pattern ~len =
  let pages = max 1 (len / Sim.Units.page_size) in
  match pattern with
  | Sequential -> List.init (len / 64) (fun i -> i * 64)
  | One_byte_per_page -> List.init pages (fun i -> i * Sim.Units.page_size)
  | Random_pages n ->
    List.init n (fun _ -> Sim.Rng.int rng pages * Sim.Units.page_size)
  | Zipf_pages n ->
    let draw = Sim.Rng.zipf ~n:pages ~theta:0.9 in
    List.init n (fun _ -> draw rng * Sim.Units.page_size)

let touch_with ~access ~base ~rng pattern ~len ~write =
  let offs = offsets ~rng pattern ~len in
  List.iter (fun off -> access ~va:(base + off) ~write) offs;
  List.length offs
