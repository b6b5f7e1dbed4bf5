type t = int

let to_addr n = n lsl Sim.Units.page_shift
let of_addr a = a lsr Sim.Units.page_shift
let offset_in_frame a = a land (Sim.Units.page_size - 1)
