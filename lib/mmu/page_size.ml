type t = Small | Huge_2m | Huge_1g

let bytes = function
  | Small -> Sim.Units.page_size
  | Huge_2m -> Sim.Units.huge_2m
  | Huge_1g -> Sim.Units.huge_1g

let frames s = bytes s / Sim.Units.page_size

let depth_above_leaf = function Small -> 0 | Huge_2m -> 1 | Huge_1g -> 2

let largest_for ~addr ~len =
  let fits s = Sim.Units.is_aligned addr ~align:(bytes s) && len >= bytes s in
  if fits Huge_1g then Huge_1g else if fits Huge_2m then Huge_2m else Small
