type t = {
  pid : int;
  aspace : Address_space.t;
  mutable alive : bool;
  mutable core : int;
  mutable affinity : int;
}

let create ~pid ~aspace ?(core = 0) ?(affinity = -1) () =
  { pid; aspace; alive = true; core; affinity }
