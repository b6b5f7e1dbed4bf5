type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64 to expand the seed into four non-zero words. *)
let splitmix state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix state in
  let s1 = splitmix state in
  let s2 = splitmix state in
  let s3 = splitmix state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let int_in t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t ~mean =
  let u = float t in
  -.mean *. log (1.0 -. u)

let zipf ~n ~theta =
  assert (n > 0 && theta > 0.0 && theta < 1.0);
  (* Gray et al., "Quickly generating billion-record synthetic databases". *)
  let zeta n =
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. (float_of_int i ** theta))
    done;
    !acc
  in
  let zetan = zeta n in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta = (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta))) /. (1.0 -. (zeta 2 /. zetan)) in
  fun t ->
    let u = float t in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** theta) then 1
    else
      let k = int_of_float (float_of_int n *. (((eta *. u) -. eta +. 1.0) ** alpha)) in
      if k >= n then n - 1 else if k < 0 then 0 else k
