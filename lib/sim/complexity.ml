(* Least-squares scaling-law fits over (operand size, cost) series. All
   arithmetic is plain IEEE double on deterministic inputs, so fits are
   bit-identical across runs and hosts — bench JSON containing them can be
   compared byte-for-byte. *)

type cls = Constant | Logarithmic | Linear | Superlinear

let cls_name = function
  | Constant -> "O(1)"
  | Logarithmic -> "O(log n)"
  | Linear -> "O(n)"
  | Superlinear -> "O(n^2+)"

let cls_of_name = function
  | "O(1)" -> Some Constant
  | "O(log n)" -> Some Logarithmic
  | "O(n)" -> Some Linear
  | "O(n^2+)" -> Some Superlinear
  | _ -> None

let rank = function Constant -> 0 | Logarithmic -> 1 | Linear -> 2 | Superlinear -> 3

type lsq = { slope : float; intercept : float; r2 : float }

let least_squares pts =
  let n = List.length pts in
  if n < 2 then invalid_arg "Complexity.least_squares: need at least two points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let mx = sx /. fn and my = sy /. fn in
  let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) *. (x -. mx))) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0.0 pts in
  if sxx = 0.0 then invalid_arg "Complexity.least_squares: all x coincide";
  let slope = sxy /. sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res =
    List.fold_left
      (fun a (x, y) ->
        let e = y -. (intercept +. (slope *. x)) in
        a +. (e *. e))
      0.0 pts
  in
  let ss_tot = List.fold_left (fun a (_, y) -> a +. ((y -. my) *. (y -. my))) 0.0 pts in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { slope; intercept; r2 }

type fit = { exponent : float; r2 : float; growth : float; cls : cls }

(* Slope thresholds: a true O(n) series fits slope ~1 and a true O(1)
   series slope ~0; O(log n) lands in between with a small slope but
   material end-to-end growth. The growth cut at 2x separates "flat with
   noise" from "genuinely climbing". *)
let classify ~exponent ~growth =
  if exponent >= 1.4 then Superlinear
  else if exponent >= 0.6 then Linear
  else if growth > 2.0 then Logarithmic
  else Constant

let fit points =
  let log_pts =
    List.map
      (fun (n, c) ->
        if n <= 0 then invalid_arg "Complexity.fit: operand sizes must be positive";
        (log (float_of_int n), log (float_of_int (max 1 c))))
      points
  in
  let { slope; intercept = _; r2 } = least_squares log_pts in
  let xs = List.map fst log_pts in
  let x_min = List.fold_left min (List.hd xs) xs in
  let x_max = List.fold_left max (List.hd xs) xs in
  let growth = exp (slope *. (x_max -. x_min)) in
  { exponent = slope; r2; growth; cls = classify ~exponent:slope ~growth }

let fit_to_json f =
  Json.Obj
    [
      ("class", Json.String (cls_name f.cls));
      ("exponent", Json.Float f.exponent);
      ("r2", Json.Float f.r2);
      ("growth", Json.Float f.growth);
    ]
