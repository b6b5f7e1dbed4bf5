type t = ENOMEM | ENOSPC | EIO | EAGAIN | ENOENT | EEXIST | EACCES | EINVAL | ENOTEMPTY

let to_string = function
  | ENOMEM -> "ENOMEM"
  | ENOSPC -> "ENOSPC"
  | EIO -> "EIO"
  | EAGAIN -> "EAGAIN"
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | EACCES -> "EACCES"
  | EINVAL -> "EINVAL"
  | ENOTEMPTY -> "ENOTEMPTY"

exception Error of t * string

let fail errno what = raise (Error (errno, what))

let () =
  Printexc.register_printer (function
    | Error (e, what) -> Some (Printf.sprintf "Sim.Errno.Error(%s, %S)" (to_string e) what)
    | _ -> None)
