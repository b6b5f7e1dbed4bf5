(* Every experiment group in report order: the name `o1mem_cli
   experiments -o` selects it by, the section title printed above its
   tables, and the function that prints them. *)

let all =
  [
    ("mapping", "Mapping costs (E1, E2, E4, E8)", Exp_mapping.run);
    ("alloc", "Allocation costs (E3, E9, E14, E15)", Exp_alloc.run);
    ("sharing", "Page-table sharing (E5, E6, E16)", Exp_sharing.run);
    ("range", "Range translations and walk costs (E7, E10)", Exp_range.run);
    ("os", "OS economics (E11, E12, E13, E17)", Exp_os.run);
    ("ablation", "Ablations (A1..A9)", Exp_ablation.run);
    ("complexity", "Complexity classes (C1)", Exp_complexity.run);
    ("faults", "Robustness (R1)", Exp_faults.run);
    ("store", "Store robustness (R2)", Exp_store.run);
    ("causal", "Causal critical path (T1)", Exp_causal.run);
  ]

let names = List.map (fun (name, _, _) -> name) all

let run (_, title, f) =
  Printf.printf "\n%s\n== %s\n%s\n" (String.make 72 '=') title (String.make 72 '=');
  f ()
