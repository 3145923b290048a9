(* Reference branch and bound for the warm-start property: the cold
   search that [Numerics.Ilp] replaced. Every node rebuilds its
   relaxation from the full row list (binary bounds, its branching
   path, the base rows) and solves it from scratch with the dense
   two-phase reference kernel ([Dense_simplex_ref]), not the dual
   simplex that [Numerics.Ilp] runs.
   The node order, branching rule and pruning are those of
   [Numerics.Ilp.solve]; only the way each relaxation is solved
   differs, so statuses and objectives must agree up to rounding.
   Test-only. *)

module Sx = Numerics.Simplex
module I = Numerics.Ilp

let int_tol = 1e-5

let is_integral v = abs_float (v -. Float.round v) <= int_tol

let solve ?(max_nodes = 500) (p : I.problem) =
  let binary_bounds =
    List.concat
      (List.init (Array.length p.I.kinds) (fun j ->
           match p.I.kinds.(j) with
           | I.Binary -> [ { Sx.coeffs = [ (j, 1.0) ]; op = Sx.Le; rhs = 1.0 } ]
           | I.Integer | I.Continuous -> []))
  in
  let relax extra =
    Dense_simplex_ref.solve
      { p.I.base with
        Sx.constraints = binary_bounds @ extra @ p.I.base.Sx.constraints }
  in
  let incumbent = ref None and incumbent_obj = ref infinity in
  let nodes = ref 0 and truncated = ref false in
  (* a node is its branching rows, newest first *)
  let stack = ref [ [] ] in
  let running = ref true in
  while !running do
    match !stack with
    | [] -> running := false
    | extra :: rest -> (
        stack := rest;
        if !nodes >= max_nodes then begin
          truncated := true;
          stack := []
        end
        else begin
          incr nodes;
          match relax extra with
          | Sx.Infeasible -> ()
          | Sx.Iter_limit -> truncated := true
          | Sx.Optimal sol ->
              if sol.Sx.objective_value < !incumbent_obj -. 1e-9 then begin
                let frac j = abs_float (sol.Sx.x.(j) -. Float.round sol.Sx.x.(j)) in
                let pick = ref (-1) and best = ref int_tol in
                let consider kind =
                  Array.iteri
                    (fun j k ->
                      if k = kind && frac j > !best then begin
                        best := frac j;
                        pick := j
                      end)
                    p.I.kinds
                in
                consider I.Binary;
                if !pick < 0 then consider I.Integer;
                if !pick < 0 then begin
                  incumbent := Some sol;
                  incumbent_obj := sol.Sx.objective_value
                end
                else begin
                  let j = !pick in
                  let v = sol.Sx.x.(j) in
                  let row op rhs = { Sx.coeffs = [ (j, 1.0) ]; op; rhs } in
                  let child r = r :: extra in
                  let down = child (row Sx.Le (Float.floor v))
                  and up = child (row Sx.Ge (Float.ceil v)) in
                  stack :=
                    (if v -. Float.floor v <= 0.5 then [ down; up ] else [ up; down ])
                    @ !stack
                end
              end
        end)
  done;
  match !incumbent with
  | Some sol ->
      let x = Array.copy sol.Sx.x in
      Array.iteri
        (fun j k ->
          match k with
          | I.Binary | I.Integer -> if is_integral x.(j) then x.(j) <- Float.round x.(j)
          | I.Continuous -> ())
        p.I.kinds;
      { I.status = (if !truncated then I.Ilp_feasible else I.Ilp_optimal);
        x; objective_value = sol.Sx.objective_value; nodes = !nodes }
  | None ->
      { I.status = I.Ilp_infeasible;
        x = Array.make p.I.base.Sx.n_vars 0.0;
        objective_value = infinity; nodes = !nodes }
