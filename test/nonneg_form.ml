(* Writes an LP whose costs may be negative in the form that
   [Numerics.Simplex] and [Numerics.Ilp] take, every cost >= 0. A
   variable x_j with a negative cost needs an upper bound u_j; it is
   replaced by its complement x'_j = u_j - x_j, whose cost -c_j is
   positive. A row term a_j x_j becomes a_j u_j - a_j x'_j, and the
   added row x'_j <= u_j keeps x_j >= 0. The feasible sets map one to
   one, and the rewritten objective is the original one minus [offset],
   the sum of c_j u_j over the complemented variables. For an integral
   u_j, x'_j is integral exactly when x_j is, so an ILP keeps its
   optimum too. Test-only. *)

module Sx = Numerics.Simplex

type t = {
  problem : Sx.problem;  (* every cost >= 0 *)
  flipped : float option array;  (* Some u_j: x_j was complemented *)
  offset : float;  (* original objective = rewritten one + offset *)
}

let complement ~ub (p : Sx.problem) =
  let flipped =
    Array.mapi
      (fun j c ->
        if c >= 0.0 then None
        else
          match ub j with
          | Some u -> Some u
          | None -> invalid_arg "Nonneg_form.complement: negative cost, no bound")
      p.Sx.objective
  in
  let row (r : Sx.constr) =
    let coeffs, rhs =
      List.fold_left
        (fun (coeffs, rhs) (j, a) ->
          match flipped.(j) with
          | None -> ((j, a) :: coeffs, rhs)
          | Some u -> ((j, -.a) :: coeffs, rhs -. (a *. u)))
        ([], r.Sx.rhs) r.Sx.coeffs
    in
    { r with Sx.coeffs = List.rev coeffs; rhs }
  in
  let boxes =
    List.filter_map
      (fun j ->
        Option.map
          (fun u -> { Sx.coeffs = [ (j, 1.0) ]; op = Sx.Le; rhs = u })
          flipped.(j))
      (List.init p.Sx.n_vars Fun.id)
  in
  let offset = ref 0.0 in
  Array.iteri
    (fun j f -> Option.iter (fun u -> offset := !offset +. (p.Sx.objective.(j) *. u)) f)
    flipped;
  { problem =
      { p with
        Sx.objective = Array.map abs_float p.Sx.objective;
        constraints = List.map row p.Sx.constraints @ boxes };
    flipped;
    offset = !offset }

(* A solution of the rewritten LP, as values of the original variables. *)
let original t x =
  Array.mapi (fun j v -> match t.flipped.(j) with None -> v | Some u -> u -. v) x
