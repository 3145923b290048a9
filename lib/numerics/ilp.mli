(** Integer linear programming by branch and bound over the simplex
    relaxation. Depth-first diving (nearest-branch-first) finds an
    incumbent quickly; best-bound pruning keeps node counts low at
    analog-placement problem sizes.

    Only the root relaxation is solved from scratch, by dual simplex
    from the slack basis ({!Simplex.solve} with reserved bound rows), so
    every cost must be [>= 0]. Every other node is the root plus its
    path of bound rows ([x_j <= floor v] or [x_j >= ceil v]), re-solved
    by the same dual loop on the root's working tableau: a child of the
    node just solved adds its one row, and any other node first resets
    the tableau to the root optimum, copied once when the root
    branches, and adds its whole path. The root takes the pivots and
    bits of [Simplex.solve ~reserve:0] on the binary bounds followed by
    the base rows. *)

type vartype = Continuous | Integer | Binary

type problem = {
  base : Simplex.problem;  (** relaxation; variables are >= 0 *)
  kinds : vartype array;  (** one kind per variable *)
}

type status =
  | Ilp_optimal  (** proved optimal *)
  | Ilp_feasible  (** node budget hit; best incumbent returned *)
  | Ilp_infeasible

type result = {
  status : status;
  x : float array;
  objective_value : float;
  nodes : int;  (** LP relaxations solved *)
}

val solve : ?max_nodes:int -> problem -> result
(** Binary variables get an implicit [x <= 1] bound. The node budget
    [max_nodes] (default 500) is the only stop, so the result is a
    function of the problem alone. A solve that stops on the budget or
    on a relaxation's [Iter_limit] adds 1 to the [ilp.truncated]
    telemetry counter, and any other solve adds 0 to it.
    @raise Invalid_argument if [kinds] size mismatches the problem, or
    as {!Simplex.solve} on a negative or nan cost. *)
