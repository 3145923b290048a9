(** Simplex for linear programs with nonnegative costs

    {[ minimize c.x  subject to  a_i.x (<= | = | >=) b_i,  x >= 0,  c >= 0 ]}

    One algorithm: dual simplex from the slack basis. {!solve} gives
    every row its own basic column, so there are no artificials to
    drive out and no phase 1: with every cost [>= 0] that basis is dual
    feasible, and the dual loop finishes the LP from it. Every LP in
    the repository is written that way: both legalizers (ePlace-A's and
    the prior work's) and the matheuristic's window ILPs write each net
    as a [(hi, span)] pair, so a wirelength term costs [w * span] and
    never [-w * lo]. The same loop re-solves the nodes of the ILP branch
    and bound warm (see {!section:warm}). Pricing is Dantzig's rule (the
    most infeasible row leaves), with Bland's rule after a stall budget.

    The tableau is stored row-major, but the rows it pivots on are
    sparse (a legalization pivot row is ~6 % nonzero), so a pivot
    collects the nonzero columns of the scaled pivot row once and
    updates every other row, and the reduced costs, only there. This is
    an exact rewrite of the plain dense tableau: the same pivot sequence
    and the same bits of [x] (a skipped [r - f * 0] can only differ in
    the sign of a zero). Each call adds its pivots to the
    [simplex.pivots] telemetry counter. *)

type op = Le | Ge | Eq

type constr = { coeffs : (int * float) list; op : op; rhs : float }
(** Sparse row: list of (variable index, coefficient). *)

type problem = {
  n_vars : int;
  objective : float array;  (** length [n_vars], every entry [>= 0]; minimized *)
  constraints : constr list;
}

type solution = { x : float array; objective_value : float }

(** There is no unbounded outcome: [c >= 0] and [x >= 0] bound the
    objective below by 0. *)
type result =
  | Optimal of solution
  | Infeasible
  | Iter_limit  (** safety valve; treat as a solver failure *)

(** {2:warm Warm starts}

    Branch and bound re-solves one LP with a few bound rows added.
    Adding rows leaves the reduced costs alone, so an optimal basis
    stays dual feasible: the new row's slack is basic in it, possibly
    at a negative value, and the dual loop that solved the LP from its
    slack basis restores primal feasibility from there, without a
    rebuild. Only rows are ever added; nothing else may change the
    working tableau between re-solves, or the basis would lose that
    dual feasibility. *)

type warm
(** An LP solved by {!solve}: its working tableau, with reserved rows
    and slack columns for bound rows, and, once {!save_root} is called,
    a copy of the root optimum. *)

val solve : ?max_iter:int -> reserve:int -> problem -> result * warm
(** Dual simplex from the slack basis, with room for [reserve] bound
    rows. Every row has its own column basic, at the row's rhs whatever
    its sign: a slack for a [Le] row and for a negated [Ge] row, and
    for an [Eq] row a slack fixed at 0 that never enters and leaves the
    basis from either side. The reserved slack columns are zero and
    never enter a root pivot, and Bland's switch point counts only the
    LP's own rows and columns, so [~reserve:k] takes the pivots and
    returns the bits of [~reserve:0].

    The ratio test only admits pivot elements with [|pv| > eps], and
    the pivot routine turns a zero pivot into a hard error rather than
    a silent [inf]/[nan] tableau (placer-lint rule N2). Degenerate
    problems (tied ratios, redundant rows through one vertex, rows
    that cycle under Dantzig's rule) end under Bland's rule or on the
    [max_iter] safety valve (default 20000), which counts the
    iteration that finds the optimum too.

    The [warm] takes {!add_bound} and {!resolve}, and is usable only if
    the result is [Optimal].
    @raise Invalid_argument on a negative or nan cost, or on malformed
    input (bad sizes or indices). *)

val save_root : warm -> unit
(** Copy the working tableau as the root optimum that {!reset} returns
    to. Branch and bound calls it once, before its first branch; a
    caller that never resets does not pay for the copy.
    @raise Invalid_argument after a bound row was added. *)

val add_bound : warm -> int -> op -> float -> unit
(** [add_bound w j op b] adds the row [x_j op b] ([Le] or [Ge]) to the
    working tableau, written in terms of the current basis.
    @raise Invalid_argument on [Eq], a bad index, or more rows than
    reserved. *)

val resolve : ?max_iter:int -> warm -> result
(** Dual simplex on the working tableau from its current, dual-feasible
    basis: [Optimal], [Infeasible] (an infeasible row, i.e. a negative
    rhs or a basic artificial away from 0, with no entering column), or
    [Iter_limit]. Adds its pivots to [simplex.pivots]. After [Optimal],
    more rows may be added and resolved again. *)

val reset : warm -> unit
(** Return the working tableau to the root optimum of {!save_root}:
    every added row is dropped.
    @raise Invalid_argument before {!save_root}. *)

val pp_result : Format.formatter -> result -> unit
