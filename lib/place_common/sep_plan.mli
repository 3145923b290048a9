(** Separation planning shared by the detailed placers: assigns each
    device pair an axis and direction consistent with the constraint
    set, producing an acyclic, transitively-reduced constraint graph. *)

type axis = X_axis | Y_axis

type sep = { lo : int; hi : int; along : axis }
(** [lo] must precede [hi] along [along]. *)

val plan :
  Netlist.Circuit.t -> gp:Netlist.Layout.t -> all_pairs:bool -> sep list
(** [all_pairs = true] separates every pair (the closure: any layout
    it admits is overlap-free, but it can be infeasible); [false] uses
    the papers' overlap-only rule. *)
