(** Uniform bin grid over a placement region, shared by both density
    models. *)

type t = {
  nx : int;
  ny : int;
  x0 : float;
  y0 : float;
  bw : float;
  bh : float;
}

val create : region:Geometry.Rect.t -> nx:int -> ny:int -> t
(** @raise Invalid_argument on empty region or non-positive bin counts. *)

val bin_area : t -> float
val bin_center_x : t -> int -> float
val bin_center_y : t -> int -> float

type cover = {
  mutable i0 : int;
  mutable i1 : int;  (** columns [i0..i1] may be covered; empty if [i1 < i0] *)
  mutable j0 : int;
  mutable j1 : int;  (** rows [j0..j1] may be covered *)
  dx : float array;  (** overlap length with column [i], read on [i0..i1] *)
  dy : float array;  (** overlap length with row [j], read on [j0..j1] *)
}
(** Caller-owned scratch that {!cover} writes into. *)

val cover_create : t -> cover
(** Scratch sized for this grid. *)

val cover : t -> Geometry.Rect.t -> cover -> unit
(** [cover g r c] clips [r] to the region and writes into [c] the bin
    range it may touch and its per-column and per-row overlap lengths.
    [r] overlaps bin [(i, j)] exactly when [c.dx.(i) > 0.0] and
    [c.dy.(j) > 0.0], with area [c.dx.(i) *. c.dy.(j)]. Allocates
    nothing. *)
