(** Dense row-major matrices, used by the spectral transforms and the
    neural-network layers. *)

type t

val create : int -> int -> t
(** Zero matrix. @raise Invalid_argument on negative sizes. *)

val init : int -> int -> (int -> int -> float) -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t

val data : t -> float array
(** The row-major backing array, shared, not copied: entry [(i, j)] is
    at index [i * cols m + j]. Hot loops index it directly, because a
    {!get}/{!set} call across a module boundary boxes its float. *)

val transpose : t -> t

val matvec : t -> float array -> float array -> unit
(** [matvec m x y] computes [y <- m x]. *)

val matvec_t : t -> float array -> float array -> unit
(** [matvec_t m x y] computes [y <- m^T x]. *)

val matmul : t -> t -> t
(** [matmul a b] is a fresh [a b]; {!matmul_into} into a new matrix. *)

val matmul_into : t -> t -> t -> unit
(** [matmul_into c a b] overwrites [c] with [a b] without allocating.
    Each entry is accumulated over [k] in increasing order, skipping
    zero entries of [a]. [c] must not alias [a] or [b].
    @raise Invalid_argument on mismatched sizes. *)
