(* Dense row-major matrices. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative size";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let rows m = m.rows
let cols m = m.cols
let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v
let copy m = { m with data = Array.copy m.data }
let data m = m.data

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let matvec m x y =
  if Array.length x <> m.cols || Array.length y <> m.rows then
    invalid_arg "Matrix.matvec: size";
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get m.data (base + j) *. Array.unsafe_get x j)
    done;
    y.(i) <- !acc
  done

(* Transposed product y = m^T x, without materialising the transpose. *)
let matvec_t m x y =
  if Array.length x <> m.rows || Array.length y <> m.cols then
    invalid_arg "Matrix.matvec_t: size";
  Array.fill y 0 m.cols 0.0;
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if not (Float.equal xi 0.0) then begin
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        Array.unsafe_set y j
          (Array.unsafe_get y j
          +. (xi *. Array.unsafe_get m.data (base + j)))
      done
    end
  done

(* c <- a b, accumulating c.(i).(j) over k in increasing order and
   skipping zero entries of [a]. The inner loop is unrolled by four
   along j; each entry still sees the same additions in the same
   order, so the result is bit-identical to the rolled loop. *)
let matmul_into c a b =
  if a.cols <> b.rows || c.rows <> a.rows || c.cols <> b.cols then
    invalid_arg "Matrix.matmul_into: size";
  let cd = c.data and ad = a.data and bd = b.data in
  let n = b.cols in
  Array.fill cd 0 (Array.length cd) 0.0;
  for i = 0 to a.rows - 1 do
    let cbase = i * n in
    for k = 0 to a.cols - 1 do
      let aik = Array.unsafe_get ad ((i * a.cols) + k) in
      if not (Float.equal aik 0.0) then begin
        let bbase = k * n in
        let j = ref 0 in
        while !j + 3 < n do
          let cj = cbase + !j and bj = bbase + !j in
          Array.unsafe_set cd cj
            (Array.unsafe_get cd cj +. (aik *. Array.unsafe_get bd bj));
          Array.unsafe_set cd (cj + 1)
            (Array.unsafe_get cd (cj + 1)
            +. (aik *. Array.unsafe_get bd (bj + 1)));
          Array.unsafe_set cd (cj + 2)
            (Array.unsafe_get cd (cj + 2)
            +. (aik *. Array.unsafe_get bd (bj + 2)));
          Array.unsafe_set cd (cj + 3)
            (Array.unsafe_get cd (cj + 3)
            +. (aik *. Array.unsafe_get bd (bj + 3)));
          j := !j + 4
        done;
        for j = !j to n - 1 do
          Array.unsafe_set cd (cbase + j)
            (Array.unsafe_get cd (cbase + j)
            +. (aik *. Array.unsafe_get bd (bbase + j)))
        done
      end
    done
  done
[@@placer_lint.hot]

let matmul a b =
  let c = create a.rows b.cols in
  matmul_into c a b;
  c
