(** Reference (serial) interpreter for mini-HPF programs.

    Executes the source AST directly on dense arrays, ignoring all HPF
    directives, and accounts time with the same cost model the SPMD
    simulator uses for computation. Serves two purposes: the T(1) baseline
    of the Figure 7 speedups, and the correctness oracle the test suite
    compares compiled SPMD executions against.

    A run is staged: every name is first resolved to a slot and every
    expression and statement turned into a closure, then the closures run.
    Staging never raises; each error is raised by the closure that meets
    it, when it runs, so a bad statement on a path never taken stays
    silent. *)

open Hpf

exception Error of string

let errf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type arr = {
  lo : int array;
  hi : int array;
  strides : int array;
  base : int;
  data : float array;
}

(* One slot per loop-variable name, shared by every loop over the name and
   every read of it (so a [call]ed subroutine sees its caller's loop
   variables); [bound] while a loop over it runs, else reads fall back to
   the parameter of that name. *)
type ivar = { mutable v : int; mutable bound : bool }

(* One slot per scalar name; [set] once declared or assigned, else reads
   fall back to the integer name. The value sits in an all-float record,
   so writes do not allocate. *)
type cell = { mutable f : float }
type scalar = { c : cell; mutable set : bool }

type state = {
  env : Sema.env;
  params : (string, int) Hashtbl.t;
  arrays : (string, arr) Hashtbl.t;
  scalars : (string, scalar) Hashtbl.t;
  ivars : (string, ivar) Hashtbl.t;
  subs : (string, unit -> unit) Hashtbl.t;  (** bodies staged on first call *)
  mutable flops : int;
}

let slot tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None -> let s = make () in Hashtbl.replace tbl name s; s

let tick st = st.flops <- st.flops + 1
let ivar st n = slot st.ivars n (fun () -> { v = 0; bound = false })
let scalar st n = slot st.scalars n (fun () -> { c = { f = 0.0 }; set = false })

let rec stage_i st (e : Ast.iexpr) : unit -> int =
  match e with
  | INum k -> fun () -> k
  | IName s -> (
      let iv = ivar st s in
      match Hashtbl.find_opt st.params s with
      | Some p -> fun () -> if iv.bound then iv.v else p
      | None -> fun () -> if iv.bound then iv.v else errf "unbound integer name %s" s)
  | IAdd (a, INum k) -> let a = stage_i st a in fun () -> a () + k
  | ISub (a, INum k) -> let a = stage_i st a in fun () -> a () - k
  | IAdd (a, b) -> let a = stage_i st a and b = stage_i st b in fun () -> a () + b ()
  | ISub (a, b) -> let a = stage_i st a and b = stage_i st b in fun () -> a () - b ()
  | IMul (a, b) -> let a = stage_i st a and b = stage_i st b in fun () -> a () * b ()
  | IDiv (a, b) ->
      let a = stage_i st a and b = stage_i st b in
      fun () -> Iset.Lin.fdiv (a ()) (b ())
  | INeg a -> let a = stage_i st a in fun () -> -a ()
  | ICall ("number_of_processors", []) -> fun () -> 1
  | ICall (f, _) -> fun () -> errf "unknown integer intrinsic %s" f

let eval_iexpr st e = stage_i st e ()

let alloc_array st (ai : Sema.array_info) =
  let bounds = List.map (fun (lo, hi) -> (eval_iexpr st lo, eval_iexpr st hi)) ai.adims in
  let lo = Array.of_list (List.map fst bounds) and hi = Array.of_list (List.map snd bounds) in
  let extents = Array.map2 (fun l h -> h - l + 1) lo hi in
  Array.iter (fun e -> if e <= 0 then errf "array %s has empty extent" ai.aname) extents;
  (* column-major strides, as in Fortran *)
  let strides = Array.make (Array.length lo) 1 in
  for d = 1 to Array.length lo - 1 do
    strides.(d) <- strides.(d - 1) * extents.(d - 1)
  done;
  let base = Array.fold_left ( + ) 0 (Array.map2 ( * ) lo strides) in
  { lo; hi; strides; base; data = Array.make (Array.fold_left ( * ) 1 extents) 0.0 }

let check a d x =
  if x < a.lo.(d) || x > a.hi.(d) then
    errf "index %d out of bounds [%d,%d] in dimension %d" x a.lo.(d) a.hi.(d) (d + 1)

let offset a idx =
  let off = ref (-a.base) in
  List.iteri (fun d x -> check a d x; off := !off + (x * a.strides.(d))) idx;
  !off

(* Subscripts are all evaluated, left to right, before any is checked. *)
let stage_offset st a idx =
  let idx = Array.of_list (List.map (stage_i st) idx) in
  let n = Array.length idx in
  let xs = Array.make n 0 in
  fun () ->
    for d = 0 to n - 1 do xs.(d) <- idx.(d) () done;
    let off = ref (-a.base) in
    for d = 0 to n - 1 do check a d xs.(d); off := !off + (xs.(d) * a.strides.(d)) done;
    !off

(* The intrinsics: names and arities resolve here, once, to a constructor
   that every engine matches on. *)
type unop = Abs | Sqrt | Exp | Log | Sin | Cos | Float
type binop = Max | Min | Mod | Sign
type intrin = Unary of unop | Binary of binop

let intrinsic_op name arity =
  match (name, arity) with
  | "abs", 1 -> Some (Unary Abs) | "sqrt", 1 -> Some (Unary Sqrt)
  | "exp", 1 -> Some (Unary Exp) | "log", 1 -> Some (Unary Log)
  | "sin", 1 -> Some (Unary Sin) | "cos", 1 -> Some (Unary Cos)
  | "float", 1 -> Some (Unary Float)
  | "max", 2 -> Some (Binary Max) | "min", 2 -> Some (Binary Min)
  | "mod", 2 -> Some (Binary Mod) | "sign", 2 -> Some (Binary Sign)
  | _ -> None

let unary = function
  | Abs -> Float.abs | Sqrt -> sqrt | Exp -> exp | Log -> log | Sin -> sin
  | Cos -> cos | Float -> Fun.id

let binary = function
  | Max -> Float.max | Min -> Float.min | Mod -> Float.rem
  | Sign -> fun a b -> if b >= 0.0 then Float.abs a else -.Float.abs a

let intrinsic name args =
  match (intrinsic_op name (List.length args), args) with
  | Some (Unary f), [ x ] -> unary f x
  | Some (Binary f), [ a; b ] -> binary f a b
  | _ -> errf "unknown intrinsic %s/%d" name (List.length args)

let rec stage_f st (e : Ast.fexpr) : unit -> float =
  match e with
  | FNum x -> fun () -> x
  | FInt ie -> let i = stage_i st ie in fun () -> float_of_int (i ())
  | FRef (n, []) ->
      let sc = scalar st n in
      let c = sc.c in
      if sc.set then fun () -> c.f
      else
        (* an integer loop variable or parameter used in float context *)
        let i = stage_i st (IName n) in
        fun () -> if sc.set then c.f else float_of_int (i ())
  | FRef (n, idx) -> (
      match Hashtbl.find_opt st.arrays n with
      | None -> fun () -> errf "unknown array %s" n
      | Some a ->
          let off = stage_offset st a idx and data = a.data in
          fun () -> tick st; data.(off ()))
  | FNeg a -> let a = stage_f st a in fun () -> -.a ()
  | FBin (op, a, b) ->
      let a = stage_f st a and b = stage_f st b in
      fun () ->
        let x = a () in
        let y = b () in
        tick st;
        (match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y | Div -> x /. y)
  | FCall (f, args) -> (
      let args = List.map (stage_f st) args in
      match (intrinsic_op f (List.length args), args) with
      | Some (Unary g), [ a ] -> let g = unary g in fun () -> tick st; g (a ())
      | Some (Binary g), [ a; b ] ->
          let g = binary g in
          fun () -> tick st; let x = a () in g x (b ())
      | _ -> fun () -> tick st; intrinsic f (List.map (fun a -> a ()) args))

let rec stage_c st (c : Ast.cond) : unit -> bool =
  match c with
  | CCmp (a, op, b) -> (
      let a = stage_f st a and b = stage_f st b in
      fun () ->
        let x = a () in
        let y = b () in
        match op with
        | Lt -> x < y | Le -> x <= y | Gt -> x > y
        | Ge -> x >= y | Eq -> x = y | Ne -> x <> y)
  | CAnd (a, b) -> let a = stage_c st a and b = stage_c st b in fun () -> a () && b ()
  | COr (a, b) -> let a = stage_c st a and b = stage_c st b in fun () -> a () || b ()
  | CNot a -> let a = stage_c st a in fun () -> not (a ())

let rec stage_s st (s : Ast.stmt) : unit -> unit =
  match s with
  | SAssign { lhs = name, []; rhs; _ } ->
      let rhs = stage_f st rhs and sc = scalar st name in
      fun () -> let v = rhs () in tick st; sc.c.f <- v; sc.set <- true
  | SAssign { lhs = name, idx; rhs; _ } -> (
      let rhs = stage_f st rhs in
      match Hashtbl.find_opt st.arrays name with
      | None -> fun () -> ignore (rhs ()); errf "unknown array %s" name
      | Some a ->
          let off = stage_offset st a idx and data = a.data in
          fun () -> let v = rhs () in tick st; data.(off ()) <- v)
  | SDo { var; lo; hi; step; body } ->
      let iv = ivar st var and lo = stage_i st lo and hi = stage_i st hi in
      let body = stage_block st body in
      fun () ->
        let l = lo () in
        let h = hi () in
        let i = ref l in
        while !i <= h do
          iv.v <- !i; iv.bound <- true;
          body (); tick st;
          i := !i + step
        done;
        iv.bound <- false
  | SIf { cond; then_; else_ } ->
      let cond = stage_c st cond in
      let then_ = stage_block st then_ and else_ = stage_block st else_ in
      fun () -> tick st; if cond () then then_ () else else_ ()
  | SCall (f, _) -> fun () -> (subroutine st f) ()

and stage_block st = function
  | [] -> fun () -> ()
  | [ s ] -> stage_s st s
  | s :: rest ->
      let s = stage_s st s and rest = stage_block st rest in
      fun () -> s (); rest ()

and subroutine st f =
  slot st.subs f (fun () ->
      match Hashtbl.find_opt st.env.Sema.subroutines f with
      | Some u -> stage_block st u.body
      | None -> fun () -> errf "unknown subroutine %s" f)

type result = {
  r_time : float;  (** modeled serial execution time *)
  r_flops : int;
  r_state : state;
}

(** Execute a checked program serially. [params] binds symbolic program
    parameters. *)
let run ?(machine = Machine.default) ?(params = []) (chk : Sema.checked) : result =
  let tbl () = Hashtbl.create 16 in
  let st = { env = chk.env; params = tbl (); arrays = tbl (); scalars = tbl ();
             ivars = tbl (); subs = tbl (); flops = 0 } in
  Hashtbl.iter (fun name v -> Option.iter (Hashtbl.replace st.params name) v) chk.env.Sema.params;
  List.iter (fun (n, v) -> Hashtbl.replace st.params n v) params;
  Hashtbl.iter (fun n ai -> Hashtbl.replace st.arrays n (alloc_array st ai)) chk.env.Sema.arrays;
  Hashtbl.iter (fun name _ -> (scalar st name).set <- true) chk.env.Sema.scalars;
  stage_block st (Ast.main_unit chk.prog).body ();
  { r_time = float_of_int st.flops *. machine.Machine.flop_time; r_flops = st.flops; r_state = st }

(** Read back a value (testing). *)
let get_elem (r : result) name idx =
  match Hashtbl.find_opt r.r_state.arrays name with
  | Some a -> a.data.(offset a idx)
  | None -> errf "unknown array %s" name

let get_scalar (r : result) name =
  match Hashtbl.find r.r_state.scalars name with
  | { c; set = true } -> c.f
  | _ -> raise Not_found
