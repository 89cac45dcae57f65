(** Reference (serial) interpreter for mini-HPF programs.

    Executes the source AST directly on dense arrays, ignoring the HPF
    directives, and accounts time with the computation part of the
    {!Machine} cost model. It is both the T(1) baseline of the Figure 7
    speedups and the correctness oracle the test suite compares compiled
    SPMD executions against.

    Each {!run} is staged: names are resolved to slots (one per
    loop-variable name, so [call]ed subroutines see their caller's loop
    variables; one per scalar; one bounds-and-strides record per array)
    and every expression and statement becomes a closure, before anything
    executes. Staging never raises: each error is raised when the code
    that meets it runs, with the same text as a direct tree-walk would
    give. Flop counts and order, hence [r_flops], [r_time] and every
    element, are those of the source program executed in order.

    The oracle shares no lowering with the engines it checks ({!Compile},
    {!Exec}): a bug in a shared closure builder would agree with itself.
    The intrinsic table ({!intrinsic_op}, {!intrinsic}) is the one piece
    they take from here. *)

exception Error of string

type state

val eval_iexpr : state -> Hpf.Ast.iexpr -> int
(** Evaluate an integer expression against a finished run's parameters
    (e.g. array bounds). *)

type unop = Abs | Sqrt | Exp | Log | Sin | Cos | Float
type binop = Max | Min | Mod | Sign
type intrin = Unary of unop | Binary of binop

val intrinsic_op : string -> int -> intrin option
(** The floating-point intrinsic of a name and arity (abs, sqrt, exp, log,
    sin, cos, float; max, min, mod, sign), or [None]. The one table of
    intrinsic names: the engines that inline intrinsics match on its
    constructors. *)

val intrinsic : string -> float list -> float
(** Apply the intrinsic of a name to its arguments.
    @raise Error on an unknown name or arity. *)

type result = {
  r_time : float;  (** modeled serial execution time *)
  r_flops : int;
  r_state : state;
}

val run :
  ?machine:Machine.t -> ?params:(string * int) list -> Hpf.Sema.checked -> result
(** Execute a checked program; [params] binds symbolic program parameters.
    @raise Error on a runtime fault (bounds, unbound name, unknown array,
    subroutine or intrinsic). *)

val get_elem : result -> string -> int list -> float
(** One element, bounds-checked, in O(rank). @raise Error. *)

val get_scalar : result -> string -> float
(** @raise Not_found for a name that is not a declared or assigned scalar. *)
