(* Imperative kernel IR: the one lowering of the SPMD IR, shared by the
   closure engine ({!Compile}) and the native engine ({!Emit}).

   [lower] flattens an [Spmd] program into loops over integer ranges,
   float-slot loads/stores into the dense owned-section arrays of
   {!Compile}, pack/unpack of communication buffers, and explicit
   send/recv/reduce operations priced by {!Machine}. All name resolution
   happens here, once: integer names become [r_int] slots, replicated
   scalars become [r_fval] slots, arrays become store ids, global
   parameters fold into constants, and machine costs become literals
   attached to the nodes that charge them. {!Compile} turns the result
   into closures; {!Emit} prints it as a standalone OCaml program. Both
   index the per-processor arrays {!Compile.make_with} sizes from the
   kernel's slot counts.

   Slots are allocated in a fixed order: [m$k], [vm$k], declared scalars,
   assigned scalars, then the main program and the subroutines in
   declaration order (the latest body of a duplicated name, at its first
   occurrence).

   Lowering also runs an interval analysis ({!Iset.Codegen.interval_of_expr})
   over every subscript: a dimension whose index provably stays inside the
   array's declared bounds is marked [da_proven], licensing an unchecked
   access in both engines. Proofs never change observable behavior — they
   only remove comparisons that cannot fire. A loop variable's interval
   therefore ends wherever its shared slot may be rewritten: after an
   inner loop over the same name, after a call into a subroutine that
   loops over it, and, for the names a loop body rewrites anywhere,
   throughout that body. *)

open Dhpf

let errf = Runtime.errf

(* ------------------------------------------------------------------ *)
(* IR                                                                  *)
(* ------------------------------------------------------------------ *)

(** Integer expressions, constant-folded, over [r_int] slots. *)
type iexpr =
  | IConst of int
  | ISlot of int * string  (* slot, source name (for readability) *)
  | IUnbound of string  (* unbound name: errors when evaluated *)
  | IAdd of iexpr * iexpr
  | ISub of iexpr * iexpr
  | IMul of int * iexpr
  | IFloorDiv of iexpr * int
  | ICeilDiv of iexpr * int
  | IMax of iexpr list
  | IMin of iexpr list
  | IAlignUp of iexpr * iexpr * iexpr

type icond =
  | BConst of bool
  | BGeq0 of iexpr
  | BEq0 of iexpr
  | BDivides of int * iexpr
  | BAnd of icond list
  | BOr of icond list
  | BNot of icond

type dim_access = {
  da_idx : iexpr;
  da_lo : int;  (* declared lower bound of the dimension *)
  da_ext : int;  (* extent *)
  da_stride : int;  (* global linear (column-major) stride *)
  da_proven : bool;  (* interval analysis proved lo <= idx <= hi *)
}

type access_plan = {
  ap_aid : int;
  ap_arr : string;
  ap_am : Runtime.ameta;
  ap_dims : dim_access array;
}

(** Fallback of a scalar read whose slot is uninitialized (or absent). *)
type ffall = FbSlot of int * string | FbConst of float | FbUnbound of string

type kfexpr =
  | KFConst of float
  | KFOfInt of iexpr
  | KFScalar of { slot : int option; fallback : ffall }
  | KFLoad of {
      ap : access_plan;
      aname : string;  (* access mode name, for the miss error *)
      checked : bool;
      flop : float;
      check : float;
    }
  | KFNeg of kfexpr
  | KFBin of { op : Hpf.Ast.fbinop; a : kfexpr; b : kfexpr; flop : float }
  | KFIntrin of { name : string; args : kfexpr list; flop : float }

type kfcond =
  | KFCmp of Hpf.Ast.cmpop * kfexpr * kfexpr
  | KFAnd of kfcond * kfcond
  | KFOr of kfcond * kfcond
  | KFNot of kfcond

type kstmt =
  | KFor of {
      slot : int;
      var : string;
      lo : iexpr;
      hi : iexpr;
      step : iexpr;
      body : kstmt list;
      loopt : float;
    }
  | KIf of { cond : icond; body : kstmt list; guard : float }
  | KFIf of { cond : kfcond; then_ : kstmt list; else_ : kstmt list; guard : float }
  | KSetScalar of { slot : int; value : kfexpr; flop : float }
  | KStore of {
      ap : access_plan;
      value : kfexpr;
      access : Spmd.access;
      flop : float;
      check : float;
    }
  | KPack of { event : int; arr : string; ap : access_plan }
  | KSend of { event : int; dest : iexpr list; inplace : bool; rect : bool }
  | KRecv of { event : int; src : iexpr list; recv_o : float; unpack : float }
  | KReduceArr of { name : string; op : Spmd.reduce_op }
  | KReduceScalar of { slot : int; op : Spmd.reduce_op }
  | KCall of string
  | KUnknownSub of string  (* Call to an undefined subroutine: runtime error *)

type kernel = {
  k_main : kstmt list;
  k_subs : (string * kstmt list) list;  (* declaration order *)
  k_nint : int;
  k_nfloat : int;
  k_m_slots : int array;  (* slot of m$k per processor dimension *)
  k_vm_slots : int array;  (* slot of vm$k *)
  k_islots : (string * int) list;  (* every slot by name, sorted *)
  k_fslots : (string * int) list;
  k_proven : int;  (* subscript dimensions proved in-bounds *)
  k_unproven : int;  (* subscript dimensions that keep the runtime check *)
}

(* ------------------------------------------------------------------ *)
(* Lowering context                                                    *)
(* ------------------------------------------------------------------ *)

type lctx = {
  l_genv : (string, int) Hashtbl.t;
  l_machine : Machine.t;
  l_islots : (string, int) Hashtbl.t;
  mutable l_nint : int;
  l_fslots : (string, int) Hashtbl.t;
  mutable l_nfloat : int;
  l_arrays : (string, int) Hashtbl.t;
  l_ameta : Runtime.ameta array;
  l_inplace : (int, unit) Hashtbl.t;
  l_rect : (int, unit) Hashtbl.t;
  l_ranges : (string, Iset.Codegen.interval) Hashtbl.t;
      (* interval bindings for enclosing loop variables and m$k *)
  l_subs : (string, Spmd.stmt list) Hashtbl.t;  (* latest body by name *)
  mutable l_proven : int;
  mutable l_unproven : int;
}

let islot ctx name =
  match Hashtbl.find_opt ctx.l_islots name with
  | Some s -> s
  | None ->
      let s = ctx.l_nint in
      ctx.l_nint <- s + 1;
      Hashtbl.replace ctx.l_islots name s;
      s

let fslot ctx name =
  match Hashtbl.find_opt ctx.l_fslots name with
  | Some s -> s
  | None ->
      let s = ctx.l_nfloat in
      ctx.l_nfloat <- s + 1;
      Hashtbl.replace ctx.l_fslots name s;
      s

(* interval environment: loop-bound names first; a name holding an integer
   slot but not currently loop-bound is dynamic (top); otherwise a global
   parameter is a constant; unknown names are unbounded *)
let ienv ctx s =
  match Hashtbl.find_opt ctx.l_ranges s with
  | Some iv -> iv
  | None ->
      if Hashtbl.mem ctx.l_islots s then Iset.Codegen.itv_top
      else (
        match Hashtbl.find_opt ctx.l_genv s with
        | Some v -> Iset.Codegen.itv_const v
        | None -> Iset.Codegen.itv_top)

let interval ctx e = Iset.Codegen.interval_of_expr (ienv ctx) e

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Slots win over globals; sub-expressions over constants fold. Integer
   evaluation is pure (no clock charges), so folding cannot affect
   observable behavior. *)
let rec lexpr ctx (e : Spmd.expr) : iexpr =
  let open Iset.Codegen in
  match e with
  | EInt k -> IConst k
  | EVar s -> (
      match Hashtbl.find_opt ctx.l_islots s with
      | Some slot -> ISlot (slot, s)
      | None -> (
          match Hashtbl.find_opt ctx.l_genv s with
          | Some v -> IConst v
          | None -> IUnbound s))
  | EAdd (a, b) -> (
      match (lexpr ctx a, lexpr ctx b) with
      | IConst x, IConst y -> IConst (x + y)
      | a, b -> IAdd (a, b))
  | ESub (a, b) -> (
      match (lexpr ctx a, lexpr ctx b) with
      | IConst x, IConst y -> IConst (x - y)
      | a, b -> ISub (a, b))
  | EMul (k, a) -> (
      match lexpr ctx a with IConst x -> IConst (k * x) | a -> IMul (k, a))
  | EFloorDiv (a, k) -> (
      match lexpr ctx a with
      | IConst x -> IConst (Iset.Lin.fdiv x k)
      | a -> IFloorDiv (a, k))
  | ECeilDiv (a, k) -> (
      match lexpr ctx a with
      | IConst x -> IConst (Iset.Lin.cdiv x k)
      | a -> ICeilDiv (a, k))
  | EMax es ->
      let ls = List.map (lexpr ctx) es in
      if List.for_all (function IConst _ -> true | _ -> false) ls then
        IConst
          (List.fold_left
             (fun m l -> match l with IConst k -> max m k | _ -> m)
             min_int ls)
      else IMax ls
  | EMin es ->
      let ls = List.map (lexpr ctx) es in
      if List.for_all (function IConst _ -> true | _ -> false) ls then
        IConst
          (List.fold_left
             (fun m l -> match l with IConst k -> min m k | _ -> m)
             max_int ls)
      else IMin ls
  | EAlignUp (e, target, k) -> (
      match (lexpr ctx e, lexpr ctx target, lexpr ctx k) with
      | IConst x, IConst t, IConst k -> IConst (x + Iset.Lin.pmod (t - x) k)
      | le, lt, lk -> IAlignUp (le, lt, lk))

let rec lcond ctx (c : Spmd.cond) : icond =
  let open Iset.Codegen in
  match c with
  | CTrue -> BConst true
  | CGeq0 e -> (
      match lexpr ctx e with IConst k -> BConst (k >= 0) | l -> BGeq0 l)
  | CEq0 e -> (match lexpr ctx e with IConst k -> BConst (k = 0) | l -> BEq0 l)
  | CDivides (k, e) -> (
      match lexpr ctx e with
      | IConst x -> BConst (Iset.Lin.pmod x k = 0)
      | l -> BDivides (k, l))
  | CAnd cs -> BAnd (List.map (lcond ctx) cs)
  | COr cs -> BOr (List.map (lcond ctx) cs)
  | CNot c -> BNot (lcond ctx c)

(* ------------------------------------------------------------------ *)
(* Access plans                                                        *)
(* ------------------------------------------------------------------ *)

let laccess ctx arr (idx : Spmd.expr list) : access_plan =
  let aid =
    match Hashtbl.find_opt ctx.l_arrays arr with
    | Some a -> a
    | None -> errf "unknown array %s" arr
  in
  let am = ctx.l_ameta.(aid) in
  let nd = Array.length am.Runtime.am_ext in
  if List.length idx <> nd then
    errf "array %s: %d subscripts for rank %d" am.Runtime.am_name
      (List.length idx) nd;
  let dims =
    Array.of_list
      (List.mapi
         (fun d e ->
           let lo = fst am.Runtime.am_bounds.(d) in
           let ext = am.Runtime.am_ext.(d) in
           let proven =
             Iset.Codegen.itv_within (interval ctx e) ~lo ~hi:(lo + ext - 1)
           in
           if proven then ctx.l_proven <- ctx.l_proven + 1
           else ctx.l_unproven <- ctx.l_unproven + 1;
           {
             da_idx = lexpr ctx e;
             da_lo = lo;
             da_ext = ext;
             da_stride = am.Runtime.am_strides.(d);
             da_proven = proven;
           })
         idx)
  in
  { ap_aid = aid; ap_arr = arr; ap_am = am; ap_dims = dims }

(* ------------------------------------------------------------------ *)
(* Float expressions                                                   *)
(* ------------------------------------------------------------------ *)

let access_name = function
  | Spmd.Local -> "Local"
  | Spmd.Overlay -> "Overlay"
  | Spmd.Checked -> "Checked"
  | Spmd.Global -> "Global"

let rec lfexpr ctx (e : Spmd.fexpr) : kfexpr =
  let m = ctx.l_machine in
  match e with
  | Spmd.FConst x -> KFConst x
  | Spmd.FOfInt ie -> (
      match lexpr ctx ie with
      | IConst k -> KFConst (float_of_int k)
      | l -> KFOfInt l)
  | Spmd.FScalar s ->
      let fallback =
        match Hashtbl.find_opt ctx.l_islots s with
        | Some slot -> FbSlot (slot, s)
        | None -> (
            match Hashtbl.find_opt ctx.l_genv s with
            | Some v -> FbConst (float_of_int v)
            | None -> FbUnbound s)
      in
      KFScalar { slot = Hashtbl.find_opt ctx.l_fslots s; fallback }
  | Spmd.FLoad { arr; idx; access } ->
      KFLoad
        {
          ap = laccess ctx arr idx;
          aname = access_name access;
          checked = access = Spmd.Checked;
          flop = m.Machine.flop_time;
          check = m.Machine.check_time;
        }
  | Spmd.FNeg a -> KFNeg (lfexpr ctx a)
  | Spmd.FBin (op, a, b) ->
      KFBin { op; a = lfexpr ctx a; b = lfexpr ctx b; flop = m.Machine.flop_time }
  | Spmd.FIntrin (f, args) ->
      KFIntrin
        { name = f; args = List.map (lfexpr ctx) args; flop = m.Machine.flop_time }

let rec lfcond ctx (c : Spmd.fcond) : kfcond =
  match c with
  | Spmd.FCmp (a, op, b) -> KFCmp (op, lfexpr ctx a, lfexpr ctx b)
  | Spmd.FAnd (a, b) -> KFAnd (lfcond ctx a, lfcond ctx b)
  | Spmd.FOr (a, b) -> KFOr (lfcond ctx a, lfcond ctx b)
  | Spmd.FNot a -> KFNot (lfcond ctx a)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* The names whose shared integer slots running [body] may rewrite: the
   variables of its loops and of the loops of every subroutine it calls,
   transitively (only loops write integer slots). *)
let clobbers ctx body =
  let seen = Hashtbl.create 8 and acc = ref [] in
  let rec walk body =
    Spmd.iter_stmts
      (function
        | Spmd.For { var; _ } -> acc := var :: !acc
        | Spmd.Call f when not (Hashtbl.mem seen f) ->
            Hashtbl.replace seen f ();
            walk (Option.value ~default:[] (Hashtbl.find_opt ctx.l_subs f))
        | _ -> ())
      body
  in
  walk body;
  !acc

let rec lstmt ctx (s : Spmd.stmt) : kstmt list =
  let m = ctx.l_machine in
  match s with
  | Spmd.Comment _ -> []
  | Spmd.For { var; lo; hi; step; body = sbody } ->
      (* bounds and step are lowered before the loop variable's slot is
         (possibly) allocated *)
      let llo = lexpr ctx lo and lhi = lexpr ctx hi in
      let lst = lexpr ctx step in
      let slot = islot ctx var in
      (* bind the variable's interval for the body: each iteration writes
         the counter, which lies between the lower bound's minimum and the
         upper bound's maximum (bounds are evaluated once, steps are
         positive at runtime). Other names the body clobbers are unknown in
         all of it: a later iteration reads them after the clobber. *)
      let ivlo = interval ctx lo and ivhi = interval ctx hi in
      List.iter
        (fun v -> if v <> var then Hashtbl.remove ctx.l_ranges v)
        (clobbers ctx sbody);
      Hashtbl.replace ctx.l_ranges var
        { Iset.Codegen.ilo = ivlo.Iset.Codegen.ilo; ihi = ivhi.Iset.Codegen.ihi };
      let body = lstmts ctx sbody in
      (* the slot keeps the last counter, not an enclosing loop's value *)
      Hashtbl.remove ctx.l_ranges var;
      [
        KFor
          { slot; var; lo = llo; hi = lhi; step = lst; body; loopt = m.Machine.loop_time };
      ]
  | Spmd.If (c, body) ->
      let cond = lcond ctx c in
      [ KIf { cond; body = lstmts ctx body; guard = m.Machine.guard_time } ]
  | Spmd.FIf (c, t, e) ->
      let cond = lfcond ctx c in
      [
        KFIf
          {
            cond;
            then_ = lstmts ctx t;
            else_ = lstmts ctx e;
            guard = m.Machine.guard_time;
          };
      ]
  | Spmd.SetScalar (name, v) ->
      let value = lfexpr ctx v in
      let slot = fslot ctx name in
      [ KSetScalar { slot; value; flop = m.Machine.flop_time } ]
  | Spmd.Store { arr; idx; value; access } ->
      let ap = laccess ctx arr idx in
      let value = lfexpr ctx value in
      [
        KStore
          { ap; value; access; flop = m.Machine.flop_time; check = m.Machine.check_time };
      ]
  | Spmd.Pack { event; arr; idx } ->
      [ KPack { event; arr; ap = laccess ctx arr idx } ]
  | Spmd.Send { event; dest } ->
      [
        KSend
          {
            event;
            dest = List.map (lexpr ctx) dest;
            inplace = Hashtbl.mem ctx.l_inplace event;
            rect = Hashtbl.mem ctx.l_rect event;
          };
      ]
  | Spmd.Recv { event; src } ->
      [
        KRecv
          {
            event;
            src = List.map (lexpr ctx) src;
            recv_o = m.Machine.recv_overhead;
            unpack = m.Machine.unpack_time;
          };
      ]
  | Spmd.Reduce { scalar; op } ->
      if Hashtbl.mem ctx.l_arrays scalar then [ KReduceArr { name = scalar; op } ]
      else
        let slot = fslot ctx scalar in
        [ KReduceScalar { slot; op } ]
  | Spmd.Call f ->
      List.iter (Hashtbl.remove ctx.l_ranges) (clobbers ctx [ s ]);
      if Hashtbl.mem ctx.l_subs f then [ KCall f ] else [ KUnknownSub f ]

and lstmts ctx body = List.concat_map (lstmt ctx) body

(* ------------------------------------------------------------------ *)
(* Whole-program lowering                                              *)
(* ------------------------------------------------------------------ *)

let lower ?(machine = Machine.default) ~genv ~extents ~arrays ~ameta
    (prog : Spmd.program) : kernel =
  let inplace = Hashtbl.create 8 and rect = Hashtbl.create 8 in
  List.iter
    (fun (e : Spmd.event_info) ->
      if e.Spmd.ev_inplace then Hashtbl.replace inplace e.Spmd.ev_id ();
      if e.Spmd.ev_rect then Hashtbl.replace rect e.Spmd.ev_id ())
    prog.Spmd.events;
  (* one body per subroutine *name*: a duplicate definition replaces the
     earlier one, lowered at the first occurrence of the name *)
  let latest = Hashtbl.create 8 in
  List.iter (fun (name, body) -> Hashtbl.replace latest name body) prog.Spmd.subs;
  let ctx =
    {
      l_genv = genv;
      l_machine = machine;
      l_islots = Hashtbl.create 32;
      l_nint = 0;
      l_fslots = Hashtbl.create 16;
      l_nfloat = 0;
      l_arrays = arrays;
      l_ameta = ameta;
      l_inplace = inplace;
      l_rect = rect;
      l_ranges = Hashtbl.create 16;
      l_subs = latest;
      l_proven = 0;
      l_unproven = 0;
    }
  in
  (* pre-allocate coordinate and scalar slots so every lowered reference
     resolves to the same cell the startup code fills *)
  let ndim = List.length prog.Spmd.proc_dims in
  let m_slots =
    Array.init ndim (fun k -> islot ctx (Printf.sprintf "m$%d" (k + 1)))
  in
  let vm_slots =
    Array.init ndim (fun k -> islot ctx (Printf.sprintf "vm$%d" (k + 1)))
  in
  List.iter (fun s -> ignore (fslot ctx s)) prog.Spmd.scalars;
  List.iter
    (fun s -> if not (Hashtbl.mem arrays s) then ignore (fslot ctx s))
    (Spmd.assigned_scalars prog);
  (* the processor's own grid coordinates are fixed for a whole run,
     unless a loop the program runs writes them *)
  let looped = clobbers ctx prog.Spmd.main in
  Array.iteri
    (fun k _ ->
      let name = Printf.sprintf "m$%d" (k + 1) in
      if not (List.mem name looped) then
        Hashtbl.replace ctx.l_ranges name
          (Iset.Codegen.itv ~lo:0 ~hi:(extents.(k) - 1) ()))
    m_slots;
  let base_ranges = Hashtbl.copy ctx.l_ranges in
  let k_main = lstmts ctx prog.Spmd.main in
  let emitted = Hashtbl.create 8 in
  let k_subs =
    List.filter_map
      (fun (name, _) ->
        if Hashtbl.mem emitted name then None
        else begin
          Hashtbl.replace emitted name ();
          (* subroutines are lowered outside any loop context: only the base
             (grid-coordinate) interval bindings apply *)
          Hashtbl.reset ctx.l_ranges;
          Hashtbl.iter (Hashtbl.replace ctx.l_ranges) base_ranges;
          Some (name, lstmts ctx (Hashtbl.find latest name))
        end)
      prog.Spmd.subs
  in
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  {
    k_main;
    k_subs;
    k_nint = ctx.l_nint;
    k_nfloat = ctx.l_nfloat;
    k_m_slots = m_slots;
    k_vm_slots = vm_slots;
    k_islots = sorted ctx.l_islots;
    k_fslots = sorted ctx.l_fslots;
    k_proven = ctx.l_proven;
    k_unproven = ctx.l_unproven;
  }
