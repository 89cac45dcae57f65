(* Closure-generating SPMD execution engine (the default behind
   [Exec.make ~engine:`Closure]).

   The interpreter in {!Exec} re-matches the [Spmd] AST and resolves every
   name through [Hashtbl.find_opt] on every loop iteration, and keeps every
   array element in a per-processor [(int, float) Hashtbl.t]. This engine
   removes both costs:

   - the program is lowered once, by {!Imp.lower} — the one SPMD lowering,
     shared with the native engine — which resolves integer names to slots
     of an [int array], replicated scalars to slots of a [float array] and
     arrays to store ids, folds global parameters into constants and proves
     subscripts in bounds; this module then turns each [Imp] node into an
     OCaml closure over a small per-processor state record;
   - each processor's owned section of a distributed array is a dense
     [float array] block, addressed through per-dimension ownership tables
     built at setup from the layout descriptors — exact for block, cyclic
     and block-cyclic distributions under any alignment stride — with a
     small side hashtable only for received non-local (halo) values.

   The generated hot path allocates nothing. The clock lives in a
   float-only cell; an access closure returns the dense slot as an int and
   leaves the global linear index in [r_enc] for the miss path; float
   expressions are evaluated destination-passing into a per-processor
   register file ([r_regs], sized from the kernel's deepest expression);
   [slot + c]
   subscripts are read inline; dimensions [Imp] proved in bounds are not
   checked; intrinsics are resolved when the closures are generated (by
   matching on {!Serial.intrinsic_op}'s constructors); and
   sequences, conjunctions and max/min loop over arrays.

   The transport and scheduler are {!Runtime}'s, shared verbatim with the
   interpreter, and clock charges are issued in exactly the interpreter's
   order, so a closure-engine run produces bit-identical element values,
   clocks and message/byte/retransmit counters (the engine-differential
   property in the test suite asserts this, including under faults).

   Two deliberate semantic notes, both confined to error paths that the
   compiler never emits: a slot read of a loop variable after its loop
   exits sees the final value instead of the interpreter's unbound-name
   error, and arrays named in [Reduce] statements keep the sparse
   (hashtable) representation so the element-wise collective combines
   exactly the elements some processor has written — dense zero-initialized
   blocks could not distinguish "written 0.0" from "never written", which
   would change max/min reductions and the collective's priced element
   count. *)

open Dhpf

let errf = Runtime.errf

(* ------------------------------------------------------------------ *)
(* Per-processor storage                                                *)
(* ------------------------------------------------------------------ *)

type store = {
  st_am : Runtime.ameta;
  st_owned : bool;
      (* false: a FixedCoord layout dimension excludes this processor from
         holding any owned block *)
  st_dense : bool;  (* owned with a non-empty dense block *)
  st_dmaps : int array array;
      (* per data dimension: (x - lo_d) -> local index, or -1 if this
         processor does not own that coordinate *)
  st_lstride : int array;  (* per data dimension: stride into st_data *)
  st_data : float array;  (* dense owned block; [||] if sparse or unowned *)
  st_side : (int, float) Hashtbl.t;
      (* non-local values (received halos), keyed by global linear index;
         for sparse (reduction-target) arrays, all values live here *)
}

let st_sparse st = st.st_data == [||] && st.st_owned

(* decode a global linear index into the dense slot, or -1 if not owned *)
let slot_of_enc (st : store) (enc : int) : int =
  if not st.st_dense then -1
  else begin
    let ext = st.st_am.Runtime.am_ext in
    let nd = Array.length ext in
    let slot = ref 0 and rem = ref enc and ok = ref true in
    for d = 0 to nd - 1 do
      let u = !rem mod ext.(d) in
      rem := !rem / ext.(d);
      let l = st.st_dmaps.(d).(u) in
      if l < 0 then ok := false else slot := !slot + (l * st.st_lstride.(d))
    done;
    if !ok then !slot else -1
  end

let put_enc (st : store) enc v =
  let s = slot_of_enc st enc in
  if s >= 0 then st.st_data.(s) <- v else Hashtbl.replace st.st_side enc v

let get_enc (st : store) enc =
  let s = slot_of_enc st enc in
  if s >= 0 then st.st_data.(s)
  else match Hashtbl.find_opt st.st_side enc with Some v -> v | None -> 0.0

(* does this processor own the element at decoded coordinates? (used on the
   slow paths of sparse arrays, where there is no dense block to consult) *)
let owns_enc (st : store) enc =
  st.st_owned
  &&
  let ext = st.st_am.Runtime.am_ext in
  let nd = Array.length ext in
  let rem = ref enc and ok = ref true in
  for d = 0 to nd - 1 do
    let u = !rem mod ext.(d) in
    rem := !rem / ext.(d);
    if st.st_dmaps.(d).(u) < 0 then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Per-processor runtime state                                          *)
(* ------------------------------------------------------------------ *)

(* all-float record: the field is stored flat, so a clock update is an
   unboxed store *)
type clock = { mutable c : float }

type rt = {
  r_pid : int;
  r_int : int array;  (* integer slots: loop vars, m$k, vm$k; then a 0 *)
  r_fval : float array;  (* replicated-scalar slots *)
  r_fvalid : bool array;
      (* mirrors the interpreter's fenv membership: a slot is readable as a
         scalar only after initialization (declared) or first assignment *)
  r_stores : store array;  (* indexed by array id *)
  r_packbufs : Runtime.packbuf array;  (* indexed by event id *)
  r_clk : clock;
  r_skew : float;
  r_scratch : int array;  (* subscripts of the general access path *)
  r_regs : float array;  (* float expression registers *)
  mutable r_enc : int;  (* global linear index of the last access *)
}

let[@inline] tick rt dt =
  let c = rt.r_clk in
  c.c <- c.c +. (dt *. rt.r_skew)

(* ------------------------------------------------------------------ *)
(* Cold paths                                                           *)
(* ------------------------------------------------------------------ *)

(* Shared with the kernels the native engine emits: generated source
   inlines the hot access sequences but calls back here on a dense miss or
   an illegal access, so halo lookups, sparse-array defaults and failure
   messages stay identical across engines. *)

let bounds_fail (am : Runtime.ameta) d x =
  let lo, hi = am.Runtime.am_bounds.(d) in
  errf "array %s: index %d outside [%d,%d] (dim %d)" am.Runtime.am_name x lo hi
    (d + 1)

(* pretty-print the subscripts of an access for an error message *)
let idx_string (am : Runtime.ameta) enc =
  let nd = Array.length am.Runtime.am_ext in
  let parts = ref [] and rem = ref enc in
  for d = 0 to nd - 1 do
    let u = !rem mod am.Runtime.am_ext.(d) in
    rem := !rem / am.Runtime.am_ext.(d);
    parts := string_of_int (u + fst am.Runtime.am_bounds.(d)) :: !parts
  done;
  String.concat "," (List.rev !parts)

let load_miss (rt : rt) aid ~aname enc =
  let st = rt.r_stores.(aid) in
  match Hashtbl.find_opt st.st_side enc with
  | Some v -> v
  | None ->
      if st_sparse st && owns_enc st enc then 0.0
      else
        errf "proc %d: %s access to non-local %s(%s) with no received value"
          rt.r_pid aname st.st_am.Runtime.am_name (idx_string st.st_am enc)

let pack_miss (rt : rt) aid enc =
  let st = rt.r_stores.(aid) in
  match Hashtbl.find_opt st.st_side enc with
  | Some v -> v
  | None ->
      if st_sparse st && owns_enc st enc then 0.0
      else
        errf "proc %d: packing non-resident element %s(%s)" rt.r_pid
          st.st_am.Runtime.am_name (idx_string st.st_am enc)

let local_store_fail (rt : rt) aid enc =
  let st = rt.r_stores.(aid) in
  errf "proc %d: Local store to non-owned %s(%s)" rt.r_pid
    st.st_am.Runtime.am_name (idx_string st.st_am enc)

let bad_step (rt : rt) var =
  errf "proc %d: non-positive loop step for %s" rt.r_pid var

let unbound_int (rt : rt) name =
  errf "proc %d: unbound integer name %s" rt.r_pid name

let unknown_sub (rt : rt) f = errf "proc %d: unknown subroutine %s" rt.r_pid f

(* ------------------------------------------------------------------ *)
(* Communication and collectives                                        *)
(* ------------------------------------------------------------------ *)

type kctx = {
  k_tr : Runtime.transport;
  k_phys : int list -> int;
  k_arrays : (string, int) Hashtbl.t;
  k_vm_slots : int array;
}

let my_vp ctx (rt : rt) =
  Array.to_list (Array.map (fun s -> rt.r_int.(s)) ctx.k_vm_slots)

let do_send ctx (rt : rt) ~event ~inplace ~rect dest_vp =
  let pl = Runtime.packbuf_flush rt.r_packbufs.(event) in
  Runtime.send ctx.k_tr
    ~tick:(fun dt -> tick rt dt)
    ~get_clock:(fun () -> rt.r_clk.c)
    ~pid:rt.r_pid ~dst_pid:(ctx.k_phys dest_vp) ~event ~src_vp:(my_vp ctx rt)
    ~dst_vp:dest_vp ~inplace ~rect pl

let do_recv ctx (rt : rt) ~event ~recv_o ~unpack src_vp =
  let k = { Runtime.k_event = event; k_src = src_vp; k_dst = my_vp ctx rt } in
  let t0 = rt.r_clk.c in
  let msg = Effect.perform (Runtime.ERecv k) in
  tick rt recv_o;
  rt.r_clk.c <- Float.max rt.r_clk.c msg.Runtime.m_arrival;
  let pl = msg.Runtime.m_payload in
  let n = Array.length pl.Runtime.pl_idx in
  if not msg.Runtime.m_contig then tick rt (float_of_int n *. unpack);
  if n > 0 then begin
    let st =
      match Hashtbl.find_opt ctx.k_arrays pl.Runtime.pl_arr with
      | Some aid -> rt.r_stores.(aid)
      | None -> errf "unknown array %s" pl.Runtime.pl_arr
    in
    for i = 0 to n - 1 do
      put_enc st pl.Runtime.pl_idx.(i) pl.Runtime.pl_val.(i)
    done
  end;
  Runtime.trace_recv ctx.k_tr ~tid:rt.r_pid ~t0 ~t1:rt.r_clk.c k msg

let do_reduce_arr name op = Effect.perform (Runtime.EReduceArr (name, op))

let do_reduce_scalar (rt : rt) slot op =
  let mine = if rt.r_fvalid.(slot) then rt.r_fval.(slot) else 0.0 in
  let combined = Effect.perform (Runtime.EReduce (op, mine)) in
  rt.r_fval.(slot) <- combined;
  rt.r_fvalid.(slot) <- true

(* ------------------------------------------------------------------ *)
(* Closure generation from Imp                                          *)
(* ------------------------------------------------------------------ *)

type cstmt = rt -> unit

(* primitives, not closures over them: type-specialized at each use, so
   float array reads stay unboxed *)
external get : 'a array -> int -> 'a = "%array_unsafe_get"
external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Integer expressions. Every slot index comes from Imp's slot tables,
   below the size of [r_int] by construction. *)

(* [slot + c] forms, read inline by access closures; constants read the
   always-zero slot past Imp's slots *)
let slot_plus ~zero (e : Imp.iexpr) =
  match e with
  | Imp.IConst k -> Some (zero, k)
  | ISlot (s, _) -> Some (s, 0)
  | IAdd (ISlot (s, _), IConst k) | IAdd (IConst k, ISlot (s, _)) -> Some (s, k)
  | ISub (ISlot (s, _), IConst k) -> Some (s, -k)
  | _ -> None

let rec gi (e : Imp.iexpr) : rt -> int =
  match e with
  | Imp.IConst k -> fun _ -> k
  | ISlot (s, _) -> fun rt -> get rt.r_int s
  | IUnbound n -> fun rt -> unbound_int rt n
  | IAdd (ISlot (s, _), IConst k) | IAdd (IConst k, ISlot (s, _)) ->
      fun rt -> get rt.r_int s + k
  | IAdd (a, b) ->
      let a = gi a and b = gi b in
      fun rt -> a rt + b rt
  | ISub (a, b) ->
      let a = gi a and b = gi b in
      fun rt -> a rt - b rt
  | IMul (k, a) ->
      let a = gi a in
      fun rt -> k * a rt
  | IFloorDiv (a, k) ->
      let a = gi a in
      fun rt -> Iset.Lin.fdiv (a rt) k
  | ICeilDiv (a, k) ->
      let a = gi a in
      fun rt -> Iset.Lin.cdiv (a rt) k
  | IMax es ->
      let fs = Array.of_list (List.map gi es) in
      fun rt ->
        let m = ref min_int in
        for i = 0 to Array.length fs - 1 do
          let v = get fs i rt in
          if v > !m then m := v
        done;
        !m
  | IMin es ->
      let fs = Array.of_list (List.map gi es) in
      fun rt ->
        let m = ref max_int in
        for i = 0 to Array.length fs - 1 do
          let v = get fs i rt in
          if v < !m then m := v
        done;
        !m
  | IAlignUp (e, t, k) ->
      let e = gi e and t = gi t and k = gi k in
      fun rt ->
        let x = e rt in
        x + Iset.Lin.pmod (t rt - x) (k rt)

(* conjunctions and disjunctions stop at the first deciding operand *)
let rec gb (c : Imp.icond) : rt -> bool =
  match c with
  | Imp.BConst b -> fun _ -> b
  | BGeq0 e ->
      let e = gi e in
      fun rt -> e rt >= 0
  | BEq0 e ->
      let e = gi e in
      fun rt -> e rt = 0
  | BDivides (k, e) ->
      let e = gi e in
      fun rt -> Iset.Lin.pmod (e rt) k = 0
  | BAnd cs ->
      let fs = Array.of_list (List.map gb cs) in
      let n = Array.length fs in
      fun rt ->
        let i = ref 0 in
        while !i < n && get fs !i rt do incr i done;
        !i = n
  | BOr cs ->
      let fs = Array.of_list (List.map gb cs) in
      let n = Array.length fs in
      fun rt ->
        let i = ref 0 in
        while !i < n && not (get fs !i rt) do incr i done;
        !i < n
  | BNot c ->
      let c = gb c in
      fun rt -> not (c rt)

(* Element addressing. An access closure evaluates the subscripts,
   bounds-checks the dimensions Imp did not prove (in dimension order,
   matching the interpreter's [encode]), stores the global linear index in
   [r_enc] and returns the dense slot, or -1 off the dense block. Ranks 1-3
   with [slot + c] subscripts in proven dimensions — 711 of the 735 access
   sites of the Figure-7 programs — read the subscripts inline; the rest
   (ERLEBACHER's [n - k] subscripts, say) and higher ranks go
   through [r_scratch] (subscripts are integer-only, so an access cannot
   re-enter another mid-computation). Ranks up to 3 evaluate every
   subscript before checking; higher ranks check each as it is evaluated. *)
let gaddr ~zero (ap : Imp.access_plan) : rt -> int =
  let aid = ap.Imp.ap_aid and dims = ap.Imp.ap_dims in
  let nd = Array.length dims in
  let inline =
    Array.map
      (fun (da : Imp.dim_access) ->
        match slot_plus ~zero da.Imp.da_idx with
        | Some (s, k) when da.Imp.da_proven -> Some (s, k - da.Imp.da_lo)
        | _ -> None)
      dims
  in
  match inline with
  | [| Some (s0, c0) |] ->
      fun rt ->
        let u0 = get rt.r_int s0 + c0 in
        rt.r_enc <- u0;
        let st = get rt.r_stores aid in
        if st.st_dense then get (get st.st_dmaps 0) u0 else -1
  | [| Some (s0, c0); Some (s1, c1) |] ->
      let str1 = dims.(1).Imp.da_stride in
      fun rt ->
        let ri = rt.r_int in
        let u0 = get ri s0 + c0 and u1 = get ri s1 + c1 in
        rt.r_enc <- u0 + (u1 * str1);
        let st = get rt.r_stores aid in
        if st.st_dense then
          let dm = st.st_dmaps in
          let l0 = get (get dm 0) u0 and l1 = get (get dm 1) u1 in
          if l0 >= 0 && l1 >= 0 then l0 + (l1 * get st.st_lstride 1) else -1
        else -1
  | [| Some (s0, c0); Some (s1, c1); Some (s2, c2) |] ->
      let str1 = dims.(1).Imp.da_stride and str2 = dims.(2).Imp.da_stride in
      fun rt ->
        let ri = rt.r_int in
        let u0 = get ri s0 + c0 and u1 = get ri s1 + c1 and u2 = get ri s2 + c2 in
        rt.r_enc <- u0 + (u1 * str1) + (u2 * str2);
        let st = get rt.r_stores aid in
        if st.st_dense then
          let dm = st.st_dmaps and ls = st.st_lstride in
          let l0 = get (get dm 0) u0
          and l1 = get (get dm 1) u1
          and l2 = get (get dm 2) u2 in
          if l0 >= 0 && l1 >= 0 && l2 >= 0 then
            l0 + (l1 * get ls 1) + (l2 * get ls 2)
          else -1
        else -1
  | _ ->
      let idx = Array.map (fun (da : Imp.dim_access) -> gi da.Imp.da_idx) dims in
      let check d x =
        let da = get dims d in
        let u = x - da.Imp.da_lo in
        if (not da.Imp.da_proven) && (u < 0 || u >= da.Imp.da_ext) then
          bounds_fail ap.Imp.ap_am d x;
        u
      in
      fun rt ->
        let u = rt.r_scratch in
        if nd <= 3 then begin
          for d = 0 to nd - 1 do set u d (get idx d rt) done;
          for d = 0 to nd - 1 do set u d (check d (get u d)) done
        end
        else for d = 0 to nd - 1 do set u d (check d (get idx d rt)) done;
        let enc = ref 0 in
        for d = 0 to nd - 1 do
          enc := !enc + (get u d * (get dims d).Imp.da_stride)
        done;
        rt.r_enc <- !enc;
        let st = get rt.r_stores aid in
        if st.st_dense then begin
          let s = ref 0 and ok = ref true in
          for d = 0 to nd - 1 do
            let l = get (get st.st_dmaps d) (get u d) in
            if l < 0 then ok := false else s := !s + (l * get st.st_lstride d)
          done;
          if !ok then !s else -1
        end
        else -1

(* Float expressions, destination-passing: the closure for a node at
   register [d] leaves its value in [r_regs.(d)]; a binary node computes
   its left operand into [d] and its right into [d + 1]. Operands run left
   then right and each node charges its flop where the interpreter does
   (FP arithmetic is not associative, so the shape is part of the
   contract). *)
let rec fregs (e : Imp.kfexpr) =
  match e with
  | Imp.KFConst _ | KFOfInt _ | KFScalar _ | KFLoad _ -> 1
  | KFNeg a -> fregs a
  | KFBin { a; b; _ } -> max (fregs a) (1 + fregs b)
  | KFIntrin { args; _ } ->
      List.fold_left max 1 (List.mapi (fun i a -> i + fregs a) args)

let rec cregs (c : Imp.kfcond) =
  match c with
  | Imp.KFCmp (_, a, b) -> max (fregs a) (1 + fregs b)
  | KFAnd (a, b) | KFOr (a, b) -> max (cregs a) (cregs b)
  | KFNot a -> cregs a

(* registers a whole kernel needs: its deepest expression *)
let kernel_regs (k : Imp.kernel) =
  let rec stmt n (s : Imp.kstmt) =
    match s with
    | Imp.KFor { body; _ } | KIf { body; _ } -> List.fold_left stmt n body
    | KFIf { cond; then_; else_; _ } ->
        List.fold_left stmt (List.fold_left stmt (max n (cregs cond)) then_) else_
    | KSetScalar { value; _ } | KStore { value; _ } -> max n (fregs value)
    | KPack _ | KSend _ | KRecv _ | KReduceArr _ | KReduceScalar _ | KCall _
    | KUnknownSub _ ->
        n
  in
  List.fold_left
    (fun n (_, body) -> List.fold_left stmt n body)
    (List.fold_left stmt 1 k.Imp.k_main)
    k.Imp.k_subs

let[@inline] load rt d aid ~aname s =
  let r = rt.r_regs in
  if s >= 0 then set r d (get (get rt.r_stores aid).st_data s)
  else set r d (load_miss rt aid ~aname rt.r_enc)

let rec gf ~zero d (e : Imp.kfexpr) : rt -> unit =
  match e with
  | Imp.KFConst x -> fun rt -> set rt.r_regs d x
  | KFOfInt ie ->
      let i = gi ie in
      fun rt -> set rt.r_regs d (float_of_int (i rt))
  | KFScalar { slot; fallback } -> (
      let fb : rt -> unit =
        match fallback with
        | Imp.FbSlot (s, _) ->
            fun rt -> set rt.r_regs d (float_of_int (get rt.r_int s))
        | FbConst x -> fun rt -> set rt.r_regs d x
        | FbUnbound n -> fun rt -> unbound_int rt n
      in
      match slot with
      | Some s ->
          fun rt ->
            if get rt.r_fvalid s then set rt.r_regs d (get rt.r_fval s) else fb rt
      | None -> fb)
  | KFLoad { ap; aname; checked; flop; check } ->
      let addr = gaddr ~zero ap and aid = ap.Imp.ap_aid in
      if checked then fun rt ->
        tick rt flop;
        let s = addr rt in
        tick rt check;
        load rt d aid ~aname s
      else fun rt ->
        tick rt flop;
        load rt d aid ~aname (addr rt)
  | KFNeg a ->
      let a = gf ~zero d a in
      fun rt ->
        a rt;
        let r = rt.r_regs in
        set r d (-.get r d)
  | KFBin { op; a; b; flop } -> (
      let a = gf ~zero d a and b = gf ~zero (d + 1) b in
      let e = d + 1 in
      match op with
      | Hpf.Ast.Add ->
          fun rt ->
            a rt;
            b rt;
            tick rt flop;
            let r = rt.r_regs in
            set r d (get r d +. get r e)
      | Sub ->
          fun rt ->
            a rt;
            b rt;
            tick rt flop;
            let r = rt.r_regs in
            set r d (get r d -. get r e)
      | Mul ->
          fun rt ->
            a rt;
            b rt;
            tick rt flop;
            let r = rt.r_regs in
            set r d (get r d *. get r e)
      | Div ->
          fun rt ->
            a rt;
            b rt;
            tick rt flop;
            let r = rt.r_regs in
            set r d (get r d /. get r e))
  | KFIntrin { name; args; flop } -> (
      (* the interpreter charges an intrinsic before evaluating its
         arguments *)
      let args = Array.of_list (List.mapi (fun i a -> gf ~zero (d + i) a) args) in
      let e = d + 1 in
      let un f =
        let a = args.(0) in
        fun rt ->
          tick rt flop;
          a rt;
          f rt.r_regs
      in
      let bin f =
        let a = args.(0) and b = args.(1) in
        fun rt ->
          tick rt flop;
          a rt;
          b rt;
          f rt.r_regs
      in
      match Serial.intrinsic_op name (Array.length args) with
      | Some (Unary Abs) -> un (fun r -> set r d (Float.abs (get r d)))
      | Some (Unary Sqrt) -> un (fun r -> set r d (sqrt (get r d)))
      | Some (Unary Exp) -> un (fun r -> set r d (exp (get r d)))
      | Some (Unary Log) -> un (fun r -> set r d (log (get r d)))
      | Some (Unary Sin) -> un (fun r -> set r d (sin (get r d)))
      | Some (Unary Cos) -> un (fun r -> set r d (cos (get r d)))
      | Some (Unary Float) -> un ignore
      | Some (Binary Max) -> bin (fun r -> set r d (Float.max (get r d) (get r e)))
      | Some (Binary Min) -> bin (fun r -> set r d (Float.min (get r d) (get r e)))
      | Some (Binary Mod) -> bin (fun r -> set r d (Float.rem (get r d) (get r e)))
      | Some (Binary Sign) ->
          bin (fun r ->
              let x = Float.abs (get r d) in
              set r d (if get r e >= 0.0 then x else -.x))
      | None ->
          (* unknown name or arity: Serial's error, after the arguments *)
          fun rt ->
            tick rt flop;
            Array.iter (fun a -> a rt) args;
            let vs = List.init (Array.length args) (fun i -> get rt.r_regs (d + i)) in
            set rt.r_regs d (Serial.intrinsic name vs))

let rec gc ~zero d (c : Imp.kfcond) : rt -> bool =
  match c with
  | Imp.KFCmp (op, a, b) -> (
      let a = gf ~zero d a and b = gf ~zero (d + 1) b in
      let e = d + 1 in
      match op with
      | Hpf.Ast.Lt ->
          fun rt ->
            a rt;
            b rt;
            get rt.r_regs d < get rt.r_regs e
      | Le ->
          fun rt ->
            a rt;
            b rt;
            get rt.r_regs d <= get rt.r_regs e
      | Gt ->
          fun rt ->
            a rt;
            b rt;
            get rt.r_regs d > get rt.r_regs e
      | Ge ->
          fun rt ->
            a rt;
            b rt;
            get rt.r_regs d >= get rt.r_regs e
      | Eq ->
          fun rt ->
            a rt;
            b rt;
            get rt.r_regs d = get rt.r_regs e
      | Ne ->
          fun rt ->
            a rt;
            b rt;
            get rt.r_regs d <> get rt.r_regs e)
  | KFAnd (a, b) ->
      let a = gc ~zero d a and b = gc ~zero d b in
      fun rt -> a rt && b rt
  | KFOr (a, b) ->
      let a = gc ~zero d a and b = gc ~zero d b in
      fun rt -> a rt || b rt
  | KFNot a ->
      let a = gc ~zero d a in
      fun rt -> not (a rt)

(* Statements *)

let seq (fs : cstmt list) : cstmt =
  match fs with
  | [] -> fun _ -> ()
  | [ a ] -> a
  | l ->
      let a = Array.of_list l in
      fun rt ->
        for i = 0 to Array.length a - 1 do
          get a i rt
        done

let[@inline] store_put rt aid s x =
  let st = get rt.r_stores aid in
  if s >= 0 then set st.st_data s x else Hashtbl.replace st.st_side rt.r_enc x

(* The closure engine's main. Subroutine bodies sit behind refs, so calls
   (forward or recursive) resolve once every body is generated. A loop
   with a constant step evaluates its upper bound before its lower one, as
   the emitted kernels do; the order shows only in which unbound-name
   error wins. *)
let closures (ctx : kctx) (k : Imp.kernel) : cstmt =
  let zero = k.Imp.k_nint in
  let gaddr = gaddr ~zero and gf = gf ~zero and gc = gc ~zero 0 in
  let subs = Hashtbl.create 8 in
  List.iter (fun (name, _) -> Hashtbl.replace subs name (ref (fun (_ : rt) -> ()))) k.k_subs;
  let rec gs (s : Imp.kstmt) : cstmt =
    match s with
    | Imp.KFor { slot; var; lo; hi; step; body; loopt } -> (
        let lo = gi lo and hi = gi hi and body = seq (List.map gs body) in
        let loop rt l h st =
          let ri = rt.r_int and i = ref l in
          while !i <= h do
            set ri slot !i;
            tick rt loopt;
            body rt;
            i := !i + st
          done
        in
        match step with
        | Imp.IConst st when st > 0 ->
            fun rt ->
              let h = hi rt in
              loop rt (lo rt) h st
        | IConst _ ->
            fun rt ->
              ignore (lo rt : int);
              ignore (hi rt : int);
              bad_step rt var
        | step ->
            let step = gi step in
            fun rt ->
              let l = lo rt in
              let h = hi rt in
              let st = step rt in
              if st <= 0 then bad_step rt var;
              loop rt l h st)
    | KIf { cond; body; guard } ->
        let cond = gb cond and body = seq (List.map gs body) in
        fun rt ->
          tick rt guard;
          if cond rt then body rt
    | KFIf { cond; then_; else_; guard } ->
        let cond = gc cond in
        let t = seq (List.map gs then_) and e = seq (List.map gs else_) in
        fun rt ->
          tick rt guard;
          if cond rt then t rt else e rt
    | KSetScalar { slot; value; flop } ->
        let v = gf 0 value in
        fun rt ->
          v rt;
          let x = get rt.r_regs 0 in
          tick rt flop;
          set rt.r_fval slot x;
          set rt.r_fvalid slot true
    | KStore { ap; value; access; flop; check } -> (
        let v = gf 0 value and addr = gaddr ap and aid = ap.Imp.ap_aid in
        match access with
        | Spmd.Checked ->
            fun rt ->
              v rt;
              tick rt flop;
              let s = addr rt in
              tick rt check;
              store_put rt aid s (get rt.r_regs 0)
        | Spmd.Local ->
            fun rt ->
              v rt;
              tick rt flop;
              let s = addr rt in
              let st = get rt.r_stores aid in
              let owned = if st_sparse st then owns_enc st rt.r_enc else s >= 0 in
              if not owned then local_store_fail rt aid rt.r_enc;
              store_put rt aid s (get rt.r_regs 0)
        | Spmd.Overlay | Spmd.Global ->
            fun rt ->
              v rt;
              tick rt flop;
              store_put rt aid (addr rt) (get rt.r_regs 0))
    | KPack { event; arr; ap } ->
        let addr = gaddr ap and aid = ap.Imp.ap_aid in
        fun rt ->
          let s = addr rt in
          let v =
            if s >= 0 then get (get rt.r_stores aid).st_data s
            else pack_miss rt aid rt.r_enc
          in
          Runtime.packbuf_push (get rt.r_packbufs event) ~arr rt.r_enc v
    | KSend { event; dest; inplace; rect } ->
        let dest = List.map gi dest in
        fun rt ->
          do_send ctx rt ~event ~inplace ~rect (List.map (fun f -> f rt) dest)
    | KRecv { event; src; recv_o; unpack } ->
        let src = List.map gi src in
        fun rt -> do_recv ctx rt ~event ~recv_o ~unpack (List.map (fun f -> f rt) src)
    | KReduceArr { name; op } -> fun _ -> do_reduce_arr name op
    | KReduceScalar { slot; op } -> fun rt -> do_reduce_scalar rt slot op
    | KCall f ->
        let sub = Hashtbl.find subs f in
        fun rt -> !sub rt
    | KUnknownSub f -> fun rt -> unknown_sub rt f
  in
  List.iter (fun (name, body) -> Hashtbl.find subs name := seq (List.map gs body)) k.k_subs;
  seq (List.map gs k.k_main)


(* ------------------------------------------------------------------ *)
(* Setup: dense storage construction                                    *)
(* ------------------------------------------------------------------ *)

(* arrays named in Reduce statements keep the sparse representation (see
   the header comment) *)
let reduce_targets (prog : Spmd.program) =
  let tbl = Hashtbl.create 8 in
  Spmd.iter_program
    (function
      | Spmd.Reduce { scalar; _ } -> Hashtbl.replace tbl scalar ()
      | _ -> ())
    prog;
  tbl

(* build one processor's storage for one array: evaluate the ownership
   formula of every layout dimension over the full extent of its data
   dimension once, tabulating (global coordinate -> local index | -1) *)
let build_store ~geval ~(su : Runtime.setup) ~sparse pid
    (am : Runtime.ameta) (layout : Spmd.array_layout option) : store =
  let nd = Array.length am.Runtime.am_ext in
  let owned_dim = Array.init nd (fun d -> Array.make am.Runtime.am_ext.(d) true) in
  let owned = ref true in
  (match layout with
  | None -> ()
  | Some la ->
      List.iteri
        (fun k (dl : Spmd.dim_layout) ->
          let c = su.Runtime.su_coords.(pid).(k) in
          match dl.Spmd.source with
          | Spmd.AnyCoord -> ()
          | Spmd.FixedCoord e -> if geval e <> c then owned := false
          | Spmd.FromData { data_dim; _ } ->
              let lo = fst am.Runtime.am_bounds.(data_dim) in
              let scratch = Array.make nd 0 in
              for u = 0 to am.Runtime.am_ext.(data_dim) - 1 do
                scratch.(data_dim) <- lo + u;
                match Runtime.owner_coord ~eval:geval dl scratch with
                | None -> ()
                | Some o ->
                    if o <> c then owned_dim.(data_dim).(u) <- false
              done)
        la.Spmd.la_dims);
  let dmaps =
    Array.init nd (fun d ->
        let next = ref 0 in
        Array.map
          (fun own ->
            if own then begin
              let l = !next in
              incr next;
              l
            end
            else -1)
          owned_dim.(d))
  in
  let nown = Array.map (fun od -> Array.fold_left (fun n b -> if b then n + 1 else n) 0 od) owned_dim in
  let lstride = Array.make nd 1 in
  for d = 1 to nd - 1 do
    lstride.(d) <- lstride.(d - 1) * nown.(d - 1)
  done;
  let size = Array.fold_left ( * ) 1 nown in
  let data =
    if sparse || not !owned || size = 0 then [||] else Array.make size 0.0
  in
  {
    st_am = am;
    st_owned = !owned;
    st_dense = data != [||];
    st_dmaps = dmaps;
    st_lstride = lstride;
    st_data = data;
    st_side = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* The compiled simulation                                              *)
(* ------------------------------------------------------------------ *)

(* Where an element lives, for result inspection: per layout dimension,
   its data dimension and the owner coordinate of every index along it
   (replicated dimensions resolve to coordinate 0; a fixed coordinate is
   the one entry under data dimension -1). Tabulated once per array, so
   reading every element back costs no layout evaluation. *)
let owner_table ~geval (am : Runtime.ameta) (layout : Spmd.array_layout option) =
  let coord dl idx =
    match Runtime.owner_coord ~eval:geval dl idx with None -> 0 | Some o -> o
  in
  match layout with
  | None -> [||]
  | Some la ->
      Array.of_list
        (List.map
           (fun (dl : Spmd.dim_layout) ->
             match dl.Spmd.source with
             | Spmd.FromData { data_dim; _ } ->
                 let lo = fst am.Runtime.am_bounds.(data_dim) in
                 let idx = Array.make (Array.length am.Runtime.am_ext) 0 in
                 ( data_dim,
                   Array.init am.Runtime.am_ext.(data_dim) (fun u ->
                       idx.(data_dim) <- lo + u;
                       coord dl idx) )
             | Spmd.AnyCoord | Spmd.FixedCoord _ -> (-1, [| coord dl [||] |]))
           la.Spmd.la_dims)

type csim = {
  c_prog : Spmd.program;
  c_su : Runtime.setup;
  c_tr : Runtime.transport;
  c_rts : rt array;
  c_main : cstmt;
  c_arrays : (string, int) Hashtbl.t;
  c_ameta : Runtime.ameta array;
  c_owners : (int * int array) array Lazy.t array;  (* by store id *)
  c_islots : (string * int) list;  (* sorted by name *)
  c_fslots : (string * int) list;
  mutable c_ran : bool;
}

(* Set up the machine and lower the program once through {!Imp}; [gen]
   turns the lowered kernel into the per-processor entry point. *)
let make_with gen ?(machine = Machine.default) ?faults ~nprocs ?(params = []) (prog : Spmd.program) : csim =
  let su = Runtime.setup ?faults ~nprocs ~params prog in
  let geval e = Runtime.eval_genv su.Runtime.su_genv e in
  let tr = Runtime.transport_make ~machine ~faults ~nprocs:su.Runtime.su_total in
  let arrays = Hashtbl.create 16 in
  List.iteri (fun i (ad : Spmd.array_decl) -> Hashtbl.replace arrays ad.Spmd.ad_name i)
    prog.Spmd.arrays;
  let ameta =
    Array.of_list
      (List.map (fun ad -> Runtime.ameta ~eval:geval ad) prog.Spmd.arrays)
  in
  let layouts =
    Array.of_list (List.map (fun (ad : Spmd.array_decl) -> ad.Spmd.ad_layout) prog.Spmd.arrays)
  in
  let kernel =
    Imp.lower ~machine ~genv:su.Runtime.su_genv ~extents:su.Runtime.su_extents
      ~arrays ~ameta prog
  in
  let kctx =
    {
      k_tr = tr;
      k_phys = Runtime.phys_of_vp ~eval:geval prog ~extents:su.Runtime.su_extents;
      k_arrays = arrays;
      k_vm_slots = kernel.Imp.k_vm_slots;
    }
  in
  let c_main = gen kctx kernel in
  (* per-processor state, sized by the kernel *)
  let sparse = reduce_targets prog in
  let max_rank =
    Array.fold_left (fun n am -> max n (Array.length am.Runtime.am_ext)) 1 ameta
  in
  let n_events =
    let n = ref 0 in
    List.iter (fun (e : Spmd.event_info) -> n := max !n (e.Spmd.ev_id + 1)) prog.Spmd.events;
    Spmd.iter_program
      (function
        | Spmd.Pack { event; _ } | Spmd.Send { event; _ } | Spmd.Recv { event; _ } ->
            n := max !n (event + 1)
        | _ -> ())
      prog;
    !n
  in
  let nregs = kernel_regs kernel in
  let rts =
    Array.init su.Runtime.su_total (fun pid ->
        (* one slot past Imp's is the constant 0 that [slot + c] reads use *)
        let r_int = Array.make (kernel.Imp.k_nint + 1) 0 in
        Array.iteri (fun k s -> r_int.(s) <- su.Runtime.su_coords.(pid).(k)) kernel.Imp.k_m_slots;
        List.iter (fun (k, v) -> r_int.(kernel.Imp.k_vm_slots.(k)) <- v) su.Runtime.su_vm0.(pid);
        let r_fval = Array.make (max kernel.Imp.k_nfloat 1) 0.0 in
        let r_fvalid = Array.make (max kernel.Imp.k_nfloat 1) false in
        (* declared replicated scalars start initialized at zero, matching
           the interpreter's fenv pre-population *)
        List.iter
          (fun s -> r_fvalid.(List.assoc s kernel.Imp.k_fslots) <- true)
          prog.Spmd.scalars;
        let stores =
          Array.init (Array.length ameta) (fun aid ->
              build_store ~geval ~su
                ~sparse:(Hashtbl.mem sparse ameta.(aid).Runtime.am_name)
                pid ameta.(aid) layouts.(aid))
        in
        {
          r_pid = pid;
          r_int;
          r_fval;
          r_fvalid;
          r_stores = stores;
          r_packbufs = Array.init (max n_events 1) (fun _ -> Runtime.packbuf_create ());
          r_clk = { c = 0.0 };
          r_skew = su.Runtime.su_skew.(pid);
          r_scratch = Array.make max_rank 0;
          r_regs = Array.make nregs 0.0;
          r_enc = 0;
        })
  in
  {
    c_prog = prog;
    c_su = su;
    c_tr = tr;
    c_rts = rts;
    c_main;
    c_arrays = arrays;
    c_ameta = ameta;
    c_owners =
      Array.mapi (fun aid am -> lazy (owner_table ~geval am layouts.(aid))) ameta;
    c_islots = kernel.Imp.k_islots;
    c_fslots = kernel.Imp.k_fslots;
    c_ran = false;
  }

let make = make_with closures

let nprocs cs = cs.c_su.Runtime.su_total

let phys_of_vp cs vp =
  Runtime.phys_of_vp
    ~eval:(Runtime.eval_genv cs.c_su.Runtime.su_genv)
    cs.c_prog ~extents:cs.c_su.Runtime.su_extents vp

(* element-wise array reduction over the (sparse) side tables: combine the
   values present on some processor, in pid order, and write the result
   back everywhere — the same algorithm, element set and combination order
   as the interpreter's collective *)
let reduce_arr cs name (op : Spmd.reduce_op) : int =
  let aid =
    match Hashtbl.find_opt cs.c_arrays name with
    | Some a -> a
    | None -> errf "unknown array %s" name
  in
  let tables = Array.map (fun rt -> rt.r_stores.(aid).st_side) cs.c_rts in
  let keys = Hashtbl.create 256 in
  Array.iter
    (fun tbl -> Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tbl)
    tables;
  let combined = Hashtbl.create (Hashtbl.length keys) in
  Hashtbl.iter
    (fun k () ->
      let acc = ref None in
      Array.iter
        (fun tbl ->
          match Hashtbl.find_opt tbl k with
          | None -> ()
          | Some v ->
              acc :=
                Some
                  (match (!acc, op) with
                  | None, _ -> v
                  | Some a, Spmd.RSum -> a +. v
                  | Some a, Spmd.RMax -> Float.max a v
                  | Some a, Spmd.RMin -> Float.min a v))
        tables;
      match !acc with Some v -> Hashtbl.replace combined k v | None -> ())
    keys;
  Array.iter
    (fun tbl -> Hashtbl.iter (fun k v -> Hashtbl.replace tbl k v) combined)
    tables;
  Hashtbl.length combined

let run (cs : csim) : Runtime.stats =
  if cs.c_ran then
    errf "simulation already executed: Exec.run consumed this sim (build a fresh one with Exec.make)";
  cs.c_ran <- true;
  Runtime.sched_run
    {
      Runtime.h_nprocs = Array.length cs.c_rts;
      h_tr = cs.c_tr;
      h_clock = (fun p -> cs.c_rts.(p).r_clk.c);
      h_set_clock = (fun p t -> cs.c_rts.(p).r_clk.c <- t);
      h_body = (fun p -> cs.c_main cs.c_rts.(p));
      h_reduce_arr = reduce_arr cs;
      h_phys_of_vp = phys_of_vp cs;
    };
  Runtime.stats_of cs.c_tr
    ~proc_times:(Array.map (fun rt -> rt.r_clk.c) cs.c_rts)

(* ------------------------------------------------------------------ *)
(* Result inspection                                                    *)
(* ------------------------------------------------------------------ *)

(** Value of an array element after execution, read from its owner. *)
let get_elem cs name idx =
  let aid =
    match Hashtbl.find_opt cs.c_arrays name with
    | Some a -> a
    | None -> errf "unknown array %s" name
  in
  let am = cs.c_ameta.(aid) in
  let enc = Runtime.encode am idx in
  let owners = Lazy.force cs.c_owners.(aid) in
  let pid = ref 0 and stride = ref 1 in
  for k = 0 to Array.length owners - 1 do
    let dd, coords = owners.(k) in
    let c =
      if dd < 0 then coords.(0)
      else coords.(List.nth idx dd - fst am.Runtime.am_bounds.(dd))
    in
    pid := !pid + (c * !stride);
    stride := !stride * cs.c_su.Runtime.su_extents.(k)
  done;
  get_enc cs.c_rts.(!pid).r_stores.(aid) enc

(** Measured per-pair communication table (empty unless metrics were
    enabled when the sim was built). *)
let comm_cells cs = Runtime.comm_cells cs.c_tr

(** Scalar value (replicated; read from processor 0). *)
let get_scalar cs name =
  match List.assoc_opt name cs.c_fslots with
  | Some slot when cs.c_rts.(0).r_fvalid.(slot) -> cs.c_rts.(0).r_fval.(slot)
  | _ -> errf "unknown scalar %s" name

(* ------------------------------------------------------------------ *)
(* Checkpoint capture                                                   *)
(* ------------------------------------------------------------------ *)

let transport cs = cs.c_tr
let clocks cs = Array.map (fun rt -> rt.r_clk.c) cs.c_rts
let set_clocks cs t = Array.iter (fun rt -> rt.r_clk.c <- t) cs.c_rts
let charge cs dt = Array.iter (fun rt -> rt.r_clk.c <- rt.r_clk.c +. dt) cs.c_rts

(* every resident element of one store as sorted (global linear index,
   value) pairs: the dense owned block enumerated through the per-dimension
   ownership tables, plus the side hashtable (halos / sparse storage) —
   the two never hold the same index, so a plain merge-and-sort suffices *)
let store_elems (st : store) : (int * float) array =
  let acc = ref [] in
  Hashtbl.iter (fun k v -> acc := (k, v) :: !acc) st.st_side;
  if st.st_dense then begin
    let ext = st.st_am.Runtime.am_ext in
    let nd = Array.length ext in
    let owned =
      Array.init nd (fun d ->
          let l = ref [] in
          Array.iteri
            (fun u m -> if m >= 0 then l := (u, m) :: !l)
            st.st_dmaps.(d);
          Array.of_list (List.rev !l))
    in
    let str = st.st_am.Runtime.am_strides in
    let rec go d enc slot =
      if d < 0 then acc := (enc, st.st_data.(slot)) :: !acc
      else
        Array.iter
          (fun (u, l) ->
            go (d - 1) (enc + (u * str.(d))) (slot + (l * st.st_lstride.(d))))
          owned.(d)
    in
    go (nd - 1) 0 0
  end;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let capture (cs : csim) : Runtime.image =
  let anames =
    Hashtbl.fold (fun n aid acc -> (n, aid) :: acc) cs.c_arrays []
    |> List.sort compare
  in
  let procs =
    Array.map
      (fun rt ->
        let ints =
          Array.of_list (List.map (fun (n, s) -> (n, rt.r_int.(s))) cs.c_islots)
        in
        let floats =
          List.filter (fun (_, s) -> rt.r_fvalid.(s)) cs.c_fslots
          |> List.map (fun (n, s) -> (n, rt.r_fval.(s)))
          |> Array.of_list
        in
        let elems =
          List.map (fun (n, aid) -> (n, store_elems rt.r_stores.(aid))) anames
          |> Array.of_list
        in
        let staged = ref [] in
        Array.iteri
          (fun ev buf ->
            let pl = Runtime.packbuf_peek buf in
            if Array.length pl.Runtime.pl_idx > 0 then
              staged := (ev, pl) :: !staged)
          rt.r_packbufs;
        {
          Runtime.pi_clock = rt.r_clk.c;
          pi_ints = ints;
          pi_floats = floats;
          pi_elems = elems;
          pi_staged = Array.of_list (List.rev !staged);
        })
      cs.c_rts
  in
  let chans, inflight, ctrs = Runtime.capture_transport cs.c_tr in
  {
    Runtime.im_ops = cs.c_tr.Runtime.tr_gops;
    im_procs = procs;
    im_chans = chans;
    im_inflight = inflight;
    im_counters = ctrs;
  }
