(* Unit tests for the simulated machine itself: ownership arithmetic,
   message timing, collectives, deadlock detection, and the cost model. *)

open Dhpf

let compile src = Gen.compile (Hpf.Sema.analyze_source src)

let block_1d =
  {|
program t
  parameter n = 16
  real a(n)
  processors p(4)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(block) onto p
  do i = 1, n
    a(i) = i
  end do
end
|}

let test_ownership_block () =
  let c = compile block_1d in
  let sim = Spmdsim.Exec.make ~nprocs:4 c.cprog in
  let _ = Spmdsim.Exec.run sim in
  (* blocks of 4: a(5) lives on proc 1 *)
  Alcotest.(check (float 0.0)) "a(5)" 5.0 (Spmdsim.Exec.get_elem sim "a" [ 5 ]);
  Alcotest.(check (float 0.0)) "a(16)" 16.0 (Spmdsim.Exec.get_elem sim "a" [ 16 ])

let test_ownership_cyclic () =
  let src =
    {|
program t
  parameter n = 10
  real a(n)
  processors p(3)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(cyclic) onto p
  do i = 1, n
    a(i) = 10.0 * i
  end do
end
|}
  in
  let c = compile src in
  let sim = Spmdsim.Exec.make ~nprocs:3 c.cprog in
  let _ = Spmdsim.Exec.run sim in
  for i = 1 to 10 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "a(%d)" i)
      (10.0 *. float_of_int i)
      (Spmdsim.Exec.get_elem sim "a" [ i ])
  done

let test_clock_monotone () =
  (* more iterations => strictly more simulated time *)
  let t iters =
    let src =
      Printf.sprintf
        {|
program t
  parameter n = 64
  real a(n)
  real s
  processors p(2)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(block) onto p
  do k = 1, %d
    do i = 1, n
      a(i) = a(i) + 1.0
    end do
  end do
end
|}
        iters
    in
    let c = compile src in
    (Spmdsim.Exec.run (Spmdsim.Exec.make ~nprocs:2 c.cprog)).s_time
  in
  let t1 = t 1 and t4 = t 4 in
  Alcotest.(check bool) "4 iters slower than 1" true (t4 > t1 *. 2.0)

let test_message_cost_visible () =
  (* a shift adds latency: time with comm exceeds comm-free machine time *)
  let src =
    {|
program t
  parameter n = 32
  real a(n), b(n)
  processors p(4)
  template tt(n)
  align a(i) with tt(i)
  align b(i) with tt(i)
  distribute tt(block) onto p
  do i = 1, n
    a(i) = i
  end do
  do i = 2, n
    b(i) = a(i-1)
  end do
end
|}
  in
  let c = compile src in
  let with_comm = (Spmdsim.Exec.run (Spmdsim.Exec.make ~nprocs:4 c.cprog)).s_time in
  let free =
    { Spmdsim.Machine.sp2 with alpha = 0.0; beta = 0.0; send_overhead = 0.0;
      recv_overhead = 0.0; pack_time = 0.0; unpack_time = 0.0 }
  in
  let without =
    (Spmdsim.Exec.run (Spmdsim.Exec.make ~machine:free ~nprocs:4 c.cprog)).s_time
  in
  Alcotest.(check bool) "latency visible" true (with_comm > without +. 30e-6)

let test_allreduce_cost () =
  Alcotest.(check (float 0.0)) "P=1 free" 0.0 (Spmdsim.Machine.allreduce_time Spmdsim.Machine.sp2 1);
  let t4 = Spmdsim.Machine.allreduce_time Spmdsim.Machine.sp2 4 in
  let t16 = Spmdsim.Machine.allreduce_time Spmdsim.Machine.sp2 16 in
  Alcotest.(check bool) "log growth" true (t16 > t4 && t16 < 3.0 *. t4)

let test_deadlock_detected () =
  (* a program with a recv and no matching send must be reported with a
     structured diagnostic naming the waiting processors and event *)
  let c = compile block_1d in
  let prog = c.cprog in
  let bogus_recv =
    Spmd.Recv { event = 99; src = [ Iset.Codegen.EInt 0 ] }
  in
  let prog =
    { prog with Spmd.main = prog.Spmd.main @ [ Spmd.If (Iset.Codegen.CGeq0 (Iset.Codegen.EVar "m$1"), [ bogus_recv ]) ] }
  in
  let sim = Spmdsim.Exec.make ~nprocs:4 prog in
  match Spmdsim.Exec.run sim with
  | exception Spmdsim.Exec.Deadlock d ->
      Alcotest.(check int) "all four procs stuck" 4 (List.length d.dg_waiting);
      List.iter
        (fun (w : Spmdsim.Exec.proc_wait) ->
          match w.w_reason with
          | Spmdsim.Exec.WaitRecv r ->
              Alcotest.(check int) "waiting on event 99" 99 r.wr_event
          | _ -> Alcotest.fail "expected a recv wait")
        d.dg_waiting;
      (* proc 0 waits on vp(0) — itself — a self-cycle; 1..3 dangle off it *)
      Alcotest.(check (list int)) "self-cycle on proc 0" [ 0 ] d.dg_cycle;
      let msg = Spmdsim.Exec.diagnostic_to_string d in
      Alcotest.(check bool) "pretty-printer mentions deadlock" true
        (String.length msg >= 8 && String.sub msg 0 8 = "deadlock")
  | _ -> Alcotest.fail "expected deadlock"

let test_param_binding () =
  let src =
    {|
program t
  parameter n
  real a(100)
  processors p(2)
  template tt(100)
  align a(i) with tt(i)
  distribute tt(block) onto p
  do i = 1, n
    a(i) = i
  end do
end
|}
  in
  let c = compile src in
  (* n is symbolic: must be supplied *)
  (match Spmdsim.Exec.make ~nprocs:2 c.cprog with
  | exception Spmdsim.Exec.Error _ -> ()
  | sim -> (
      match Spmdsim.Exec.run sim with
      | exception Spmdsim.Exec.Error _ -> ()
      | _ -> Alcotest.fail "expected unbound-parameter error"));
  let sim = Spmdsim.Exec.make ~nprocs:2 ~params:[ ("n", 7) ] c.cprog in
  let _ = Spmdsim.Exec.run sim in
  Alcotest.(check (float 0.0)) "a(7) written" 7.0 (Spmdsim.Exec.get_elem sim "a" [ 7 ]);
  Alcotest.(check (float 0.0)) "a(8) untouched" 0.0 (Spmdsim.Exec.get_elem sim "a" [ 8 ])

(* Regression: the gauss builtin uses a (cyclic,cyclic) distribution whose
   split compute sections reference the vm$k virtual-processor coordinates;
   they must be wrapped in VP loops like the unsplit path (previously failed
   at runtime with "unbound integer name vm$2"). *)
let test_gauss_cyclic_split_sections () =
  let chk = Hpf.Sema.analyze_source (Codes.gauss ()) in
  let c = Gen.compile chk in
  let serial = Spmdsim.Serial.run chk in
  let sim = Spmdsim.Exec.make ~nprocs:4 c.cprog in
  let _ = Spmdsim.Exec.run sim in
  for i = 1 to 12 do
    for j = 1 to 12 do
      let want = Spmdsim.Serial.get_elem serial "a" [ i; j ] in
      let got = Spmdsim.Exec.get_elem sim "a" [ i; j ] in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "a(%d,%d)" i j) want got
    done
  done

(* Each sim is single-use: running it again would start from stale clocks,
   sequence numbers and array contents. Both engines must refuse. *)
let test_double_run_guard () =
  List.iter
    (fun engine ->
      let c = compile block_1d in
      let sim = Spmdsim.Exec.make ~engine ~nprocs:4 c.cprog in
      let _ = Spmdsim.Exec.run sim in
      match Spmdsim.Exec.run sim with
      | exception Spmdsim.Exec.Error msg ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "error names the re-run" true
            (contains msg "already")
      | _ -> Alcotest.fail "expected Error on second run")
    [ `Closure; `Interp ]

(* The interpreter is kept as the differential oracle for the closure
   engine: same program, same machine, same ownership answers. *)
let test_ownership_interp_engine () =
  let c = compile block_1d in
  let sim = Spmdsim.Exec.make ~engine:`Interp ~nprocs:4 c.cprog in
  let _ = Spmdsim.Exec.run sim in
  Alcotest.(check (float 0.0)) "a(5)" 5.0 (Spmdsim.Exec.get_elem sim "a" [ 5 ]);
  Alcotest.(check (float 0.0)) "a(16)" 16.0 (Spmdsim.Exec.get_elem sim "a" [ 16 ])

(* gauss exercises (cyclic,cyclic) with split VP sections, scalar state and
   subroutine calls; the engines must agree bit-for-bit, fault-free and
   under a seeded fault schedule. *)
let test_engines_agree_gauss () =
  let chk = Hpf.Sema.analyze_source (Codes.gauss ()) in
  match Spmdsim.Diffcheck.engines ~nprocs:4 ~seeds:[ 7 ] chk with
  | Spmdsim.Diffcheck.Pass { runs; _ } -> Alcotest.(check int) "runs" 2 runs
  | out -> Alcotest.failf "%a" Spmdsim.Diffcheck.pp_outcome out

let test_serial_interpreter () =
  let chk = Hpf.Sema.analyze_source block_1d in
  let r = Spmdsim.Serial.run chk in
  Alcotest.(check (float 0.0)) "a(3)" 3.0 (Spmdsim.Serial.get_elem r "a" [ 3 ]);
  Alcotest.(check bool) "flops counted" true (r.r_flops > 16);
  Alcotest.(check bool) "time positive" true (r.r_time > 0.0)

let test_serial_subroutines_and_if () =
  let src =
    {|
program t
  parameter n = 4
  real a(n)
  real s
  processors p(2)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(block) onto p
  call fill
  if (a(2) > 1.0) then
    s = 1.0
  else
    s = 2.0
  end if
end
subroutine fill
  do i = 1, n
    a(i) = i * 1.5
  end do
end
|}
  in
  let chk = Hpf.Sema.analyze_source src in
  let r = Spmdsim.Serial.run chk in
  Alcotest.(check (float 1e-9)) "subroutine ran" 6.0 (Spmdsim.Serial.get_elem r "a" [ 4 ]);
  Alcotest.(check (float 1e-9)) "if took then-branch" 1.0 (Spmdsim.Serial.get_scalar r "s")

(* ---- serial oracle regressions ----

   The oracle is a staged interpreter: names resolve to slots and the AST
   to closures before anything runs. These cases pin what staging must
   not change: flop counts, time bits and element bits on the paper-scale
   programs, error texts, the dynamic scope of loop variables, and errors
   raised only by code that runs. *)

let bits x = Int64.to_string (Int64.bits_of_float x)

(* every element (arrays in name order, column-major) and every scalar of
   a serial run, as float bits *)
let serial_digest (chk : Hpf.Sema.checked) (r : Spmdsim.Serial.result) =
  let b = Buffer.create 4096 in
  let ev = Spmdsim.Serial.eval_iexpr r.r_state in
  let arrays =
    Hashtbl.fold
      (fun n (ai : Hpf.Sema.array_info) acc ->
        (n, List.map (fun (lo, hi) -> (ev lo, ev hi)) ai.adims) :: acc)
      chk.env.arrays []
    |> List.sort compare
  in
  List.iter
    (fun (n, bounds) ->
      Buffer.add_string b n;
      let rec go idx = function
        | [] ->
            Buffer.add_string b (bits (Spmdsim.Serial.get_elem r n (List.rev idx)));
            Buffer.add_char b ' '
        | (lo, hi) :: rest ->
            for x = lo to hi do
              go (x :: idx) rest
            done
      in
      go [] bounds)
    arrays;
  Hashtbl.fold (fun n _ acc -> n :: acc) chk.env.scalars []
  |> List.sort compare
  |> List.iter (fun n ->
         Printf.bprintf b "%s=%s " n (bits (Spmdsim.Serial.get_scalar r n)));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the Table-1 / Figure-7 programs at benchmark scale *)
let test_serial_pinned () =
  List.iter
    (fun (name, src, flops, time_bits, digest) ->
      let chk = Hpf.Sema.analyze_source src in
      let r = Spmdsim.Serial.run chk in
      Alcotest.(check int) (name ^ " flops") flops r.r_flops;
      Alcotest.(check int64) (name ^ " time bits") time_bits
        (Int64.bits_of_float r.r_time);
      Alcotest.(check string) (name ^ " element bits") digest (serial_digest chk r))
    [
      ( "SP-4", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Fixed (2, 2)) (),
        10181217, 4592000760677145434L, "1ca7c2a716db0d403aa90d4aafa0d461" );
      ( "TOMCATV-257", Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) (),
        19324967, 4596130573424947195L, "b69d5c9a4558dacbd6106d59491421f9" );
      ( "ERLEBACHER-40", Codes.erlebacher ~n:40 ~iters:2 ~procs:(Codes.Symbolic2 1) (),
        4731560, 4586979717628716398L, "12fdd454e92ca7809a32ec67c29544b2" );
      ( "JACOBI-384", Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) (),
        12858544, 4593800799007889594L, "2672c106afb440abab5ddc962ed848d3" );
    ]

let serial_src body =
  Printf.sprintf
    "program t\n  parameter n = 4\n  real a(n), c(n,0:n)\n  real s, u\n%s\nend\n" body

let check_serial_error what want src =
  match Spmdsim.Serial.run (Hpf.Sema.analyze_source src) with
  | _ -> Alcotest.failf "%s: no error" what
  | exception Spmdsim.Serial.Error msg -> Alcotest.(check string) what want msg

let test_serial_bounds_errors () =
  check_serial_error "out-of-bounds read"
    "index 5 out of bounds [0,4] in dimension 2"
    (serial_src "  do i = 1, n\n    s = c(i, i+1)\n  end do");
  check_serial_error "out-of-bounds write"
    "index 0 out of bounds [1,4] in dimension 1"
    (serial_src "  do i = 1, n\n    a(i-1) = 1.0\n  end do")

(* [k] is a run-time parameter and a loop variable: inside the loop it
   reads the loop value (in float context), after the loop the parameter *)
let test_serial_loop_var_shadows_param () =
  let chk =
    Hpf.Sema.analyze_source (serial_src "  do k = 1, 3\n    s = k\n  end do\n  u = k")
  in
  let r = Spmdsim.Serial.run ~params:[ ("k", 7) ] chk in
  Alcotest.(check (float 0.0)) "float-context loop variable" 3.0
    (Spmdsim.Serial.get_scalar r "s");
  Alcotest.(check (float 0.0)) "parameter after the loop" 7.0
    (Spmdsim.Serial.get_scalar r "u");
  match Spmdsim.Serial.run chk with
  | _ -> Alcotest.fail "unbound name after the loop read"
  | exception Spmdsim.Serial.Error msg ->
      Alcotest.(check string) "no parameter" "unbound integer name k" msg

let test_serial_loop_var_in_callee () =
  let src =
    serial_src "  do i = 1, n\n    call put\n  end do"
    ^ "subroutine put\n  a(i) = i * 2.0\n  c(i, 0) = float(i) + s\nend\n"
  in
  let r = Spmdsim.Serial.run (Hpf.Sema.analyze_source src) in
  List.iter
    (fun i ->
      let x = 2.0 *. float_of_int i in
      Alcotest.(check (float 0.0)) "callee reads caller's loop variable" x
        (Spmdsim.Serial.get_elem r "a" [ i ]);
      Alcotest.(check (float 0.0)) "float intrinsic" (x /. 2.0)
        (Spmdsim.Serial.get_elem r "c" [ i; 0 ]))
    [ 1; 2; 3; 4 ]

(* errors belong to the code that runs: a bad reference on a branch never
   taken is harmless, and raises once the branch is taken *)
let test_serial_errors_only_when_run () =
  let guarded taken stmt =
    let chk = Hpf.Sema.analyze_source (serial_src "  s = 1.0") in
    let cond = Hpf.Ast.CCmp (FRef ("s", []), Lt, FNum (if taken then 2.0 else 0.0)) in
    let body = [ Hpf.Ast.SIf { cond; then_ = [ stmt ]; else_ = [] } ] in
    let prog =
      { Hpf.Ast.units =
          List.map (fun (u : Hpf.Ast.unit_) -> { u with body = u.body @ body }) chk.prog.units }
    in
    Spmdsim.Serial.run { chk with prog }
  in
  let assign rhs = Hpf.Ast.SAssign { lhs = ("u", []); rhs; on_home = None; line = 0 } in
  let bad =
    [
      ("unknown array nosuch", assign (FRef ("nosuch", [ INum 1 ])));
      ("index 9 out of bounds [1,4] in dimension 1", assign (FRef ("a", [ INum 9 ])));
      ("unbound integer name zz", assign (FInt (IName "zz")));
      ("unknown intrinsic frob/1", assign (FCall ("frob", [ FNum 1.0 ])));
      ("unknown subroutine nosub", Hpf.Ast.SCall ("nosub", 0));
    ]
  in
  List.iter
    (fun (want, stmt) ->
      let r = guarded false stmt in
      Alcotest.(check (float 0.0)) ("untaken: " ^ want) 1.0 (Spmdsim.Serial.get_scalar r "s");
      match guarded true stmt with
      | _ -> Alcotest.failf "taken: %s did not raise" want
      | exception Spmdsim.Serial.Error msg -> Alcotest.(check string) "taken" want msg)
    bad

(* ---- engine-differential property ----

   Random small stencil programs (random distributions, alignments and
   shift patterns, as in test_random.ml) validated through
   Diffcheck.engines: the closure engine and the tree-walking interpreter
   must produce bit-identical element values and scalars, bit-identical
   simulated clocks, and identical message/byte/retransmit counters —
   fault-free and under two seeded fault schedules (drop+retransmit,
   duplication, reordering, stragglers). *)

type ed_spec = {
  ed_dist : int;  (* index into ed_dists *)
  ed_align_a : int;  (* index into ed_aligns *)
  ed_align_b : int;
  ed_stmts : ((string * (int * int)) * (string * (int * int)) list) list;
      (* (lhs array, lhs shift), rhs refs (array, shifts) *)
}

let ed_dists =
  [|
    ("processors p(2)", "distribute t(block,*) onto p");
    ("processors p(2)", "distribute t(*,block) onto p");
    ("processors p(2,2)", "distribute t(block,block) onto p");
    ("processors p(2)", "distribute t(cyclic,*) onto p");
    ("processors p(2,2)", "distribute t(cyclic,cyclic) onto p");
  |]

let ed_align name = function
  | 0 -> Printf.sprintf "align %s(i,j) with t(i,j)" name
  | 1 -> Printf.sprintf "align %s(i,j) with t(i+1,j)" name
  | _ -> Printf.sprintf "align %s(i,j) with t(j,i)" name

let ed_n = 8

let ed_src spec =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let procs, dist = ed_dists.(spec.ed_dist) in
  pf "program enginediff\n";
  pf "  parameter n = %d\n" ed_n;
  pf "  real a(n,n), b(n,n)\n";
  pf "  %s\n" procs;
  pf "  template t(n+1,n+1)\n";
  pf "  %s\n" (ed_align "a" spec.ed_align_a);
  pf "  %s\n" (ed_align "b" spec.ed_align_b);
  pf "  %s\n" dist;
  pf "  do i = 1, n\n    do j = 1, n\n";
  pf "      a(i,j) = i + 2*j + mod(i*j, 5)\n";
  pf "      b(i,j) = 2*i - j + mod(i+j, 3)\n";
  pf "    end do\n  end do\n";
  List.iter
    (fun ((lhs, (li, lj)), refs) ->
      let sub (di, dj) =
        let f v d = if d = 0 then v else Printf.sprintf "%s%+d" v d in
        Printf.sprintf "%s,%s" (f "i" di) (f "j" dj)
      in
      pf "  do i = 2, n-1\n    do j = 2, n-1\n";
      let rhs =
        String.concat " + "
          (List.map (fun (arr, d) -> Printf.sprintf "0.5*%s(%s)" arr (sub d)) refs)
      in
      pf "      %s(%s) = %s + 1.0\n" lhs (sub (li, lj)) rhs;
      pf "    end do\n  end do\n")
    spec.ed_stmts;
  pf "end\n";
  Buffer.contents buf

let ed_gen =
  QCheck.Gen.(
    let shift = int_range (-1) 1 in
    let ref_ = pair (oneofl [ "a"; "b" ]) (pair shift shift) in
    let stmt =
      pair (pair (oneofl [ "a"; "b" ]) (pair shift shift))
        (list_size (int_range 1 2) ref_)
    in
    map
      (fun (dist, (aa, ab), stmts) ->
        { ed_dist = dist; ed_align_a = aa; ed_align_b = ab; ed_stmts = stmts })
      (triple (int_range 0 4)
         (pair (int_range 0 2) (int_range 0 2))
         (list_size (int_range 1 2) stmt)))

let prop_engines_differential =
  QCheck.Test.make ~count:25
    ~name:"closure engine bit-identical to the interpreter (incl. faults)"
    (QCheck.make ~print:ed_src ed_gen)
    (fun spec ->
      match Hpf.Sema.analyze_source (ed_src spec) with
      | chk -> (
          match Spmdsim.Diffcheck.engines ~nprocs:4 ~seeds:[ 1; 2 ] chk with
          | Spmdsim.Diffcheck.Pass _ -> true
          | out -> QCheck.Test.fail_reportf "%a" Spmdsim.Diffcheck.pp_outcome out
          | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
          | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ())

(* The closure engine's hot path allocates nothing: what a run allocates
   is per message and per collective. Ceilings are twice the measured
   minor words (9,455 and 29,939 words); boxing any per-element value
   again (the clock, an access result, a float operand) costs at least a
   word per element and blows through them — the engine before the
   allocation-free generator took 1,178,143 and 1,271,324. *)
let test_closure_allocation () =
  List.iter
    (fun (name, src, nprocs, ceiling) ->
      let prog = (compile src).Gen.cprog in
      let sim = Spmdsim.Exec.make ~engine:`Closure ~nprocs prog in
      let w0 = Gc.minor_words () in
      ignore (Spmdsim.Exec.run sim);
      let words = Gc.minor_words () -. w0 in
      if words > ceiling then
        Alcotest.failf "%s: %.0f minor words, ceiling %.0f" name words ceiling)
    [
      ("JACOBI-64", Codes.jacobi ~n:64 ~iters:2 ~procs:(Codes.Symbolic2 2) (), 4, 20_000.);
      ("TOMCATV-33", Codes.tomcatv ~n:33 ~iters:2 ~procs:(Codes.Symbolic2 1) (), 4, 60_000.);
    ]

let () =
  Alcotest.run "exec"
    [
      ( "machine",
        [
          Alcotest.test_case "ownership block" `Quick test_ownership_block;
          Alcotest.test_case "ownership cyclic" `Quick test_ownership_cyclic;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
          Alcotest.test_case "message cost" `Quick test_message_cost_visible;
          Alcotest.test_case "allreduce cost" `Quick test_allreduce_cost;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "parameter binding" `Quick test_param_binding;
          Alcotest.test_case "gauss cyclic split sections" `Quick
            test_gauss_cyclic_split_sections;
        ] );
      ( "engines",
        [
          Alcotest.test_case "double-run guard" `Quick test_double_run_guard;
          Alcotest.test_case "interp engine ownership" `Quick
            test_ownership_interp_engine;
          Alcotest.test_case "engines agree on gauss" `Quick
            test_engines_agree_gauss;
          QCheck_alcotest.to_alcotest prop_engines_differential;
          Alcotest.test_case "closure run allocation ceiling" `Quick
            test_closure_allocation;
        ] );
      ( "serial",
        [
          Alcotest.test_case "interpreter" `Quick test_serial_interpreter;
          Alcotest.test_case "subroutines and if" `Quick test_serial_subroutines_and_if;
          Alcotest.test_case "pinned flops, time and elements" `Quick test_serial_pinned;
          Alcotest.test_case "bounds error text" `Quick test_serial_bounds_errors;
          Alcotest.test_case "loop variable shadows a parameter" `Quick
            test_serial_loop_var_shadows_param;
          Alcotest.test_case "loop variable read in a callee" `Quick
            test_serial_loop_var_in_callee;
          Alcotest.test_case "errors raised only when run" `Quick
            test_serial_errors_only_when_run;
        ] );
    ]
