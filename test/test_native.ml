(* Native-engine differential suite: the generated-OCaml backend must be
   bit-identical to the closure engine and the tree-walking interpreter —
   element values, scalars, simulated clocks, message/byte counters and
   per-pair communication cells — on every built-in benchmark, under
   fault schedules, and on randomly generated programs. Also covers the
   source-hash build cache (second make of the same program must hit). *)

let three_way ?(seeds = [ 7; 21 ]) src =
  let chk = Hpf.Sema.analyze_source src in
  match Spmdsim.Diffcheck.engines ~seeds chk with
  | Spmdsim.Diffcheck.Pass _ -> ()
  | out -> Alcotest.failf "%a" Spmdsim.Diffcheck.pp_outcome out

(* one case per built-in benchmark, fault-free plus two fault schedules,
   all three engines agreeing exactly *)
let benchmark_cases =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Slow (fun () -> three_way src))
    (Codes.all_small ())

(* random programs: reuse the shape of the serial-oracle fuzzer (random
   distribution, alignments, stencil shifts) but assert the stronger
   three-engine bit-identity property instead of a tolerance check.
   Count is kept small because each distinct program costs one
   out-of-process ocamlopt build on a cold cache. *)
let gen_src =
  QCheck.Gen.(
    let shift = int_range (-1) 1 in
    let dist =
      oneofl
        [
          ("processors p(2)", "distribute t(block,*) onto p");
          ("processors p(2)", "distribute t(*,block) onto p");
          ("processors p(2,2)", "distribute t(block,block) onto p");
          ("processors p(2)", "distribute t(cyclic,*) onto p");
        ]
    in
    let align name =
      map
        (fun k ->
          match k with
          | 0 -> Printf.sprintf "align %s(i,j) with t(i,j)" name
          | 1 -> Printf.sprintf "align %s(i,j) with t(i+1,j)" name
          | _ -> Printf.sprintf "align %s(i,j) with t(j,i)" name)
        (int_range 0 2)
    in
    let ref_ = pair (oneofl [ "a"; "b" ]) (pair shift shift) in
    let stmt = pair ref_ (list_size (int_range 1 3) ref_) in
    map
      (fun ((procs, dist), (aa, ab), stmts) ->
        let buf = Buffer.create 1024 in
        let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
        pf "program nfuzz\n  parameter n = 9\n  real a(n,n), b(n,n)\n";
        pf "  %s\n  template t(n+1,n+1)\n  %s\n  %s\n  %s\n" procs aa ab dist;
        pf "  do i = 1, n\n    do j = 1, n\n";
        pf "      a(i,j) = i + 2*j + mod(i*j, 5)\n";
        pf "      b(i,j) = 2*i - j + mod(i+j, 3)\n";
        pf "    end do\n  end do\n";
        List.iter
          (fun ((lhs, ld), refs) ->
            let sub (di, dj) =
              let f v d = if d = 0 then v else Printf.sprintf "%s%+d" v d in
              Printf.sprintf "%s,%s" (f "i" di) (f "j" dj)
            in
            pf "  do i = 2, n-1\n    do j = 2, n-1\n";
            let rhs =
              String.concat " + "
                (List.map
                   (fun (arr, d) -> Printf.sprintf "0.5*%s(%s)" arr (sub d))
                   refs)
            in
            pf "      %s(%s) = %s + 1.0\n" lhs (sub ld) rhs;
            pf "    end do\n  end do\n")
          stmts;
        pf "end\n";
        Buffer.contents buf)
      (triple dist
         (pair (align "a") (align "b"))
         (list_size (int_range 1 2) stmt)))

let prop_three_way_random =
  QCheck.Test.make ~count:5
    ~name:"random programs are bit-identical across all three engines"
    (QCheck.make ~print:Fun.id gen_src)
    (fun src ->
      match Hpf.Sema.analyze_source src with
      | chk -> (
          match Spmdsim.Diffcheck.engines ~seeds:[ 1 ] chk with
          | Spmdsim.Diffcheck.Pass _ -> true
          | out ->
              QCheck.Test.fail_reportf "%a" Spmdsim.Diffcheck.pp_outcome out
          | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
          | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ())

(* Every intrinsic at its arity (unary: abs sqrt exp log sin cos float;
   binary: max min mod sign) in [b]; NaN operands ([x = sqrt(-1.0)]) in
   all six float comparisons ([c]) and in the binary intrinsics ([g] and
   [w], kept apart so NaN does not mask the other results); an
   array-reduction target ([s], kept sparse); and a rank-4 array ([q],
   the general access path). *)
let intrinsics_src = {|program intrin
  parameter n = 8
  real a(n,n), b(n,n), w(n,n), s(n), q(2,2,3,n)
  real x, c, e, g
  processors p(number_of_processors())
  template t(n,n)
  align a(i,j) with t(i,j)
  align b(i,j) with t(i,j)
  align w(i,j) with t(i,j)
  distribute t(*,block) onto p

  do j = 1, n
    do i = 1, n
      a(i,j) = 0.5*i - 0.25*j + mod(i*j, 3)
      b(i,j) = 0.0
    end do
  end do
  x = sqrt(-1.0)
  c = 0.0
  if (x < 1.0) then
    c = c + 1.0
  end if
  if (x <= 1.0) then
    c = c + 2.0
  end if
  if (x > 1.0) then
    c = c + 4.0
  end if
  if (x >= 1.0) then
    c = c + 8.0
  end if
  if (x == x) then
    c = c + 16.0
  end if
  if (x /= x) then
    c = c + 32.0
  end if
  do j = 2, n
    do i = 1, n
      b(i,j) = abs(a(i,j)) + sqrt(abs(a(i,j-1))) + exp(0.1*a(i,j)) + log(1.0 + abs(a(i,j))) + sin(a(i,j)) + cos(a(i,j-1)) + float(i) + max(a(i,j), a(i,j-1)) + min(a(i,j), 0.5) + mod(a(i,j), 0.75) + sign(a(i,j), a(i,j-1)) + sign(1.5, -0.0)
      w(i,j) = max(x, a(i,j)) + min(a(i,j), x) + mod(x, a(i,j)) + sign(a(i,j), x)
    end do
  end do
  g = max(x, 1.0) + min(1.0, x)
  do j = 1, n
    s(j) = 0.0
  end do
  do j = 1, n
    do i = 1, n
      s(i) = s(i) + b(i,j)
    end do
  end do
  do j = 1, n
    if (s(j) > x) then
      s(j) = s(j) + 100.0
    else
      s(j) = s(j) - 1.0
    end if
  end do
  do l = 1, n
    do k = 1, 3
      do j = 1, 2
        do i = 1, 2
          q(i,j,k,l) = i + 2*j + 3*k + 0.5*l + s(l)
        end do
      end do
    end do
  end do
  e = 0.0
  do j = 1, n
    do i = 1, n
      e = max(e, abs(b(i,j)))
    end do
  end do
end program intrin
|}

let rec has_checked (e : Dhpf.Spmd.fexpr) =
  match e with
  | Dhpf.Spmd.FLoad { access = Dhpf.Spmd.Checked; _ } -> true
  | FNeg a -> has_checked a
  | FBin (_, a, b) -> has_checked a || has_checked b
  | FIntrin (_, args) -> List.exists has_checked args
  | FConst _ | FOfInt _ | FScalar _ | FLoad _ -> false

(* three-way identity with fault seeds, with loop splitting on and off:
   without splitting, the boundary reads become [Checked] accesses *)
let test_intrinsics () =
  let chk = Hpf.Sema.analyze_source intrinsics_src in
  let no_split = { Dhpf.Gen.default_options with opt_split = false } in
  let prog = (Dhpf.Gen.compile ~opts:no_split chk).Dhpf.Gen.cprog in
  let checked = ref false and array_reduce = ref false in
  Dhpf.Spmd.iter_program
    (function
      | Dhpf.Spmd.Store { value; _ } | SetScalar (_, value) ->
          if has_checked value then checked := true
      | Reduce { scalar = "s"; _ } -> array_reduce := true
      | _ -> ())
    prog;
  Alcotest.(check bool) "a Checked access is exercised" true !checked;
  Alcotest.(check bool) "an array reduction is exercised" true !array_reduce;
  Alcotest.(check bool) "a rank-4 array is exercised" true
    (List.exists
       (fun (ad : Dhpf.Spmd.array_decl) -> List.length ad.ad_bounds = 4)
       prog.Dhpf.Spmd.arrays);
  List.iter
    (fun opts ->
      match Spmdsim.Diffcheck.engines ~opts ~seeds:[ 7; 21 ] chk with
      | Spmdsim.Diffcheck.Pass _ -> ()
      | out -> Alcotest.failf "%a" Spmdsim.Diffcheck.pp_outcome out)
    [ Dhpf.Gen.default_options; no_split ]

(* a subscript the interval analysis cannot prove in bounds (i + 1 runs
   to n + 1), and an intrinsic at an arity it does not have *)
let oob_src = {|program oob
  parameter n = 8
  real a(n,n), b(n,n)
  processors p(number_of_processors())
  template t(n,n)
  align a(i,j) with t(i,j)
  align b(i,j) with t(i,j)
  distribute t(*,block) onto p

  do j = 1, n
    do i = 1, n
      a(i,j) = i + j
    end do
  end do
  do j = 1, n
    do i = 1, n
      b(i,j) = a(i+1,j)
    end do
  end do
end program oob
|}

let unknown_intrinsic_src = {|program unk
  parameter n = 8
  real a(n,n)
  processors p(number_of_processors())
  template t(n,n)
  align a(i,j) with t(i,j)
  distribute t(*,block) onto p

  do j = 1, n
    do i = 1, n
      a(i,j) = abs(i, j)
    end do
  end do
end program unk
|}

(* every engine fails with the same text *)
let test_error_texts () =
  List.iter
    (fun (what, src, want) ->
      let prog = (Dhpf.Gen.compile (Hpf.Sema.analyze_source src)).Dhpf.Gen.cprog in
      let error engine =
        match Spmdsim.Exec.run (Spmdsim.Exec.make ~engine ~nprocs:4 prog) with
        | _ -> "no error"
        | exception Spmdsim.Exec.Error m -> m
        | exception Spmdsim.Serial.Error m -> m
      in
      let interp = error `Interp in
      Alcotest.(check string) (what ^ ": interp") want interp;
      Alcotest.(check string) (what ^ ": closure") interp (error `Closure);
      Alcotest.(check string) (what ^ ": native") interp (error `Native))
    [
      ("out-of-bounds subscript", oob_src, "array a: index 9 outside [1,8] (dim 1)");
      ("unknown intrinsic", unknown_intrinsic_src, "unknown intrinsic abs/2");
    ]

(* Loop variables share one integer slot per name, so a subroutine that
   loops over the same name, or an inner loop over it, leaves its last
   counter in the slot. The interval analysis must not prove a subscript
   through such a variable in bounds: here [b(i)] would otherwise index a
   4-element array with 8, unchecked. Three shapes: the call before the
   access, the call after it inside an inner loop (the next iteration reads
   the clobbered slot), and an inner loop over the same name. *)
let clobber_src = {|program clob
  parameter n = 4
  real a(n), b(n)
  real s
  processors p(2)
  template t(n)
  align a(i) with t(i)
  distribute t(block) onto p

  do i = 1, n
    call g
    b(i) = 1.0
  end do
end program clob
subroutine g
  do i = 1, 8
    s = s + 1.0
  end do
end
|}

let test_clobbered_loop_vars () =
  let prog =
    (Dhpf.Gen.compile (Hpf.Sema.analyze_source clobber_src)).Dhpf.Gen.cprog
  in
  let open Iset.Codegen in
  let store =
    Dhpf.Spmd.Store
      { arr = "b"; idx = [ EVar "i" ]; value = FConst 1.0; access = Local }
  in
  let loop var hi body =
    Dhpf.Spmd.For { var; lo = EInt 1; hi = EInt hi; step = EInt 1; body }
  in
  List.iter
    (fun (what, main) ->
      let prog = { prog with Dhpf.Spmd.main } in
      let counts = ref (-1, -1) in
      ignore
        (Spmdsim.Compile.make_with
           (fun _ k ->
             counts := (k.Spmdsim.Imp.k_proven, k.Spmdsim.Imp.k_unproven);
             fun _ -> ())
           ~nprocs:2 prog);
      Alcotest.(check (pair int int))
        (what ^ ": b(i) keeps its check") (0, 1) !counts;
      let error =
        match Spmdsim.Exec.run (Spmdsim.Exec.make ~engine:`Closure ~nprocs:2 prog) with
        | _ -> "no error"
        | exception Spmdsim.Exec.Error m -> m
      in
      Alcotest.(check string) (what ^ ": closure")
        "array b: index 8 outside [1,4] (dim 1)" error)
    [
      ("call, then access", [ loop "i" 4 [ Call "g"; store ] ]);
      ("access, then call", [ loop "i" 4 [ loop "j" 2 [ store; Call "g" ] ] ]);
      ("inner loop over the same name", [ loop "i" 4 [ loop "i" 8 []; store ] ]);
    ]

(* the source-hash cache: building the same program twice into a fresh
   cache directory must invoke the compiler exactly once and hit on the
   second make, and both runs must produce bit-identical results *)
let test_cache_hit () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dhpf-native-test-%d" (Unix.getpid ()))
  in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let chk = Hpf.Sema.analyze_source (Codes.jacobi ()) in
  let cprog = (Dhpf.Gen.compile chk).Dhpf.Gen.cprog in
  let run () =
    let sim = Spmdsim.Native.make ~cache_dir:dir ~nprocs:4 cprog in
    ignore (Spmdsim.Compile.run sim);
    sim
  in
  let s1 = run () in
  let s2 = run () in
  let find name =
    List.find_opt
      (fun s -> s.Obs.Metrics.m_name = name)
      (Obs.Metrics.snapshot ())
  in
  (match find "native/build_s" with
  | Some { m_value = VHisto h; _ } ->
      Alcotest.(check int) "exactly one compiler invocation" 1 h.hs_count
  | _ -> Alcotest.fail "native/build_s histogram missing");
  (match find "native/cache_hit" with
  | Some { m_value = VCounter c; _ } ->
      Alcotest.(check bool) "second make hit the cache" true (c >= 1.0)
  | _ -> Alcotest.fail "native/cache_hit counter missing");
  List.iter
    (fun idx ->
      let a = Spmdsim.Compile.get_elem s1 "a" idx in
      let b = Spmdsim.Compile.get_elem s2 "a" idx in
      Alcotest.(check bool)
        (Printf.sprintf "a(%s) bit-identical across cache hit"
           (String.concat "," (List.map string_of_int idx)))
        true
        (Int64.bits_of_float a = Int64.bits_of_float b))
    [ [ 1; 1 ]; [ 8; 8 ]; [ 128; 128 ] ];
  Obs.Metrics.disable ();
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* the --diff-engines report says what it compared, and a divergence
   names the engine that produced the wrong value *)
let test_report_texts () =
  let chk = Hpf.Sema.analyze_source (List.assoc "jacobi" (Codes.all_small ())) in
  Alcotest.(check string)
    "success line"
    "diffcheck: 2 run(s): the closure and native engines matched the \
     interpreter bit for bit"
    (Fmt.str "%a" Spmdsim.Diffcheck.pp_outcome
       (Spmdsim.Diffcheck.engines ~seeds:[ 7 ] chk));
  Alcotest.(check string)
    "divergence line"
    "diffcheck: DIVERGENCE in the native engine: a(3,4): expected 1.5, got 2 \
     (fault seed 7)"
    (Fmt.str "%a" Spmdsim.Diffcheck.pp_outcome
       (Spmdsim.Diffcheck.Diverged
          {
            dv_seed = Some 7;
            dv_engine = `Native;
            dv_array = "a";
            dv_index = [ 3; 4 ];
            dv_expected = 1.5;
            dv_got = 2.0;
          }))

let () =
  Alcotest.run "native"
    [
      ("benchmarks", benchmark_cases);
      ( "coverage",
        [
          Alcotest.test_case "intrinsics, NaN, Checked, sparse, rank 4" `Slow
            test_intrinsics;
          Alcotest.test_case "identical error texts" `Slow test_error_texts;
          Alcotest.test_case "clobbered loop variables stay checked" `Quick
            test_clobbered_loop_vars;
          Alcotest.test_case "diff-engines report texts" `Slow test_report_texts;
        ] );
      ( "random",
        List.map QCheck_alcotest.to_alcotest [ prop_three_way_random ] );
      ( "cache",
        [ Alcotest.test_case "source-hash cache hit" `Slow test_cache_hit ] );
    ]
