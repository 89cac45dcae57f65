(* sim-fig7: the paper's speed-of-generated-code experiment. The Figure-7
   programs are compiled once in set-up; each operation instantiates and
   runs one of them on the closure engine, one per program per round in
   seeded order. *)

open Common

type prog = { name : string; nprocs : int; r : reference }

let setup () =
  List.map
    (fun (name, src, nprocs) -> { name; nprocs; r = reference ~name ~nprocs src })
    (fig7 ())

type record = { prog : string; lat : float; ok : bool; msgs : int }

(* One operation: Exec.make + Exec.run, timed, from a collected heap as a
   one-shot [dhpfc run] starts; its output is then checked (untimed)
   against the oracle and the set-up run's clock and counters. *)
let op ?(engine = `Closure) ?domains ~opid p =
  Gc.full_major ();
  let t0 = now () in
  let sim, stats =
    Span.time ~op:opid "op" (fun root ->
        let sim =
          Span.time ~parent:root ~op:opid "make" (fun _ ->
              Spmdsim.Exec.make ~engine ?domains ~nprocs:p.nprocs p.r.r_compiled.Dhpf.Gen.cprog)
        in
        (sim, Span.time ~parent:root ~op:opid "run" (fun _ -> Spmdsim.Exec.run sim)))
  in
  let lat = now () -. t0 in
  let ok = same_stats stats p.r.r_stats && matches_oracle p.r.r_oracle sim in
  { prog = p.name; lat; ok; msgs = stats.Spmdsim.Exec.s_msgs }

let window ~rng ~seconds ~ops progs =
  rounds ~rng ~seconds ~ops progs (fun opid p ->
      let r = op ~opid p in
      (r, r.lat))

let bad recs = List.length (List.filter (fun r -> not r.ok) recs)

let untraced (o : opts) =
  let progs, setup_s, setup_raw = repeat_setup setup in
  settle ();
  warm_up progs (fun opid x -> op ~opid x);
  let rng = Random.State.make [| o.seed |] in
  let recs, _ =
    rounds ~rng ~seconds:o.seconds ~ops:min_ops progs
      (probed (fun opid x ->
           let r = op ~opid x in
           (r, r.lat)))
  in
  closed_outcome ~setup_s:(setup_s, setup_raw) ~per_round:(List.length progs)
    ~refs:(List.map (fun p -> p.r) progs)
    (List.map (fun (r, scale) -> (r.lat, r.ok, scale)) recs)

(* median make+run wall time of [reps] runs; every run is checked *)
let timed_runs ?engine ?domains ~reps p =
  let recs = List.init reps (fun i -> op ?engine ?domains ~opid:(-1 - i) p) in
  (median (List.map (fun r -> r.lat) recs), bad recs)

let traced (o : opts) =
  let progs = setup () in
  settle ();
  let rng = Random.State.make [| o.seed |] in
  let half = o.seconds /. 2.0 and hops = traced_ops in
  let plain, plain_busy = window ~rng ~seconds:half ~ops:hops progs in
  Span.on := true;
  let g0 = gc_now () in
  let recs, busy = window ~rng ~seconds:half ~ops:hops progs in
  let g1 = gc_now () in
  Span.on := false;
  let n = List.length recs in
  let tput rs b = div (float_of_int (List.length rs)) b in
  let prog_of = Array.of_list (List.map (fun r -> r.prog) recs) in
  let span_mean ?prog name =
    mean
      (List.filter_map
         (fun (s : Span.t) ->
           if prog = None || prog = Some prog_of.(s.op) then Some (Span.dur s) else None)
         (Span.named name))
  in
  (* the native engine on JACOBI-384: a cold kernel build into this run's
     empty kernel cache, then warm instantiations *)
  let jacobi = List.find (fun p -> p.name = "JACOBI-384") progs in
  let make_native () =
    Spmdsim.Exec.make ~engine:`Native ~nprocs:jacobi.nprocs jacobi.r.r_compiled.cprog
  in
  let (_ : Spmdsim.Exec.sim), build_cold_s = time make_native in
  let make_warm_s = median (List.init 3 (fun _ -> snd (time make_native))) in
  let run_only engine =
    let rs =
      List.init 3 (fun _ ->
          let sim = Spmdsim.Exec.make ~engine ~nprocs:jacobi.nprocs jacobi.r.r_compiled.cprog in
          let stats, dt = time (fun () -> Spmdsim.Exec.run sim) in
          (dt, same_stats stats jacobi.r.r_stats && matches_oracle jacobi.r.r_oracle sim))
    in
    (median (List.map fst rs), List.length (List.filter (fun (_, ok) -> not ok) rs))
  in
  let native_run_s, native_bad = run_only `Native in
  let closure_run_s, closure_bad = run_only `Closure in
  let par1, bad1 = timed_runs ~domains:1 ~reps:3 jacobi in
  let par2, bad2 = timed_runs ~domains:2 ~reps:3 jacobi in
  let wrong = bad plain + bad recs + native_bad + closure_bad + bad1 + bad2 in
  {
    attempted = List.length plain + n + 12;
    failed = wrong;
    wrong;
    samples = n;
    notes = [];
    metrics =
      [
        secs "spmdsim.make_s" (span_mean "make");
        secs "spmdsim.run_s" (span_mean "run");
      ]
      @ List.map (fun p -> secs ("spmdsim.run_s." ^ p.name) (span_mean ~prog:p.name "run")) progs
      @ [
          count "spmdsim.msgs" (mean (List.map (fun r -> float_of_int r.msgs) recs));
          secs "spmdsim.serial_s" (sum (List.map (fun p -> p.r.r_serial_s) progs));
          secs "spmdsim.native.build_cold_s" build_cold_s;
          secs "spmdsim.native.make_warm_s" make_warm_s;
          secs "spmdsim.native.run_s" native_run_s;
          ratio "spmdsim.native.speedup" (div closure_run_s native_run_s);
          ratio "par.sim_speedup" (div par1 par2);
        ]
      @ gc_metrics ~ops:n g0 g1
      @ [ ratio "obs.trace_overhead" (div (tput recs busy) (tput plain plain_busy)) ];
  }
