(* compile-table1: the paper's compile-time experiment. Each round
   compiles the three Table-1 applications once, in seeded order, each
   from a cold integer-set memo, as a one-shot [dhpfc compile] does. *)

open Common

(* Table-1 rows, as Dhpf.Phase labels *)
let phases =
  [
    ("layout_s", "layout construction");
    ("partitioning_s", "partitioning computation");
    ("comm_analysis_s", "communication analysis");
    ("loop_splitting_s", "loop splitting");
    ("bounds_reduction_s", "loop bounds reduction");
    ("comm_generation_s", "communication generation");
    ("msg_sizes_s", "loops to compute msg sizes");
    ("comm_partners_s", "loops over comm partners");
    ("contiguity_s", "check if msg is contiguous");
  ]

type app = { name : string; src : string; r : reference }

let setup () =
  List.map
    (fun (name, src, nprocs) ->
      Iset.Cache.clear_all ();
      { name; src; r = reference ~name ~nprocs src })
    (table1 ())

(* one measured record per operation *)
type record = {
  app : string;
  lat : float;
  ok : bool;
  phase : Dhpf.Phase.t;
  events : int;
  iset : (string * int) list;  (** counter delta of this compile *)
  conjuncts : int;
}

(* One operation: sema + compile + SPMD emission, timed. First, untimed,
   the memo is cleared and the heap collected, so every compile starts
   from a cold memo and a collected heap, as a one-shot [dhpfc compile]
   does. *)
let op ~opid (a : app) =
  Iset.Cache.clear_all ();
  Gc.full_major ();
  let before = Iset.Stats.report () in
  let phase = Dhpf.Phase.create () in
  let t0 = now () in
  let text, events =
    Span.time ~op:opid "op" (fun root ->
        let span name f = Span.time ~parent:root ~op:opid name (fun _ -> f ()) in
        let chk = span "sema" (fun () -> Hpf.Sema.analyze_source a.src) in
        let c = span "compile" (fun () -> Dhpf.Gen.compile ~phase chk) in
        ( span "print" (fun () -> Dhpf.Spmd.program_to_string c.Dhpf.Gen.cprog),
          List.length c.Dhpf.Gen.cevents ))
  in
  let lat = now () -. t0 in
  let after = Iset.Stats.report () in
  {
    app = a.name;
    lat;
    ok = String.equal text a.r.r_text;
    phase;
    events;
    iset = iset_delta before after;
    conjuncts = int_of_float (get after "interned conjuncts");
  }

let window ~rng ~seconds ~ops apps =
  rounds ~rng ~seconds ~ops apps (fun opid a ->
      let r = op ~opid a in
      (r, r.lat))

let bad recs = List.length (List.filter (fun r -> not r.ok) recs)

let untraced (o : opts) =
  let apps, setup_s, setup_raw = repeat_setup setup in
  settle ();
  warm_up apps (fun opid x -> op ~opid x);
  let rng = Random.State.make [| o.seed |] in
  let recs, _ =
    rounds ~rng ~seconds:o.seconds ~ops:min_ops apps
      (probed (fun opid x ->
           let r = op ~opid x in
           (r, r.lat)))
  in
  closed_outcome ~setup_s:(setup_s, setup_raw) ~per_round:(List.length apps)
    ~refs:(List.map (fun a -> a.r) apps)
    (List.map (fun (r, scale) -> (r.lat, r.ok, scale)) recs)

(* median wall time of [reps] cold compiles of one program *)
let cold_compile_s ?domains ~reps src =
  let chk = Hpf.Sema.analyze_source src in
  median
    (List.init reps (fun _ ->
         Iset.Cache.clear_all ();
         snd (time (fun () -> Dhpf.Gen.compile ?domains chk))))

let traced (o : opts) =
  let apps = setup () in
  settle ();
  let rng = Random.State.make [| o.seed |] in
  let half = o.seconds /. 2.0 and hops = traced_ops in
  let plain, plain_busy = window ~rng ~seconds:half ~ops:hops apps in
  Span.on := true;
  let g0 = gc_now () in
  let recs, busy = window ~rng ~seconds:half ~ops:hops apps in
  let g1 = gc_now () in
  Span.on := false;
  let n = List.length recs in
  let tput rs b = div (float_of_int (List.length rs)) b in
  let span_mean ?app name =
    let ids =
      List.filter_map
        (fun (i, r) -> if app = None || app = Some r.app then Some i else None)
        (List.mapi (fun i r -> (i, r)) recs)
    in
    mean
      (List.filter_map
         (fun (s : Span.t) -> if List.mem s.op ids then Some (Span.dur s) else None)
         (Span.named name))
  in
  let compile_of a = span_mean ~app:a "compile" in
  let delta =
    List.fold_left
      (fun acc r -> List.map (fun (k, v) -> (k, v + int_of_float (get r.iset k))) acc)
      (List.map (fun (k, _) -> (k, 0)) (List.hd recs).iset)
      recs
  in
  let sp_sym_src = (List.find (fun a -> a.name = "SP-sym") apps).src in
  let memo_on = cold_compile_s ~reps:3 sp_sym_src in
  Iset.Cache.set_enabled false;
  let memo_off = cold_compile_s ~reps:3 sp_sym_src in
  Iset.Cache.set_enabled true;
  let par1 = cold_compile_s ~domains:1 ~reps:3 sp_sym_src in
  let par2 = cold_compile_s ~domains:2 ~reps:3 sp_sym_src in
  let serve = Serve_wl.probe ~rundir:o.rundir ~seed:o.seed in
  let wrong = bad plain + bad recs in
  {
    attempted = List.length plain + n + serve.p_attempted;
    failed = wrong + serve.p_failed;
    wrong = wrong + serve.p_wrong;
    samples = n;
    notes = serve.p_notes;
    metrics =
      [
        secs "hpf.sema_s" (span_mean "sema");
        secs "dhpf.compile_s" (span_mean "compile");
      ]
      @ List.map (fun a -> secs ("dhpf.compile_s." ^ a.name) (compile_of a.name)) apps
      @ [ ratio "dhpf.sym_over_fixed" (div (compile_of "SP-sym") (compile_of "SP-4")) ]
      @ List.map
          (fun (m, label) ->
            secs ("dhpf.phase." ^ m)
              (mean (List.map (fun r -> Dhpf.Phase.total r.phase label) recs)))
          phases
      @ [
          secs "dhpf.print_s" (span_mean "print");
          count "dhpf.comm_events" (mean (List.map (fun r -> float_of_int r.events) recs));
        ]
      @ iset_metrics ~ops:n
          ~gauges:(mean (List.map (fun r -> float_of_int r.conjuncts) recs))
          delta
      @ [
          ratio "iset.memo_speedup" (div memo_off memo_on);
          ratio "par.compile_speedup" (div par1 par2);
          secs "spmdsim.serial_s" (sum (List.map (fun a -> a.r.r_serial_s) apps));
        ]
      @ gc_metrics ~ops:n g0 g1
      @ [ ratio "obs.trace_overhead" (div (tput recs busy) (tput plain plain_busy)) ]
      @ serve.p_metrics;
  }
