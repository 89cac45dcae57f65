(* Differential resilience harness: serial oracle vs. SPMD execution under
   seeded fault schedules. See diffcheck.mli. *)

type divergence = {
  dv_seed : int option;
  dv_engine : Exec.engine;
  dv_array : string;
  dv_index : int list;
  dv_expected : float;
  dv_got : float;
}

type outcome =
  | Pass of { runs : int; compared : string }
  | Diverged of divergence
  | Crashed of { seed : int option; error : string }

exception Found of divergence

(* relative tolerance, same as the end-to-end suite: floating summation
   order in reductions is deterministic but may differ from the serial
   interpreter's association *)
let close want got = abs_float (want -. got) <= 1e-6 *. (abs_float want +. 1.0)

let compile ?opts chk =
  match opts with
  | Some opts -> Dhpf.Gen.compile ~opts chk
  | None -> Dhpf.Gen.compile chk

(* every array's extents, evaluated over the startup parameter
   environment *)
let array_bounds ~nprocs ~params (cprog : Dhpf.Spmd.program) =
  let su = Runtime.setup ~nprocs ~params cprog in
  let geval = Runtime.eval_genv su.Runtime.su_genv in
  List.map
    (fun (ad : Dhpf.Spmd.array_decl) ->
      ( ad.Dhpf.Spmd.ad_name,
        List.map (fun (lo, hi) -> (geval lo, geval hi)) ad.ad_bounds ))
    cprog.Dhpf.Spmd.arrays

(* the fault-free run first, then one fault schedule per seed; [one]
   returns [Some outcome] on the first failure *)
let over_schedules ~compared ~spec_of_seed ~seeds one =
  let rec go runs = function
    | [] -> Pass { runs; compared }
    | (seed, faults) :: rest -> (
        match
          try one faults seed with
          | Exec.Deadlock d ->
              Some (Crashed { seed; error = Exec.diagnostic_to_string d })
          | Exec.Error msg -> Some (Crashed { seed; error = msg })
        with
        | None -> go (runs + 1) rest
        | Some bad -> bad)
  in
  go 0 ((None, None) :: List.map (fun s -> (Some s, Some (spec_of_seed s))) seeds)

let compare_run ~seed ~engine (chk : Hpf.Sema.checked) (sref : Serial.result) sim =
  try
    Hashtbl.iter
      (fun aname (ai : Hpf.Sema.array_info) ->
        let bounds =
          List.map
            (fun (lo, hi) ->
              ( Serial.eval_iexpr sref.Serial.r_state lo,
                Serial.eval_iexpr sref.Serial.r_state hi ))
            ai.Hpf.Sema.adims
        in
        let rec go idx = function
          | [] ->
              let idx = List.rev idx in
              let want = Serial.get_elem sref aname idx in
              let got = Exec.get_elem sim aname idx in
              if not (close want got) then
                raise
                  (Found
                     {
                       dv_seed = seed;
                       dv_engine = engine;
                       dv_array = aname;
                       dv_index = idx;
                       dv_expected = want;
                       dv_got = got;
                     })
          | (lo, hi) :: rest ->
              for x = lo to hi do
                go (x :: idx) rest
              done
        in
        go [] bounds)
      chk.Hpf.Sema.env.Hpf.Sema.arrays;
    None
  with Found d -> Some d

let run ?(engine = `Closure) ?machine ?(nprocs = 4) ?(params = []) ?opts
    ?(spec_of_seed = fun seed -> Fault.default ~seed) ~seeds
    (chk : Hpf.Sema.checked) : outcome =
  let cprog = (compile ?opts chk).Dhpf.Gen.cprog in
  let sref = Serial.run ?machine ~params chk in
  over_schedules ~spec_of_seed ~seeds
    ~compared:
      (Printf.sprintf "the %s engine matched the serial oracle"
         (Exec.engine_to_string engine))
    (fun faults seed ->
      let sim = Exec.make ~engine ?machine ?faults ~nprocs ~params cprog in
      let _ = Exec.run sim in
      Option.map (fun d -> Diverged d) (compare_run ~seed ~engine chk sref sim))

(* ------------------------------------------------------------------ *)
(* Engine-differential mode: closure engine vs. tree-walking           *)
(* interpreter on the same program, seed and fault schedule.           *)
(* ------------------------------------------------------------------ *)

(* Unlike the serial comparison above — which tolerates reassociated
   floating summation — the two engines share the transport and charge
   clock time in the same order, so the contract here is exact:
   bit-identical element values and scalars, bit-identical simulated
   clocks, and identical message/byte/element/retransmit counters. *)
let bit_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* every Runtime.stats field as a (name, a, b) triple, compared bitwise by
   the engine-differential mode below *)
let stat_fields (a : Exec.stats) (b : Exec.stats) =
  [
    ("time", a.Exec.s_time, b.Exec.s_time);
    ("msgs", float_of_int a.s_msgs, float_of_int b.s_msgs);
    ("bytes", float_of_int a.s_bytes, float_of_int b.s_bytes);
    ("elems", float_of_int a.s_elems, float_of_int b.s_elems);
    ( "retransmits",
      float_of_int a.s_retransmits,
      float_of_int b.s_retransmits );
    ("timeouts", float_of_int a.s_timeouts, float_of_int b.s_timeouts);
    ( "dups_delivered",
      float_of_int a.s_dups_delivered,
      float_of_int b.s_dups_delivered );
    ( "max_mailbox",
      float_of_int a.s_max_mailbox,
      float_of_int b.s_max_mailbox );
    ("crashes", float_of_int a.s_crashes, float_of_int b.s_crashes);
    ("recoveries", float_of_int a.s_recoveries, float_of_int b.s_recoveries);
    ("ckpts", float_of_int a.s_ckpts, float_of_int b.s_ckpts);
    ("ckpt_bytes", float_of_int a.s_ckpt_bytes, float_of_int b.s_ckpt_bytes);
    ("lost_work", a.s_lost_work, b.s_lost_work);
  ]

let compare_engines ~seed ~engine bounds scalars si sc =
  try
    List.iter
      (fun (aname, dims) ->
        let rec go idx = function
          | [] ->
              let idx = List.rev idx in
              let want = Exec.get_elem si aname idx in
              let got = Exec.get_elem sc aname idx in
              if not (bit_equal want got) then
                raise
                  (Found
                     {
                       dv_seed = seed;
                       dv_engine = engine;
                       dv_array = aname;
                       dv_index = idx;
                       dv_expected = want;
                       dv_got = got;
                     })
          | (lo, hi) :: rest ->
              for x = lo to hi do
                go (x :: idx) rest
              done
        in
        go [] dims)
      bounds;
    List.iter
      (fun name ->
        match (Exec.get_scalar si name, Exec.get_scalar sc name) with
        | want, got ->
            if not (bit_equal want got) then
              raise
                (Found
                   {
                     dv_seed = seed;
                     dv_engine = engine;
                     dv_array = name;
                     dv_index = [];
                     dv_expected = want;
                     dv_got = got;
                   })
        (* a scalar the program declares but never assigns is absent from
           both engines' environments *)
        | exception Exec.Error _ -> ())
      scalars;
    None
  with Found d -> Some d

let engines ?machine ?(nprocs = 4) ?(params = []) ?opts
    ?(spec_of_seed = fun seed -> Fault.default ~seed) ~seeds
    (chk : Hpf.Sema.checked) : outcome =
  let cprog = (compile ?opts chk).Dhpf.Gen.cprog in
  let bounds = array_bounds ~nprocs ~params cprog in
  over_schedules ~spec_of_seed ~seeds
    ~compared:"the closure and native engines matched the interpreter bit for bit"
    (fun faults seed ->
      let si = Exec.make ~engine:`Interp ?machine ?faults ~nprocs ~params cprog in
      let sti = Exec.run si in
      (* each engine under test runs on its own transport but sees the
         identical fault schedule, and must match the interpreter exactly:
         counters, per-processor clocks, per-pair communication cells,
         then every element and scalar bit for bit *)
      let against engine =
        let label = Exec.engine_to_string engine in
        let mismatch fmt =
          Printf.ksprintf (fun error -> Some (Crashed { seed; error })) fmt
        in
        let sc = Exec.make ~engine ?machine ?faults ~nprocs ~params cprog in
        let stc = Exec.run sc in
        match
          List.find_opt (fun (_, a, b) -> not (bit_equal a b)) (stat_fields sti stc)
        with
        | Some (field, a, b) ->
            mismatch "engine counter mismatch: %s interp=%.17g %s=%.17g" field a
              label b
        | None -> (
            let times = sti.Exec.s_proc_times and timec = stc.Exec.s_proc_times in
            match
              List.find_opt
                (fun p -> not (bit_equal times.(p) timec.(p)))
                (List.init (Array.length times) Fun.id)
            with
            | Some p ->
                mismatch "engine clock mismatch: proc %d interp=%.17g %s=%.17g" p
                  times.(p) label timec.(p)
            | None ->
                if Exec.comm_cells si <> Exec.comm_cells sc then
                  mismatch "engine comm-cell mismatch: interp vs %s" label
                else
                  Option.map
                    (fun d -> Diverged d)
                    (compare_engines ~seed ~engine bounds
                       cprog.Dhpf.Spmd.scalars si sc))
      in
      match against `Closure with Some bad -> Some bad | None -> against `Native)

(* ------------------------------------------------------------------ *)
(* Crash-differential mode: checkpoint/restart recovery vs. the        *)
(* fault-free closure run of the same program.                         *)
(* ------------------------------------------------------------------ *)

(* The recovery contract is the strongest of the three: crashes plus
   coordinated checkpoint/restart must leave every element and scalar
   bit-identical to the fault-free run on BOTH engines, and the
   first-transmission-only per-pair communication table must be exactly
   fault-invariant (what keeps `--check-comm` exact under crashes). *)
let crashes ?machine ?(nprocs = 4) ?(params = []) ?opts ?(ckpt_every = 8)
    ?(spec_of_seed =
      fun seed -> { Fault.none with seed; crash_prob = 0.02; crash_max = 3 })
    ~seeds (chk : Hpf.Sema.checked) : outcome =
  let cprog = (compile ?opts chk).Dhpf.Gen.cprog in
  let bounds = array_bounds ~nprocs ~params cprog in
  match
    let sref = Exec.make ~engine:`Closure ?machine ~nprocs ~params cprog in
    let _ = Exec.run sref in
    let cells_ref = Exec.comm_cells sref in
    let one ~engine seed =
      let rep =
        Checkpoint.run ~engine ?machine ~faults:(spec_of_seed seed)
          ~ckpt_every ~nprocs ~params cprog
      in
      match
        compare_engines ~seed:(Some seed) ~engine bounds
          cprog.Dhpf.Spmd.scalars sref rep.Checkpoint.rp_sim
      with
      | Some d -> Error (Diverged d)
      | None ->
          if Exec.comm_cells rep.Checkpoint.rp_sim <> cells_ref then
            Error
              (Crashed
                 {
                   seed = Some seed;
                   error =
                     Printf.sprintf
                       "per-pair communication table not fault-invariant \
                        under crash recovery (%s engine, %d crash(es))"
                       (Exec.engine_to_string engine)
                       rep.Checkpoint.rp_stats.Runtime.s_crashes;
                 })
          else Ok ()
    in
    let rec go runs = function
      | [] ->
          Pass
            {
              runs;
              compared =
                "crash-recovered interp and closure runs matched the \
                 fault-free closure run bit for bit";
            }
      | (engine, seed) :: rest -> (
          match one ~engine seed with
          | Ok () -> go (runs + 1) rest
          | Error bad -> bad)
    in
    go 0
      (List.concat_map
         (fun s -> [ (`Interp, s); (`Closure, s) ])
         seeds)
  with
  | outcome -> outcome
  | exception Exec.Deadlock d ->
      Crashed { seed = None; error = Exec.diagnostic_to_string d }
  | exception Exec.Error msg -> Crashed { seed = None; error = msg }

let pp_outcome fmt = function
  | Pass { runs; compared } -> Fmt.pf fmt "diffcheck: %d run(s): %s" runs compared
  | Diverged d ->
      Fmt.pf fmt
        "diffcheck: DIVERGENCE in the %s engine: %s(%s): expected %.9g, got \
         %.9g (%s)"
        (Exec.engine_to_string d.dv_engine)
        d.dv_array
        (String.concat "," (List.map string_of_int d.dv_index))
        d.dv_expected d.dv_got
        (match d.dv_seed with
        | None -> "fault-free run"
        | Some s -> Printf.sprintf "fault seed %d" s)
  | Crashed { seed; error } ->
      Fmt.pf fmt "diffcheck: CRASH under %s:@.%s"
        (match seed with
        | None -> "fault-free run"
        | Some s -> Printf.sprintf "fault seed %d" s)
        error
