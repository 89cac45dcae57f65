(* Shared plumbing of the stack benchmark: run options, metric rows,
   percentiles, process counters, seeded orders and the serial-oracle
   element check. *)

type opts = {
  seed : int;
  seconds : float;
  rundir : string;
      (** working directory owned by this run (disk caches, sockets,
          kernel cache), relative to the checkout root *)
}

type metric = { name : string; value : float; unit_ : string }

let metric unit_ name value = { name; value; unit_ }
let secs = metric "s"
let count = metric "count"
let ratio = metric "ratio"

type outcome = {
  attempted : int;
  failed : int;  (** failed, refused or wrong-output operations *)
  wrong : int;  (** wrong outputs; any makes the command exit non-zero *)
  samples : int;  (** latency samples behind the percentiles *)
  notes : (string * string) list;  (** extra provenance lines *)
  metrics : metric list;
}

(* Each operation runs at least this many times per run, so that p90 keeps
   at least ten samples above it. *)
let min_ops = 100

(* A traced run measures an untraced and a traced window of at least this
   many operations each (and half the run length), then its extra layer
   probes; its figures are means, not tail percentiles. *)
let traced_ops = 30

(* Set-up is repeated this many times per run and its median reported. *)
let setup_reps = 3

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile of a sorted array *)
let pctl q a =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l = pctl 0.5 (sorted l)
let sum = List.fold_left ( +. ) 0.0
let div a b = if b = 0.0 then 0.0 else a /. b
let mean l = div (sum l) (float_of_int (List.length l))

(* Host scale of a stretch of work between two probes: the probe's
   reference time over the mean of the two probe times (see Hostprobe). *)
let host_scale p0 p1 = Hostprobe.reference_s /. ((p0 +. p1) /. 2.0)

(* [setup_reps] set-ups, each from a collected heap and between two host
   probes; the state of the last one is kept. Returns the median
   host-scaled time and the median raw time. *)
let repeat_setup f =
  let rec go k scaled raw =
    Gc.full_major ();
    let p0 = Hostprobe.run () in
    let st, dt = time f in
    let p1 = Hostprobe.run () in
    let scaled = (dt *. host_scale p0 p1) :: scaled and raw = dt :: raw in
    if k <= 1 then (st, median scaled, median raw) else go (k - 1) scaled raw
  in
  go setup_reps [] []

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- process counters ---- *)

(* peak resident set ("self" or a pid) from /proc, in MiB *)
let vmhwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let l = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else go ()
      in
      go ())

type gc = { minor_words : float; majors : int; top_heap_words : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    majors = s.Gc.major_collections;
    top_heap_words = s.Gc.top_heap_words;
  }

let gc_metrics ~ops (a : gc) (b : gc) =
  let n = float_of_int (max 1 ops) in
  [
    metric "Mwords" "gc.minor_mw_per_op" ((b.minor_words -. a.minor_words) /. n /. 1e6);
    count "gc.major_per_op" (float_of_int (b.majors - a.majors) /. n);
    metric "MB" "gc.top_heap_mb"
      (float_of_int (b.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  ]

(* ---- integer-set engine counters ---- *)

let iset_delta before after =
  List.map
    (fun (n, v) -> (n, v - Option.value (List.assoc_opt n before) ~default:0))
    after

let get kvs k = float_of_int (Option.value (List.assoc_opt k kvs) ~default:0)

(* The per-operation iset rows from a counter delta over [ops] operations
   ([gauges] supplies the live-state readings). *)
let iset_metrics ~ops ~gauges d =
  let n = float_of_int (max 1 ops) in
  let per k = get d k /. n in
  let hit l h = div (get d h) (get d l) in
  [
    count "iset.sat_lookups" (per "sat lookups");
    ratio "iset.sat_hit_ratio" (hit "sat lookups" "sat hits");
    count "iset.simplify_lookups" (per "simplify lookups");
    ratio "iset.simplify_hit_ratio" (hit "simplify lookups" "simplify hits");
    count "iset.subset_lookups" (per "subset lookups");
    ratio "iset.subset_hit_ratio" (hit "subset lookups" "subset hits");
    count "iset.gist_lookups" (per "gist lookups");
    count "iset.implies_lookups" (per "implies lookups");
    count "iset.prefilter_kills" (per "sat pre-filter kills");
    count "iset.memo_evictions" (per "cache evictions");
    count "iset.interned_conjuncts" gauges;
  ]

(* ---- closed loops of one client ---- *)

(* Whole rounds of a seeded order of [items] until the window holds
   [seconds] of operation time and at least [ops] operations. [op opid
   item] runs one operation and returns its record and latency. *)
let rounds ~rng ~seconds ~ops items op =
  let items = Array.of_list items in
  let recs = ref [] and busy = ref 0.0 and n = ref 0 in
  while !busy < seconds || !n < ops do
    let order = Array.copy items in
    shuffle rng order;
    Array.iter
      (fun it ->
        let r, lat = op !n it in
        recs := r :: !recs;
        busy := !busy +. lat;
        incr n)
      order
  done;
  (List.rev !recs, !busy)

(* [op] for [rounds] with the host probe run after every operation: each
   record is paired with its operation's host scale. *)
let probed op =
  let last = ref (Hostprobe.run ()) in
  fun opid it ->
    let r, lat = op opid it in
    let p = Hostprobe.run () in
    let scale = host_scale !last p in
    last := p;
    ((r, scale), lat)

(* One untimed round of every item, so that the window starts warm. *)
let warm_up items op = List.iter (fun it -> ignore (op (-1) it)) items

(* ---- end-to-end rows ---- *)

(* Failed operations count as missing any latency limit: they enter the
   percentiles as infinitely slow (printed as the largest float). *)
let end_to_end ~setup_s ~throughput ~latencies ~failed ~attempted ~peak_rss_mb
    ~spmd_bytes ~sim_time ~comm_bytes =
  let lat = sorted (latencies @ List.init failed (fun _ -> Float.infinity)) in
  let fin x = if Float.is_finite x then x else Float.max_float in
  let ok = attempted - failed in
  [
    secs "setup_s" setup_s;
    metric "1/s" "throughput_ops_s" throughput;
    secs "latency_p50_s" (fin (pctl 0.5 lat));
    secs "latency_p90_s" (fin (pctl 0.9 lat));
    ratio "ok_ratio" (div (float_of_int ok) (float_of_int attempted));
    metric "MB" "peak_rss_mb" peak_rss_mb;
    metric "bytes" "spmd_bytes" spmd_bytes;
    metric "sim_s" "sim_time_s" sim_time;
    metric "bytes" "comm_bytes" comm_bytes;
  ]

(* ---- programs ---- *)

(* Table 1's applications, at the sizes of bench/main.ml [table1_apps]. *)
let table1 () =
  [
    ("SP-4", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Fixed (2, 2)) (), 4);
    ("SP-sym", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Symbolic2 2) (), 4);
    ("T-sym", Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) (), 4);
  ]

(* Figure 7's programs at the BENCH_run.json sizes, with their processor
   counts. *)
let fig7 () =
  [
    ("TOMCATV-257", Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) (), 8);
    ("ERLEBACHER-40", Codes.erlebacher ~n:40 ~iters:2 ~procs:(Codes.Symbolic2 1) (), 4);
    ("JACOBI-384", Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) (), 8);
  ]

(* ---- the serial oracle ---- *)

(* Every array element of a program, enumerated in a fixed order, with the
   serial interpreter's value for each. Diffcheck's tolerance: reductions
   may associate differently from the serial interpreter. *)
type oracle = {
  o_arrays : (string * (int * int) list) list;
  o_want : float array;
}

let iter_elems arrays f =
  List.iter
    (fun (name, bounds) ->
      let rec go idx = function
        | [] -> f name (List.rev idx)
        | (lo, hi) :: rest ->
            for x = lo to hi do
              go (x :: idx) rest
            done
      in
      go [] bounds)
    arrays

let oracle (chk : Hpf.Sema.checked) =
  let sref = Spmdsim.Serial.run chk in
  let ev = Spmdsim.Serial.eval_iexpr sref.Spmdsim.Serial.r_state in
  let arrays =
    Hashtbl.fold
      (fun name (ai : Hpf.Sema.array_info) acc ->
        (name, List.map (fun (lo, hi) -> (ev lo, ev hi)) ai.Hpf.Sema.adims) :: acc)
      chk.Hpf.Sema.env.Hpf.Sema.arrays []
    |> List.sort compare
  in
  let want = ref [] in
  iter_elems arrays (fun name idx ->
      want := Spmdsim.Serial.get_elem sref name idx :: !want);
  (sref, { o_arrays = arrays; o_want = Array.of_list (List.rev !want) })

(* true when every element of a finished sim matches the oracle *)
let matches_oracle o sim =
  let i = ref 0 and ok = ref true in
  iter_elems o.o_arrays (fun name idx ->
      let want = o.o_want.(!i) in
      let got = Spmdsim.Exec.get_elem sim name idx in
      if abs_float (want -. got) > 1e-6 *. (abs_float want +. 1.0) then ok := false;
      incr i);
  !ok

let same_stats (a : Spmdsim.Exec.stats) (b : Spmdsim.Exec.stats) =
  Int64.equal (Int64.bits_of_float a.s_time) (Int64.bits_of_float b.s_time)
  && a.s_msgs = b.s_msgs && a.s_bytes = b.s_bytes && a.s_elems = b.s_elems

(* Compile one program and validate it against the serial oracle on
   [nprocs] processors — the fault-free pass of [Spmdsim.Diffcheck.run],
   keeping the oracle and the reference run for later checks. *)
type reference = {
  r_chk : Hpf.Sema.checked;
  r_compiled : Dhpf.Gen.compiled;
  r_text : string;
  r_serial : Spmdsim.Serial.result;
  r_oracle : oracle;
  r_stats : Spmdsim.Exec.stats;
  r_nprocs : int;  (** actual processor count *)
  r_serial_s : float;  (** wall time of the serial oracle *)
}

exception Invalid_reference of string

let reference ~name ~nprocs src =
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Dhpf.Gen.compile chk in
  let text = Dhpf.Spmd.program_to_string compiled.Dhpf.Gen.cprog in
  let (serial, o), serial_s = time (fun () -> oracle chk) in
  let sim = Spmdsim.Exec.make ~nprocs compiled.Dhpf.Gen.cprog in
  let stats = Spmdsim.Exec.run sim in
  if not (matches_oracle o sim) then
    raise (Invalid_reference (name ^ ": SPMD run diverges from the serial oracle"));
  {
    r_chk = chk;
    r_compiled = compiled;
    r_text = text;
    r_serial = serial;
    r_oracle = o;
    r_stats = stats;
    r_nprocs = Spmdsim.Exec.nprocs sim;
    r_serial_s = serial_s;
  }

(* the deterministic end-to-end rows, summed over a workload's programs:
   SPMD text bytes, simulated seconds, communicated bytes *)
let deterministic refs =
  ( sum (List.map (fun r -> float_of_int (String.length r.r_text)) refs),
    sum (List.map (fun r -> r.r_stats.Spmdsim.Exec.s_time) refs),
    sum (List.map (fun r -> float_of_int r.r_stats.Spmdsim.Exec.s_bytes) refs) )

(* Each round's successful operations per second of its operation time,
   for rounds of [per_round] consecutive (latency, ok) results. *)
let round_rates ~per_round results =
  let a = Array.of_list results in
  List.init (Array.length a / per_round) (fun k ->
      let round = Array.to_list (Array.sub a (k * per_round) per_round) in
      div (float_of_int (List.length (List.filter snd round))) (sum (List.map fst round)))

(* The untraced outcome of a one-client workload from each operation's
   latency, check and host scale, in window order, [per_round] operations
   a round. Times are host-scaled; throughput is the median over rounds.
   The raw figures go to the provenance notes. *)
let closed_outcome ~setup_s:(setup_s, setup_raw) ~per_round ~refs results =
  let n = List.length results in
  let wrong = List.length (List.filter (fun (_, ok, _) -> not ok) results) in
  let spmd_bytes, sim_time, comm_bytes = deterministic refs in
  let rows scaled =
    let rs = List.map (fun (l, ok, k) -> ((if scaled then l *. k else l), ok)) results in
    end_to_end ~setup_s:(if scaled then setup_s else setup_raw)
      ~throughput:(median (round_rates ~per_round rs))
      ~latencies:(List.filter_map (fun (l, ok) -> if ok then Some l else None) rs)
      ~failed:wrong ~attempted:n ~peak_rss_mb:(vmhwm_mb "self") ~spmd_bytes ~sim_time
      ~comm_bytes
  in
  let raw =
    List.filter_map
      (fun m ->
        if List.mem m.name [ "setup_s"; "throughput_ops_s"; "latency_p50_s"; "latency_p90_s" ]
        then Some ("raw_" ^ m.name, Printf.sprintf "%.6g" m.value)
        else None)
      (rows false)
  in
  let scale = median (List.map (fun (_, _, k) -> k) results) in
  {
    attempted = n;
    failed = wrong;
    wrong;
    samples = n;
    notes = ("host_scale_median", Printf.sprintf "%.4f" scale) :: raw;
    metrics = rows true;
  }

(* ---- run directories ---- *)

(* Flush dirty pages and pending discards to disk (sync(1)), so that a
   window does not pay for the writeback of set-up's files, nor a run for
   the deletions of the one before. *)
let settle () =
  match Unix.create_process "sync" [| "sync" |] Unix.stdin Unix.stderr Unix.stderr with
  | pid -> ignore (Unix.waitpid [] pid)
  | exception Unix.Unix_error _ -> ()

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if d <> "" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end
