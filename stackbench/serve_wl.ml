(* The serve layer, driven as a client would: one client process with two
   connections, closed loop, against freshly started Serve.Server daemons
   (see [probe]). *)

open Common
module J = Serve.Jsonx

let clients = 2
let workers = 2
let churn_budget = 256 * 1024

(* the request mix: the five Codes generators at several sizes, 2x2 grid *)
let programs () =
  let fx = Codes.Fixed (2, 2) in
  let sized name gen ns = List.map (fun n -> (Printf.sprintf "%s-%d" name n, gen n)) ns in
  let range lo hi step = List.init (((hi - lo) / step) + 1) (fun i -> lo + (i * step)) in
  sized "jacobi" (fun n -> Codes.jacobi ~n ~procs:fx ()) (range 16 60 4)
  @ sized "tomcatv" (fun n -> Codes.tomcatv ~n ~procs:fx ()) (range 17 45 4)
  @ sized "erlebacher" (fun n -> Codes.erlebacher ~n ~procs:fx ()) (range 8 18 2)
  @ sized "gauss" (fun n -> Codes.gauss ~n ~procs:fx ()) (range 8 18 2)
  @ sized "sp_like" (fun n -> Codes.sp_like ~nsub:6 ~n ~procs:fx ()) (range 8 14 2)

let run_nprocs = 4

type prog = { label : string; src : string; r : reference; run_json : J.t }

(* the daemon's answer for a run request, built from the in-process
   reference exactly as the server builds it *)
let expected_run (r : reference) =
  let s = r.r_serial and st = r.r_stats in
  J.Obj
    [
      ("nprocs", J.int r.r_nprocs);
      ("engine", J.Str "closure");
      ("serial_s", J.Num s.Spmdsim.Serial.r_time);
      ("flops", J.int s.Spmdsim.Serial.r_flops);
      ("spmd_s", J.Num st.Spmdsim.Exec.s_time);
      ("msgs", J.int st.Spmdsim.Exec.s_msgs);
      ("bytes", J.int st.Spmdsim.Exec.s_bytes);
      ("speedup", J.Num (s.Spmdsim.Serial.r_time /. st.Spmdsim.Exec.s_time));
    ]

(* ---- the daemon child ---- *)

type daemon = { pid : int; socket : string; gc_file : string }

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* The daemon process: this executable re-entered with [--serve-daemon
   SOCKET CACHE WORKERS BUDGET GCFILE] (BUDGET 0 keeps the default disk
   budget). A fresh process, so its memory, memo tables and counters owe
   nothing to the benchmark process; at shutdown it records its own GC counters for
   the per-layer rows. *)
let daemon_main = function
  | [ socket; cache; workers; budget; gc_file ] ->
      let budget = int_of_string budget in
      if budget > 0 then Iset.Diskcache.set_max_bytes budget;
      let cfg =
        {
          Serve.Server.version = "stackbench";
          socket;
          workers = int_of_string workers;
          max_queue = 64;
          disk_cache = Some cache;
          lookup = (fun _ -> None);
          quiet = true;
          log = None;
          prom = None;
          flight_dump = None;
          recorder_slots = 1024;
        }
      in
      let srv = ref None in
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle
           (fun _ -> match !srv with Some s -> Serve.Server.request_stop s | None -> exit 0));
      let s = Serve.Server.launch cfg in
      srv := Some s;
      Serve.Server.wait s;
      let g = gc_now () in
      write_file gc_file (Printf.sprintf "%.17g %d %d\n" g.minor_words g.majors g.top_heap_words)
  | _ -> failwith "usage: --serve-daemon SOCKET CACHE WORKERS BUDGET GCFILE"

(* daemons started and not yet stopped, for {!kill_all} *)
let live = ref []

let spawn_daemon ~rundir ~tag ~workers ~cache ~budget =
  let socket = Filename.concat rundir (tag ^ ".sock")
  and gc_file = Filename.concat rundir (tag ^ ".gc") in
  let args =
    [
      socket;
      cache;
      string_of_int workers;
      string_of_int (Option.value budget ~default:0);
      gc_file;
    ]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: "--serve-daemon" :: args))
          null Unix.stderr Unix.stderr)
  in
  live := pid :: !live;
  { pid; socket; gc_file }

(* Kill and reap every daemon still running (the run failed midway). *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let await_ready d =
  if not (Serve.Client.wait_ready ~socket:d.socket ()) then
    failwith ("daemon did not come up on " ^ d.socket)

(* Read the daemon's peak RSS, stop it with SIGTERM and collect its GC
   counters. *)
let stop_daemon d =
  let rss = try vmhwm_mb (string_of_int d.pid) with _ -> 0.0 in
  Unix.kill d.pid Sys.sigterm;
  let clean = match Unix.waitpid [] d.pid with _, Unix.WEXITED 0 -> true | _ -> false in
  live := List.filter (( <> ) d.pid) !live;
  if not clean then failwith "daemon did not exit cleanly";
  let gc =
    let ic = open_in d.gc_file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        Scanf.sscanf (input_line ic) "%f %d %d" (fun mw majors top ->
            { minor_words = mw; majors; top_heap_words = top }))
  in
  (rss, gc)

(* ---- set-up ---- *)

type state = { progs : prog array; daemons : daemon list }

let cache_dir rundir name =
  let d = Filename.concat rundir ("cache-" ^ name) in
  mkdir_p d;
  d

(* Start the daemons ([specs]: tag, workers, disk budget, warm), build
   every program's reference with this process's disk cache pointed at
   the directory the warm daemons will use, and wait until the daemons
   answer. A daemon that is not warm gets an empty cache directory. *)
let setup ~rundir specs () =
  let warm_cache = cache_dir rundir "warm" in
  let daemons =
    List.map
      (fun (tag, workers, budget, warm) ->
        let cache = if warm then warm_cache else cache_dir rundir tag in
        spawn_daemon ~rundir ~tag ~workers ~cache ~budget)
      specs
  in
  Iset.Cache.clear_all ();
  Iset.Diskcache.set_dir (Some warm_cache);
  let progs =
    Array.of_list
      (List.map
         (fun (label, src) ->
           let r = reference ~name:label ~nprocs:run_nprocs src in
           { label; src; r; run_json = expected_run r })
         (programs ()))
  in
  Iset.Diskcache.set_dir None;
  List.iter await_ready daemons;
  { progs; daemons }

(* ---- the client ---- *)

(* Request [i] of the seeded stream: rounds of a seeded permutation of
   the programs; a program is run (rather than compiled) in one round of
   every four, so three requests in four are compiles. *)
let stream ~seed nprogs =
  let rng = Random.State.make [| seed; 7 |] in
  let cycle = 64 in
  let perms =
    Array.init cycle (fun _ ->
        let a = Array.init nprogs Fun.id in
        shuffle rng a;
        a)
  in
  fun i ->
    let round = i / nprogs mod cycle in
    let p = perms.(round).(i mod nprogs) in
    (p, (p + round) mod 4 = 3)

type reply = {
  prog : int;
  run : bool;
  t0 : float;
  t1 : float;
  resp : (J.t, string) result;
  retries : int;
}

let request_of (p : prog) run =
  if run then
    Serve.Proto.Run
      {
        label = p.label;
        source = Some p.src;
        opts = Dhpf.Gen.default_options;
        nprocs = run_nprocs;
        params = [];
        engine = "closure";
      }
  else
    Serve.Proto.Compile
      { label = p.label; source = Some p.src; opts = Dhpf.Gen.default_options }

(* one request; overloaded answers are retried with linear backoff, as a
   well-behaved closed-loop client would *)
let send ~socket ~rid req =
  let rec go retries =
    match Serve.Client.request ~rid ~socket req with
    | v when J.get_str v "status" = Some "overloaded" && retries < 200 ->
        Unix.sleepf (0.001 *. float_of_int (min (retries + 1) 20));
        go (retries + 1)
    | v -> (Ok v, retries)
    | exception (Serve.Client.Connect_error e | Serve.Proto.Proto_error e) -> (Error e, retries)
  in
  go 0

let telemetry v = Option.bind (J.get v "report") (fun r -> J.get r "telemetry")

(* [clients] closed loops sharing one seeded stream, over rounds
   [first, first + rounds) of it, continuing by whole rounds while the
   window is shorter than [seconds] *)
let window ~state ~next_req ~socket ~first ~rounds ~seconds =
  let nprogs = Array.length state.progs in
  let mu = Mutex.create () and next = ref (first * nprogs) and stopped = ref false in
  let last = (first + rounds) * nprogs in
  let out = Array.make clients [] in
  let start = now () in
  let take () =
    Mutex.protect mu (fun () ->
        if !next mod nprogs = 0 && !next >= last && now () -. start >= seconds
        then stopped := true;
        if !stopped then None
        else begin
          incr next;
          Some (!next - 1)
        end)
  in
  Par.spawn_join clients (fun c ->
      let rec loop () =
        match take () with
        | None -> ()
        | Some i ->
          let prog, run = next_req i in
          let t0 = now () in
          let resp, retries =
            send ~socket ~rid:(Printf.sprintf "sb-%d" i) (request_of state.progs.(prog) run)
          in
          let t1 = now () in
          (* the request's children: the server-reported queue wait and
             service, placed inside it with the wire time split evenly
             around them *)
          let root = Span.add ~op:i "request" t0 t1 in
          (match Result.map telemetry resp with
          | Ok (Some t) ->
              let q = Option.value (J.get_num t "queue_wait_s") ~default:0.0
              and s = Option.value (J.get_num t "service_s") ~default:0.0 in
              let w = Float.max 0.0 ((t1 -. t0) -. q -. s) /. 2.0 in
              ignore (Span.add ~parent:root ~op:i "queue_wait" (t0 +. w) (t0 +. w +. q));
              ignore (Span.add ~parent:root ~op:i "service" (t0 +. w +. q) (t0 +. w +. q +. s))
          | _ -> ());
          out.(c) <- { prog; run; t0; t1; resp; retries } :: out.(c);
          loop ()
      in
      loop ());
  let wall = now () -. start in
  (List.concat (Array.to_list out), wall)

(* The failure code of a reply: None when it is ok and equal to the
   in-process reference. *)
let check state r =
  match r.resp with
  | Error _ -> Some "transport"
  | Ok v -> (
      match J.get_str v "status" with
      | Some "ok" ->
          let p = state.progs.(r.prog) in
          let report = J.get v "report" in
          let rint k = Option.bind report (fun o -> J.get_int o k) in
          let report_ok =
            rint "events" = Some (List.length p.r.r_compiled.Dhpf.Gen.cevents)
            && rint "statements" = Some (List.length p.r.r_compiled.Dhpf.Gen.cprog.Dhpf.Spmd.main)
            && Option.bind report (fun o -> J.get_str o "src") = Some p.label
          in
          let body_ok =
            if r.run then J.get v "run" = Some p.run_json
            else J.get_str v "spmd" = Some p.r.r_text
          in
          if report_ok && body_ok then None else Some "wrong_output"
      | Some "overloaded" -> Some "overloaded"
      | _ -> Some (Option.value (J.get_str v "code") ~default:"unknown"))

let error_codes =
  [
    "runtime"; "unsupported"; "parse"; "semantic"; "protocol"; "transport";
    "overloaded"; "wrong_output";
  ]

let tally state replies =
  let codes = List.filter_map (check state) replies in
  let n c = List.length (List.filter (String.equal c) codes) in
  (List.length codes, n "wrong_output", List.map (fun c -> (c, n c)) error_codes)

let stats_of socket =
  match Serve.Client.request ~socket Serve.Proto.Stats with
  | v -> v
  | exception (Serve.Client.Connect_error e | Serve.Proto.Proto_error e) ->
      failwith ("stats: " ^ e)

let lat r = r.t1 -. r.t0

let notes_of codes =
  List.filter_map
    (fun (c, k) -> if k > 0 then Some ("serve.errors." ^ c, string_of_int k) else None)
    codes

(* the daemon's integer-set counters, from its stats op *)
let iset_of stats =
  match J.get stats "iset" with
  | Some (J.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with J.Num x -> Some (k, int_of_float x) | _ -> None)
        kvs
  | _ -> []

let stat_num stats path =
  match List.fold_left (fun v k -> Option.bind v (fun v -> J.get v k)) (Some stats) path with
  | Some (J.Num x) -> x
  | _ -> 0.0

type probe = {
  p_attempted : int;
  p_failed : int;
  p_wrong : int;
  p_notes : (string * string) list;
  p_metrics : metric list;
}

(* The serve layer's per-layer probe. Four fresh daemons: two workers and
   one worker over a disk cache that set-up filled in this process (so
   every disk hit is a cross-process hit), then two workers on an empty
   cache squeezed to 256 KiB (disk churn), and two on an empty unbounded
   one (a cold daemon). The warm daemons serve two rounds of the stream;
   the churn and cold daemons serve one round, all first compiles. Spans
   cover the two-worker warm window; error codes cover every daemon. *)
let probe ~rundir ~seed =
  let state =
    setup ~rundir
      [
        ("warm", workers, None, true);
        ("one", 1, None, true);
        ("churn", workers, Some churn_budget, false);
        ("cold", workers, None, false);
      ]
      ()
  in
  settle ();
  let warm, one, churn, cold =
    match state.daemons with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let next_req = stream ~seed (Array.length state.progs) in
  let run ~rounds d =
    let replies, wall = window ~state ~next_req ~socket:d.socket ~first:0 ~rounds ~seconds:0.0 in
    let stats = stats_of d.socket in
    let rss, gc = stop_daemon d in
    (replies, wall, stats, rss, gc)
  in
  let was_on = !Span.on in
  Span.on := true;
  let replies, wall, stats, rss, gc = run ~rounds:2 warm in
  Span.on := was_on;
  let o_replies, o_wall, _, _, _ = run ~rounds:2 one in
  let c_replies, c_wall, c_stats, _, _ = run ~rounds:1 churn in
  let k_replies, k_wall, _, _, _ = run ~rounds:1 cold in
  let all = [ replies; o_replies; c_replies; k_replies ] in
  let tput rs w = div (float_of_int (List.length (List.filter (fun r -> check state r = None) rs))) w in
  let n = List.length replies and c_n = List.length c_replies in
  let tallies = List.map (tally state) all in
  let _, _, codes = tally state (List.concat all) in
  (* server-reported queue wait and service of each warm reply *)
  let split =
    List.filter_map
      (fun r ->
        match Result.map telemetry r.resp with
        | Ok (Some t) -> (
            match (J.get_num t "queue_wait_s", J.get_num t "service_s") with
            | Some q, Some s -> Some (r, q, s)
            | _ -> None)
        | _ -> None)
      replies
  in
  let qs = sorted (List.map (fun (_, q, _) -> q) split)
  and ss = sorted (List.map (fun (_, _, s) -> s) split) in
  let by_op run =
    median (List.filter_map (fun r -> if r.run = run then Some (lat r) else None) replies)
  in
  let iset = iset_of stats and c_iset = iset_of c_stats in
  let per kvs n k = div (get kvs k) (float_of_int n) in
  {
    p_attempted = List.fold_left (fun a rs -> a + List.length rs) 0 all;
    p_failed = List.fold_left (fun a (f, _, _) -> a + f) 0 tallies;
    p_wrong = List.fold_left (fun a (_, w, _) -> a + w) 0 tallies;
    p_notes = notes_of codes;
    p_metrics =
      [
        metric "1/s" "serve.warm_ops_s" (tput replies wall);
        metric "MB" "serve.peak_rss_mb" rss;
        metric "Mwords" "serve.gc_minor_mw_per_op" (gc.minor_words /. float_of_int (max 1 n) /. 1e6);
        count "iset.disk.lookups_per_op" (per iset n "disk lookups");
        ratio "iset.disk.hit_ratio" (div (get iset "disk hits") (get iset "disk lookups"));
        count "iset.disk.stores_per_op" (per iset n "disk stores");
        count "iset.disk.evictions_per_op" (per iset n "disk evictions");
        metric "bytes" "iset.disk.bytes" (stat_num stats [ "diskcache"; "bytes" ]);
        ratio "serve.memo_hit_ratio" (stat_num stats [ "ratios"; "memo_hit" ]);
        secs "serve.queue_wait_p50_s" (pctl 0.5 qs);
        secs "serve.queue_wait_p90_s" (pctl 0.9 qs);
        secs "serve.service_p50_s" (pctl 0.5 ss);
        secs "serve.service_p90_s" (pctl 0.9 ss);
        secs "serve.wire_p50_s" (median (List.map (fun (r, q, s) -> lat r -. q -. s) split));
        secs "serve.compile_p50_s" (by_op false);
        secs "serve.run_p50_s" (by_op true);
        count "serve.overloaded_retries"
          (float_of_int (List.fold_left (fun a r -> a + r.retries) 0 replies));
      ]
      @ List.map (fun (c, k) -> count ("serve.errors." ^ c) (float_of_int k)) codes
      @ [
          ratio "par.serve_worker_speedup" (div (tput replies wall) (tput o_replies o_wall));
          metric "1/s" "serve.churn.ops_s" (tput c_replies c_wall);
          count "serve.churn.disk_lookups_per_op" (per c_iset c_n "disk lookups");
          ratio "serve.churn.disk_hit_ratio"
            (div (get c_iset "disk hits") (get c_iset "disk lookups"));
          count "serve.churn.disk_stores_per_op" (per c_iset c_n "disk stores");
          count "serve.churn.disk_evictions_per_op" (per c_iset c_n "disk evictions");
          metric "1/s" "serve.cold_ops_s" (tput k_replies k_wall);
        ];
  }
