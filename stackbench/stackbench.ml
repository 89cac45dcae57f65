(* The stack benchmark: runs one named workload with a given seed,
   validates every output, and prints as its last line one JSON object
   with the end-to-end metrics (untraced run) or the per-layer metrics
   (--trace 1) declared in BENCHMARK.json. See README.md.

     stackbench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--host-cores N] [--commit SHA] *)

open Common

let workloads =
  [
    ("compile-table1", (Compile_wl.untraced, Compile_wl.traced));
    ("sim-fig7", (Sim_wl.untraced, Sim_wl.traced));
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("stackbench: " ^ s); exit 2) fmt

(* the (name, unit) declarations of one metric group of BENCHMARK.json *)
let declared group =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> die "%s (run from the repository root)" e
  in
  let module J = Serve.Jsonx in
  match J.get_list (J.of_string text) group with
  | Some ms ->
      List.map
        (fun m ->
          match (J.get_str m "name", J.get_str m "unit") with
          | Some n, Some u -> (n, u)
          | _ -> die "BENCHMARK.json: malformed %s entry" group)
        ms
  | None -> die "BENCHMARK.json: no %s list" group

let json_str s = Serve.Jsonx.to_string (Serve.Jsonx.Str s)

(* full precision, as measured *)
let json_num x = Printf.sprintf "%.17g" x

let () =
  match Array.to_list Sys.argv with
  | _ :: "--serve-daemon" :: rest -> Serve_wl.daemon_main rest
  | _ ->
      let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
      let host_cores = ref (Domain.recommended_domain_count ()) and commit = ref "none" in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload, "NAME workload to run");
          ("--seed", Arg.Set_int seed, "N input seed");
          ("--seconds", Arg.Set_int seconds, "S measured seconds");
          ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
          ("--host-cores", Arg.Set_int host_cores, "N host core count, as nproc reports it");
          ("--commit", Arg.Set_string commit, "SHA commit under test");
        ]
        (fun a -> die "unexpected argument %s" a)
        "stackbench --workload NAME --seed N --seconds S --trace 0|1";
      let untraced, traced =
        match List.assoc_opt !workload workloads with
        | Some w -> w
        | None ->
            die "unknown workload %S (one of: %s)" !workload
              (String.concat ", " (List.map fst workloads))
      in
      let traced_run = !trace = 1 in
      let decl = declared (if traced_run then "per_layer" else "end_to_end") in
      Par.set_domains 1;
      let rundir = Printf.sprintf ".stackbench/run-%d" (Unix.getpid ()) in
      mkdir_p rundir;
      Unix.putenv "DHPF_NATIVE_CACHE" (Filename.concat rundir "native");
      let o = { seed = !seed; seconds = float_of_int !seconds; rundir } in
      let out =
        match (if traced_run then traced else untraced) o with
        | out -> out
        | exception e ->
            Serve_wl.kill_all ();
            rm_rf rundir;
            die "%s failed: %s" !workload (Printexc.to_string e)
      in
      rm_rf rundir;
      settle ();
      List.iter
        (fun m ->
          match List.assoc_opt m.name decl with
          | Some u when u = m.unit_ -> ()
          | Some u -> die "metric %s measured in %s, declared in %s" m.name m.unit_ u
          | None -> die "metric %s is not declared in BENCHMARK.json" m.name)
        out.metrics;
      let provenance =
        Printf.sprintf
          "{\"workload\": %s, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"host_cores\": %d, \
           \"ocaml\": %s, \"commit\": %s, \"samples\": %d, \"above_p90\": %d%s}"
          (json_str !workload) !seed !seconds !trace !host_cores (json_str Sys.ocaml_version)
          (json_str !commit) out.samples
          (out.samples - int_of_float (Float.ceil (0.9 *. float_of_int out.samples)))
          (String.concat ""
             (List.map
                (fun (k, v) -> Printf.sprintf ", %s: %s" (json_str k) (json_str v))
                out.notes))
      in
      print_endline ("provenance " ^ provenance);
      if traced_run then begin
        let dir = ".stackbench/traces" in
        mkdir_p dir;
        let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" !workload !seed) in
        Span.write path ~provenance;
        print_endline ("trace " ^ path)
      end;
      (* a declared per-layer metric this workload does not exercise reads 0 *)
      let value n =
        match List.find_opt (fun m -> m.name = n) out.metrics with
        | Some m -> m.value
        | None -> 0.0
      in
      List.iter (fun (n, u) -> Printf.printf "%-36s %16.6g %s\n" n (value n) u) decl;
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        (out.wrong = 0) out.attempted out.failed
        (String.concat ", "
           (List.map
              (fun (n, u) ->
                Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n)
                  (json_num (value n)) (json_str u))
              decl));
      exit (if out.wrong = 0 then 0 else 1)
