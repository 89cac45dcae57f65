(* The first disk-cache traffic of a process, started from two domains at
   once with metrics on. A daemon's worker domains do exactly this on
   their first requests; the cache's metric cells must come into being
   without a race (a shared [lazy] forced from both domains raised
   [CamlinternalLazy.Undefined]). This is its own executable so that no
   earlier test has touched the cache's metrics before the race. *)

open Iset

let domains = 2
let keys = 50

let counter name =
  List.find_map
    (fun (s : Obs.Metrics.sample) ->
      match s.m_value with
      | VCounter v when s.m_name = name -> Some (int_of_float v)
      | _ -> None)
    (Obs.Metrics.snapshot ())

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let test_first_use_from_two_domains () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dhpf-test-diskcache-race-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Diskcache.set_dir (Some dir);
  Obs.Metrics.enable ();
  let arrived = Atomic.make 0 in
  let worker w () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done;
    for i = 1 to keys do
      let key = Printf.sprintf "w%d-%d" w i in
      if Diskcache.find ~kind:"race" key <> None then failwith "unexpected hit";
      Diskcache.store ~kind:"race" key "v";
      if Diskcache.find ~kind:"race" key <> Some "v" then failwith "lost store"
    done
  in
  let outcome =
    List.init domains (fun w -> Domain.spawn (worker w))
    |> List.map (fun d -> match Domain.join d with () -> None | exception e -> Some e)
  in
  Diskcache.set_dir None;
  rm_rf dir;
  List.iter
    (Option.iter (fun e -> Alcotest.failf "worker raised %s" (Printexc.to_string e)))
    outcome;
  Alcotest.(check (option int)) "every miss counted" (Some (domains * keys))
    (counter "diskcache/misses");
  Alcotest.(check (option int)) "every hit counted" (Some (domains * keys))
    (counter "diskcache/hits")

let () =
  Alcotest.run "diskcache_race"
    [
      ( "metrics",
        [
          Alcotest.test_case "first use from two domains" `Quick
            test_first_use_from_two_domains;
        ] );
    ]
