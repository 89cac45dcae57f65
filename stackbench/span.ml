(* In-memory spans around the benchmark's calls into each layer. A span has a
   name, start, end, parent span and the id of the operation it belongs
   to; spans are kept in memory and written out when the run ends. Off by
   default: an untraced run records nothing. Safe to call from several
   domains (the serve client's connections). *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for a root span *)
  t0 : float;
  t1 : float;
}

let on = ref false
let next = Atomic.make 0
let mu = Mutex.create ()
let spans : t list ref = ref []

let add ?(parent = -1) ~op name t0 t1 =
  let id = Atomic.fetch_and_add next 1 in
  if !on then
    Mutex.protect mu (fun () -> spans := { id; name; op; parent; t0; t1 } :: !spans);
  id

(* [time ?parent ~op name f] runs [f id] inside a span whose id children
   can name as their parent. *)
let time ?parent ~op name f =
  if not !on then f (-1)
  else begin
    let id = Atomic.fetch_and_add next 1 in
    let t0 = Unix.gettimeofday () in
    let r = f id in
    let t1 = Unix.gettimeofday () in
    Mutex.protect mu (fun () ->
        spans := { id; name; op; parent = Option.value parent ~default:(-1); t0; t1 } :: !spans);
    r
  end

let all () = List.rev !spans
let named name = List.filter (fun s -> s.name = name) (all ())
let dur s = s.t1 -. s.t0

(* A span's self time: its duration minus the part of it its children
   cover. *)
let self_times () =
  let spans = all () in
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0.0, Float.neg_infinity) ivs
      in
      (s, dur s -. covered))
    spans

(* Per span name: count, total and self seconds. *)
let summary () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, tot, slf = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace tbl s.name (n + 1, tot +. dur s, slf +. self))
    (self_times ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let write path ~provenance =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"provenance\": %s,\n \"summary\": [" provenance;
      List.iteri
        (fun i (name, (n, tot, slf)) ->
          Printf.fprintf oc
            "%s\n  {\"name\": %S, \"count\": %d, \"total_s\": %.9g, \"self_s\": %.9g}"
            (if i = 0 then "" else ",")
            name n tot slf)
        (summary ());
      output_string oc "],\n \"spans\": [";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n  {\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \
             \"start\": %.6f, \"end\": %.6f}"
            (if i = 0 then "" else ",") s.id s.name s.op s.parent s.t0 s.t1)
        (all ());
      output_string oc "]}\n")
