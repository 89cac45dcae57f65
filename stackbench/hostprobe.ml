(* The host-speed probe. The benchmark shares a virtualised host whose speed
   drifts by up to 2x over minutes: other tenants contend for the caches
   and memory of the cores it runs on, while the guest's steal counter
   stays near zero. [run] does a fixed piece of work that calls nothing in
   the program under test and allocates nothing, so its time reads how
   fast the host runs at that moment: a float stencil dispatched through
   closures, a pointer chase over a random cycle, and int-keyed hash-table
   lookups, over about 7 MB of data built at start-up. The arrays live
   outside the OCaml heap, so the probe adds nothing to the work of the
   program's garbage collector. Operation times are scaled by
   [reference_s] / probe time (see [Common.host_scale]). *)

open Bigarray

let chase_len = 1 lsl 19
let grid = 1 lsl 17
let keys = 1 lsl 14

(* a single random cycle through [0, chase_len) (Sattolo's shuffle) *)
let chase =
  let a = Array1.create int c_layout chase_len in
  for i = 0 to chase_len - 1 do
    a.{i} <- i
  done;
  let rng = Random.State.make [| 0x5eed |] in
  for i = chase_len - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let floats () = Array1.create float64 c_layout grid
let xs = floats ()

let ys =
  let a = floats () in
  for i = 0 to grid - 1 do
    a.{i} <- float_of_int i
  done;
  a

let stencils =
  Array.init 8 (fun k ->
      let c = float_of_int k in
      fun i -> xs.{i} <- ((ys.{i - 1} +. ys.{i + 1}) *. 0.5) +. c)

let table =
  let t = Hashtbl.create keys in
  for k = 0 to keys - 1 do
    Hashtbl.replace t (k * 7919) k
  done;
  t

(* the probe's typical time on the 2-core host the benchmark was sized on;
   it sets the scale of the reported times and never changes *)
let reference_s = 0.014

let work () =
  for i = 1 to grid - 2 do
    stencils.(i land 7) i
  done;
  let j = ref 0 in
  for _ = 1 to 100_000 do
    j := chase.{!j}
  done;
  let s = ref 0 in
  for i = 0 to 60_000 do
    s := !s + Hashtbl.find table (i land (keys - 1) * 7919)
  done;
  ignore (Sys.opaque_identity (!j + !s))

(* wall time of one probe *)
let run () =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0
