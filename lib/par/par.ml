(* Domain-pool helpers shared by the compiler and the serve daemon.

   The library deliberately does NOT clamp domain counts: correctness
   never depends on the physical core count (four domains on one core is
   merely slow), and the differential tests want to exercise real
   multi-domain schedules everywhere. The [dhpfc] CLI applies the
   user-facing clamp to [Domain.recommended_domain_count]. *)

let recommended () = Domain.recommended_domain_count ()

(** Clamp a requested domain count to [1 .. recommended ()]; the CLI
    policy for [-j] / [DHPF_DOMAINS]. *)
let clamp n = max 1 (min n (recommended ()))

let env_domains () =
  match Sys.getenv_opt "DHPF_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

(* session default: DHPF_DOMAINS when set, else 1 (= the sequential code
   path, bit-for-bit) *)
let current = Atomic.make 1
let () = match env_domains () with Some n -> Atomic.set current n | None -> ()
let domains () = Atomic.get current
let set_domains n = Atomic.set current (max 1 n)

(** [spawn_join n f] runs [f 0 .. f (n-1)] concurrently, [f 0] on the
    calling domain. Every spawned domain is joined even when some [f i]
    raises; the first exception (lowest index) is re-raised with its
    backtrace. *)
let spawn_join n f =
  if n <= 1 then f 0
  else begin
    let wrap i () =
      match f i with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let doms = Array.init (n - 1) (fun i -> Domain.spawn (wrap (i + 1))) in
    let r0 = wrap 0 () in
    let rs = Array.map Domain.join doms in
    let first =
      Array.fold_left
        (fun acc r -> match acc with Some _ -> acc | None -> r)
        r0 rs
    in
    match first with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(** [iter ~domains n f] applies [f] to [0 .. n-1] through an atomic
    worklist over [min domains n] domains. [f] must tolerate being called
    from any domain; iteration order is unspecified. *)
let iter ~domains n f =
  let d = max 1 (min domains n) in
  if d <= 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let next = Atomic.make 0 in
    spawn_join d (fun _ ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            f i;
            go ()
          end
        in
        go ())
  end

(** [map ~domains n f] is [iter] collecting results into an array. *)
let map ~domains n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    iter ~domains n (fun i -> out.(i) <- Some (f i));
    Array.map Option.get out
  end
