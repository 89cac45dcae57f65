(** Differential resilience harness.

    Compiles a checked mini-HPF program, runs the serial oracle
    ({!Serial}), then executes the SPMD program on the simulated machine —
    first fault-free, then once per seeded fault schedule — and compares
    every array element (and declared scalar) against the oracle. The first
    divergence is reported as a structured result naming the array, the
    index, both values and the schedule seed that exposed it; a crash or
    deadlock under a schedule is reported with its seed and diagnostic.

    This is the adversarial extension of the test suite's serial-oracle
    differential testing: a compiler (or runtime-protocol) bug that only
    manifests under message drop, duplication, reordering or stragglers is
    pinned to a reproducible seed. *)

type divergence = {
  dv_seed : int option;  (** [None]: the fault-free run already diverged *)
  dv_engine : Exec.engine;  (** the engine whose value is [dv_got] *)
  dv_array : string;
  dv_index : int list;
  dv_expected : float;  (** serial-oracle value *)
  dv_got : float;  (** simulated SPMD value *)
}

type outcome =
  | Pass of { runs : int; compared : string }
      (** every run matched; [compared] says what was compared with what,
          e.g. ["the closure engine matched the serial oracle"] *)
  | Diverged of divergence
  | Crashed of { seed : int option; error : string }
      (** a run raised (deadlock diagnostics are pretty-printed) *)

val run :
  ?engine:Exec.engine ->
  ?machine:Machine.t ->
  ?nprocs:int ->
  ?params:(string * int) list ->
  ?opts:Dhpf.Gen.options ->
  ?spec_of_seed:(int -> Fault.spec) ->
  seeds:int list ->
  Hpf.Sema.checked ->
  outcome
(** [run ~seeds chk] compiles [chk], validates the fault-free execution
    against the serial oracle, then replays under one fault schedule per
    seed ([spec_of_seed] defaults to {!Fault.default}). [nprocs] defaults
    to 4; [engine] selects the SPMD executor (default [`Closure]). *)

val engines :
  ?machine:Machine.t ->
  ?nprocs:int ->
  ?params:(string * int) list ->
  ?opts:Dhpf.Gen.options ->
  ?spec_of_seed:(int -> Fault.spec) ->
  seeds:int list ->
  Hpf.Sema.checked ->
  outcome
(** Engine-differential mode: run the closure and native engines and the
    tree-walking interpreter on the same program — fault-free first, then
    under one fault schedule per seed, every engine seeing the identical
    schedule — and require each engine to agree with the interpreter
    {e exactly}: bit-identical array elements and scalars, bit-identical
    simulated clocks, and identical message/byte/element/retransmit/
    duplicate counters. Any counter mismatch is reported as [Crashed]
    naming the field, the engine and both values; a value mismatch as
    [Diverged] ([dv_expected] is the interpreter's value, [dv_got] that of
    the engine named by [dv_engine]). This is the executable form of the
    engines' equivalence contract (see {!Exec.make}). *)

val crashes :
  ?machine:Machine.t ->
  ?nprocs:int ->
  ?params:(string * int) list ->
  ?opts:Dhpf.Gen.options ->
  ?ckpt_every:int ->
  ?spec_of_seed:(int -> Fault.spec) ->
  seeds:int list ->
  Hpf.Sema.checked ->
  outcome
(** Crash-differential mode: run a fault-free closure-engine oracle, then
    for each seed x engine run {!Checkpoint.run} under a pure-crash
    schedule ([spec_of_seed] defaults to [crash_prob = 0.02],
    [crash_max = 3]) with a coordinated checkpoint every [ckpt_every]
    (default 8) communication operations, and require the recovered run to
    match the oracle {e exactly}: bit-identical elements and scalars, and
    an identical per-pair communication table (first transmissions only,
    so crashes and replays must not perturb it — the property behind
    [--check-comm] staying exact under crash injection). The comm-table
    comparison is live only when [Obs.Metrics] is enabled; otherwise both
    tables are empty and only values are compared. *)

val pp_outcome : Format.formatter -> outcome -> unit
