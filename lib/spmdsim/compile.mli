(** Closure-generating SPMD execution engine — the default engine behind
    {!Exec.make}.

    The program is lowered once, by {!Imp.lower} (the one SPMD lowering,
    shared with {!Native}), and each kernel node becomes an OCaml closure
    over a compact per-processor state record: integer names are [int
    array] slots, replicated scalars [float array] slots, and global
    parameters literals, so the per-iteration cost is a closure call
    instead of an AST match with hashtable lookups. The generated hot path
    allocates nothing: the clock is a float-only cell, accesses return the
    dense slot as an int, float expressions write into a per-processor
    register file, intrinsics are resolved at generation time, and
    dimensions {!Imp} proved in bounds are not checked. Each processor's
    owned section of a distributed array is a dense [float array] block
    addressed through per-dimension ownership tables (exact for block,
    cyclic and block-cyclic layouts under any alignment), with a side
    hashtable only for received non-local values; arrays that are
    array-reduction targets keep the sparse representation so collective
    semantics match the interpreter exactly.

    The transport and scheduler are shared with the interpreter via
    {!Runtime}, and clock charges follow the interpreter's order, so runs
    are bit-identical in element values, clocks and counters — the
    interpreter remains the differential oracle ({!Diffcheck.engines}).

    The per-processor representation ([store], [rt]) and the sim record
    ([csim]) are exposed concretely: the native engine reuses this
    engine's setup, lowering, storage, transport and result plumbing
    verbatim through {!make_with} and only supplies a different main — a
    dynlinked kernel emitted by {!Emit} — so everything outside the kernel
    body is structurally identical across the two engines. *)

(** {1 Per-processor storage} *)

type store = {
  st_am : Runtime.ameta;
  st_owned : bool;
      (** false: a FixedCoord layout dimension excludes this processor from
          holding any owned block *)
  st_dense : bool;  (** owned with a non-empty dense block *)
  st_dmaps : int array array;
      (** per data dimension: (x - lo_d) -> local index, or -1 if this
          processor does not own that coordinate *)
  st_lstride : int array;  (** per data dimension: stride into [st_data] *)
  st_data : float array;  (** dense owned block; [[||]] if sparse or unowned *)
  st_side : (int, float) Hashtbl.t;
      (** non-local values (received halos), keyed by global linear index;
          for sparse (reduction-target) arrays, all values live here *)
}

val st_sparse : store -> bool
(** The array keeps the sparse (side-table only) representation. *)

val owns_enc : store -> int -> bool
(** Ownership test by decoded coordinates (sparse-array slow path). *)

(** {1 Per-processor runtime state} *)

type clock = { mutable c : float }
(** A float-only cell: updating it does not allocate. *)

type rt = {
  r_pid : int;
  r_int : int array;
      (** integer slots: loop vars, [m$k], [vm$k]; one more, always 0 *)
  r_fval : float array;  (** replicated-scalar slots *)
  r_fvalid : bool array;
      (** mirrors the interpreter's fenv membership: a slot is readable as a
          scalar only after initialization (declared) or first assignment *)
  r_stores : store array;  (** indexed by array id *)
  r_packbufs : Runtime.packbuf array;  (** indexed by event id *)
  r_clk : clock;  (** the processor's virtual clock *)
  r_skew : float;
  r_scratch : int array;  (** subscripts of the general access path *)
  r_regs : float array;  (** float expression registers *)
  mutable r_enc : int;  (** global linear index of the last access *)
}

type cstmt = rt -> unit

(** {1 Cold paths shared with emitted kernels}

    Generated kernels inline the hot access sequences but call back here on
    a dense miss or an illegal access, so halo lookups, sparse-array
    defaults and failure messages stay identical across engines. *)

val bounds_fail : Runtime.ameta -> int -> int -> 'a

val load_miss : rt -> int -> aname:string -> int -> float
(** [load_miss rt aid ~aname enc]: value of a load whose dense slot was -1 —
    the received-halo side table, the sparse-owned zero default, or the
    non-local access error (tagged with the access mode's [aname]). *)

val pack_miss : rt -> int -> int -> float
(** Same lookup for [Pack] sites, with the packing-specific error. *)

val local_store_fail : rt -> int -> int -> 'a
(** The [Local]-store-to-non-owned-element error. *)

val bad_step : rt -> string -> 'a
val unbound_int : rt -> string -> 'a
val unknown_sub : rt -> string -> 'a

(** {1 Communication and collectives}

    Used by both engines' mains, so clock charges, effects and error texts
    are shared. *)

type kctx = {
  k_tr : Runtime.transport;
  k_phys : int list -> int;  (** VP coordinates -> physical pid *)
  k_arrays : (string, int) Hashtbl.t;  (** array name -> store id *)
  k_vm_slots : int array;  (** slot of [vm$k] *)
}

val do_send :
  kctx -> rt -> event:int -> inplace:bool -> rect:bool -> int list -> unit

val do_recv :
  kctx -> rt -> event:int -> recv_o:float -> unpack:float -> int list -> unit

val do_reduce_arr : string -> Dhpf.Spmd.reduce_op -> unit
val do_reduce_scalar : rt -> int -> Dhpf.Spmd.reduce_op -> unit

(** {1 The compiled simulation} *)

type csim = {
  c_prog : Dhpf.Spmd.program;
  c_su : Runtime.setup;
  c_tr : Runtime.transport;
  c_rts : rt array;
  c_main : cstmt;
  c_arrays : (string, int) Hashtbl.t;  (** array name -> store id *)
  c_ameta : Runtime.ameta array;  (** by store id *)
  c_owners : (int * int array) array Lazy.t array;
      (** by store id: per layout dimension, the data dimension ([-1]: a
          fixed coordinate) and each index's owner coordinate *)
  c_islots : (string * int) list;  (** integer slots by name, sorted *)
  c_fslots : (string * int) list;  (** scalar slots by name, sorted *)
  mutable c_ran : bool;
}

val make :
  ?machine:Machine.t ->
  ?faults:Fault.spec ->
  nprocs:int ->
  ?params:(string * int) list ->
  Dhpf.Spmd.program ->
  csim
(** Lower the program, generate its closures and build per-processor dense
    storage. Parameters are as in {!Exec.make}. *)

val make_with :
  (kctx -> Imp.kernel -> cstmt) ->
  ?machine:Machine.t ->
  ?faults:Fault.spec ->
  nprocs:int ->
  ?params:(string * int) list ->
  Dhpf.Spmd.program ->
  csim
(** [make] with another generator of the main from the lowered kernel
    (the native engine's). *)

val nprocs : csim -> int
val phys_of_vp : csim -> int list -> int

val run : csim -> Runtime.stats
(** Execute to completion.
    @raise Runtime.Deadlock when no processor can make progress.
    @raise Runtime.Error on an illegal access, unbound name, or when the
    sim was already run (each sim is single-use). *)

val get_elem : csim -> string -> int list -> float
val get_scalar : csim -> string -> float

val comm_cells : csim -> Runtime.comm_cell list
(** Measured per-pair communication table; see {!Runtime.comm_cells}. *)

(** {1 Checkpoint support} *)

val transport : csim -> Runtime.transport
(** The sim's transport, for installing crash control / checkpoint hooks. *)

val capture : csim -> Runtime.image
(** Deep value snapshot of the simulation: per-processor clocks, live
    bindings, all resident array elements (dense blocks enumerated in
    global-index order plus halo side tables), staged pack buffers, and
    the transport state. Within one engine, two captures of the same
    deterministic execution point are structurally equal. *)

val clocks : csim -> float array
(** Per-processor virtual clocks (a fresh array). *)

val set_clocks : csim -> float -> unit
(** Set every processor's clock — the restart barrier after a recovery. *)

val charge : csim -> float -> unit
(** Add a cost to every processor's clock — the coordinated checkpoint
    write, paid per processor without synchronizing them. *)
