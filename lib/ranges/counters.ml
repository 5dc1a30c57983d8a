(** Instrumentation counters for the paper's complexity figures and the
    resilience layer's governors.

    Figure 5 plots the number of {e expression evaluations} (counted by the
    propagation engine) and Figure 6 the number of {e evaluation
    sub-operations} — the primitive operations on pairs of ranges — against
    program size. Every range-pair primitive in this library ticks the
    sub-operation counter.

    Counters used to be a single global [ref], which meant nested or
    interleaved analyses (interprocedural rounds re-entering the engine, an
    evaluation harness wrapping a pipeline run) smeared each other's
    figures. They are now {e scoped frames} returned by value: every
    {!with_counters} call opens a fresh frame, events tick all open frames,
    and the caller gets its own frame's totals back. Nested scopes therefore
    see their own work included in the enclosing scope's totals (as they
    should) while sibling scopes stay fully isolated. *)

type t = {
  mutable evaluations : int;  (** engine expression evaluations (Figure 5) *)
  mutable sub_ops : int;  (** range-pair primitives (Figure 6) *)
  mutable widenings : int;  (** forced widenings to ⊥ (quota / growth cap) *)
  mutable fuel_exhaustions : int;  (** engine runs that ran out of fuel *)
}

let zero () = { evaluations = 0; sub_ops = 0; widenings = 0; fuel_exhaustions = 0 }

(* Process-wide totals live in the metrics registry as per-domain-sharded
   counters: every domain increments its own atomic shard and reads sum the
   shards, so — unlike the plain-mutable root frame these replaced — no
   increment is ever lost when worker domains tick concurrently. The same
   cells back the Prometheus exposition, so there is exactly one
   bookkeeping path. *)
let evaluations_total =
  Vrp_obs.Metrics.counter
    ~help:"Engine expression evaluations (paper Figure 5)"
    "vrp_engine_evaluations_total"

let sub_ops_total =
  Vrp_obs.Metrics.counter
    ~help:"Range-pair primitive sub-operations (paper Figure 6)"
    "vrp_engine_sub_ops_total"

let widenings_total =
  Vrp_obs.Metrics.counter ~help:"Forced widenings to bottom (quota/growth cap)"
    "vrp_engine_widenings_total"

let fuel_exhaustions_total =
  Vrp_obs.Metrics.counter ~help:"Engine runs that ran out of fuel"
    "vrp_engine_fuel_exhaustions_total"

(* Scoped frames are domain-local, innermost first: analyses running on
   scheduler worker domains each tick their own stack, so concurrent
   per-function runs cannot corrupt each other's frames. A frame opened on
   one domain therefore does not observe work done on another — per-run
   totals for parallel batch work are aggregated from the per-function
   [Engine.t] fields instead (and from the registry totals above). *)
let frames : t list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let with_counters f =
  let frame = zero () in
  Domain.DLS.set frames (frame :: Domain.DLS.get frames);
  let result =
    Fun.protect ~finally:(fun () -> Domain.DLS.set frames (List.tl (Domain.DLS.get frames))) f
  in
  (result, frame)

let each g = List.iter g (Domain.DLS.get frames)

let tick () =
  Vrp_obs.Metrics.inc sub_ops_total;
  each (fun c -> c.sub_ops <- c.sub_ops + 1)

let record_evaluation () =
  Vrp_obs.Metrics.inc evaluations_total;
  each (fun c -> c.evaluations <- c.evaluations + 1)

let record_widening () =
  Vrp_obs.Metrics.inc widenings_total;
  each (fun c -> c.widenings <- c.widenings + 1)

let record_fuel_exhaustion () =
  Vrp_obs.Metrics.inc fuel_exhaustions_total;
  each (fun c -> c.fuel_exhaustions <- c.fuel_exhaustions + 1)
