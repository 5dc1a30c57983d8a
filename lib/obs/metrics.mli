(** Process-wide metrics registry with Prometheus text exposition.

    Dependency-free (stdlib + unix) so every layer of the stack can link
    it: counters and fixed-bucket histograms registered by name + label
    set, aggregated on read, rendered in the Prometheus text format
    (v0.0.4) beside caller {!sample}s.

    Concurrency model: registration is mutex-guarded (rare, idempotent)
    but the hot-path cells never take a lock — counters are sharded per
    domain ([inc] is a fetch-and-add on a domain-private atomic, [value]
    sums the shards so increments are never lost across domains),
    histograms one atomic count per bucket plus an atomic sum. Reads are racy snapshots by design: they never block
    writers and are monotonic per cell, which is all a scraper needs. *)

type counter
type histogram

(** A metric namespace. Most callers use the implicit process-wide
    registry (what [vrpd]'s [metrics] op renders); tests create private
    registries so assertions don't see process-wide state. *)
type registry

val create : unit -> registry

(** Find-or-create: the same (name, label set) always yields the same
    cell, so metric definitions can live at their use sites.
    @raise Invalid_argument if the name is already registered as a
    different metric kind. *)
val counter :
  ?registry:registry -> ?help:string -> ?labels:(string * string) list ->
  string -> counter

(** [buckets] defaults to latency buckets (seconds), log-spaced
    0.5ms..10s.
    @raise Invalid_argument on empty or non-increasing [buckets]. *)
val histogram :
  ?registry:registry -> ?help:string -> ?labels:(string * string) list ->
  ?buckets:float list -> string -> histogram

val inc : ?by:int -> counter -> unit

(** Sum over the per-domain shards. *)
val value : counter -> int

val observe : histogram -> float -> unit

(** [time h f] runs [f], records its wall-clock duration (seconds) in [h]
    — also when [f] raises — and returns its result. *)
val time : histogram -> (unit -> 'a) -> 'a

val hist_count : histogram -> int
val hist_sum : histogram -> float

(** Zero a counter's shards (tests; the exposition never resets). *)
val reset_counter : counter -> unit

(** Zero every cell in the registry, keeping the registrations. *)
val reset : ?registry:registry -> unit -> unit

(** A value the caller stores itself, rendered beside the registry's
    cells. A stateful instance (a daemon's admission gate, a supervisor)
    keeps each counter once, in its own record, and passes a snapshot of
    it to {!render} rather than mirroring every bump into a registry cell.
    A sample's name must not also be registered in the rendered registry. *)
type sample

val counter_sample :
  ?help:string -> ?labels:(string * string) list -> string -> int -> sample

val gauge_sample :
  ?help:string -> ?labels:(string * string) list -> string -> float -> sample

(** Prometheus text exposition of the registry's cells plus [samples]:
    one [# HELP]/[# TYPE] block per metric name, series sorted by
    (name, labels), label values escaped, histograms rendered as
    cumulative [_bucket{le=...}] lines plus [+Inf], [_sum] and [_count].
    Pure read — rendering twice with no writes in between yields
    identical text. *)
val render : ?registry:registry -> ?samples:sample list -> unit -> string
