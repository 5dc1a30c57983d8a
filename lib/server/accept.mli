(** The shared accept loop: framed request connections multiplexed against a
    self-pipe stop signal.

    Both daemons speak the same wire shape — read a {!Protocol} frame,
    decode a request, answer a response — so the single-process server
    ({!Server}) and the fleet front door ({!Fleet}) share this loop and
    differ only in their [handle] function. Connection handling is
    thread-per-connection (blocking I/O on system threads); decode failures
    and torn frames are answered with {!Protocol.error_response} and never
    escape a connection.

    With an {!Admit} state the loop is overload-hardened: a connection over
    [max_conns] is answered with one structured busy frame and closed
    without spawning a thread (accept-then-shed); accepted sockets are
    armed with [SO_RCVTIMEO]/[SO_SNDTIMEO] at the idle timeout; and a
    sweeper thread shuts down any connection stalled mid-frame (or idle
    between frames) past the idle timeout, so a slow-loris peer loses its
    thread instead of pinning it. Finished connection threads are reaped on
    every accept — a long-lived daemon holds handles proportional to live
    connections, not connections ever accepted. *)

type t

(** A fresh loop state (stop pipe + connection registry). *)
val create : unit -> t

(** Accept connections on [listen_fd] until {!stop} (or {!request_stop}
    observed after a response), spawning one handler thread per connection;
    on exit, wakes every in-flight connection and joins its thread, then
    rearms so a later [serve] on the same [t] starts clean. Does not close
    [listen_fd]. [handle] answers one decoded request; [on_bad_request] is
    told about each contained decode failure; [admit] bounds connections
    and drives the idle sweeper (absent, the loop is unbounded as before). *)
val serve :
  t ->
  handle:(Protocol.request -> Protocol.response) ->
  ?on_bad_request:(string -> unit) ->
  ?admit:Admit.t ->
  Unix.file_descr ->
  unit

(** Ask {!serve} to return, without waking its select: the loop stops right
    after the response currently being written is on the wire. This is how
    a [shutdown] request stops the daemon while still acknowledging. *)
val request_stop : t -> unit

(** Ask {!serve} to return now. Safe from any thread and idempotent; a
    no-op once {!close}d, so a late stop never writes into an fd number
    the process has since reused. Takes the state lock, so a signal
    handler must hand it to another thread rather than call it (the
    handler may interrupt a thread that holds the lock). *)
val stop : t -> unit

(** Release the stop pipe. Call after the final {!serve}. Idempotent;
    serialized with {!stop}. *)
val close : t -> unit
