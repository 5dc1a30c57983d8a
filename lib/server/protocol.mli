(** The vrpd wire protocol: length-prefixed JSON frames over a stream
    socket (Unix-domain by default, TCP with [vrpd --listen]).

    Frame format: a 4-byte big-endian unsigned payload length followed by
    exactly that many payload bytes, which are one JSON document. Frames
    larger than 64 MiB are rejected before any allocation so a
    corrupt or hostile peer cannot balloon the daemon.

    One connection carries a sequence of request frames, each answered by
    exactly one response frame, in order. Closing the connection between
    frames is the normal way for a client to finish.

    Requests: [{"id": N, "op": "predict", "params": {...}}]. Responses
    echo the id and carry the one-shot CLI's byte-identical stdout in
    [out], its stderr in [err], and the would-be process exit code in
    [code]; [data] is op-specific structured payload (session counters,
    status fields). [ok = false] marks a request the daemon contained —
    decode failure, crash, or cancellation — never a daemon death. *)

type request = {
  id : int;
  op : string;
  params : Json.t;  (** an [Obj]; [Null] when absent *)
}

type response = {
  rid : int;  (** echo of the request id *)
  ok : bool;
  code : int;  (** the one-shot CLI exit code for this operation *)
  out : string;  (** stdout bytes, byte-identical to the one-shot CLI *)
  err : string;  (** stderr bytes (diagnostics, counters; may vary) *)
  data : (string * Json.t) list;  (** op-specific structured payload *)
}

(** Read one frame. [None] on a clean EOF at a frame boundary.
    @raise Failure on a torn frame, oversized length or mid-frame EOF. *)
val read_frame : Unix.file_descr -> string option

(** @raise Failure when [payload] exceeds the 64 MiB cap. *)
val write_frame : Unix.file_descr -> string -> unit

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** A contained-failure response: [ok = false], exit-code-2 semantics (the
    same severity a crashed batch file reports), with the diagnostic both
    in [err] (one [vrpd: ...] line) and in [data.diagnostic]. *)
val error_response : rid:int -> kind:string -> string -> response

(** The overload shed response: an {!error_response} of kind ["busy"] whose
    [data.retry_after_ms] tells the client how long to back off before the
    idempotent retry. Sent when a connection is refused over [--max-conns]
    (with [rid = 0], since no request was read) and when a request is shed
    over [--max-inflight]. *)
val busy_response : rid:int -> retry_after_ms:int -> string -> response

(** [Some ms] iff [r] is a shed ([busy]) response carrying a retry hint —
    the signal {!Client.request_retry} honors. *)
val retry_after_ms : response -> int option

(** Parse a TCP address of the form [HOST:PORT], splitting on the {e last}
    colon so IPv6 literals ([::1:9090]) and hosts containing colons keep
    working; a bracketed host ([\[::1\]:9090]) is unwrapped, an empty host
    defaults to [127.0.0.1], and the port must be an integer in
    [0..65535]. Errors name the part that failed, not just the expected
    shape. *)
val parse_hostport : string -> (string * int, string) result
