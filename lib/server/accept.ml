(** Shared accept loop for vrpd and the fleet front door (see the
    interface). *)

(* One accepted connection. [read_started] is the wall-clock instant its
   thread entered a blocking frame read (0. while handling a request), the
   signal the idle sweeper keys off: a connection stalled mid-frame — or
   idle between frames — longer than the admission idle timeout is shut
   down so a slow-loris peer cannot pin a handler thread. *)
type conn = {
  fd : Unix.file_descr;
  mutable read_started : float;
}

type t = {
  state_lock : Mutex.t;  (* connection registry, stop pipe ownership *)
  mutable stop_requested : bool;
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  mutable conns : conn list;
  mutable closed : bool;
}

let create () =
  let stop_rd, stop_wr = Unix.pipe () in
  {
    state_lock = Mutex.create ();
    stop_requested = false;
    stop_rd;
    stop_wr;
    conns = [];
    closed = false;
  }

let locked t f =
  Mutex.lock t.state_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_lock) f

let request_stop t = t.stop_requested <- true

(* Under the lock, and never once closed: after [close] the pipe's fd
   numbers belong to whatever the process opens next, and a late stop (a
   fleet re-killing an already-dead in-process worker) would write its
   byte into that stranger's socket. *)
let stop t =
  locked t (fun () ->
      if not t.closed then begin
        t.stop_requested <- true;
        (* Wake the accept loop; EAGAIN on a full pipe is as good as a byte. *)
        try ignore (Unix.write t.stop_wr (Bytes.of_string "x") 0 1) with _ -> ()
      end)

let register_conn t fd =
  let c = { fd; read_started = 0. } in
  locked t (fun () -> t.conns <- c :: t.conns);
  c

let close_conn t c =
  locked t (fun () ->
      if List.memq c t.conns then begin
        t.conns <- List.filter (fun c' -> c' != c) t.conns;
        try Unix.close c.fd with _ -> ()
      end)

let conn_loop t ~handle ~on_bad_request ?admit c =
  let fd = c.fd in
  let answer resp =
    try Protocol.write_frame fd (Protocol.encode_response resp) with _ -> ()
  in
  let read_one () =
    c.read_started <- Unix.gettimeofday ();
    Fun.protect ~finally:(fun () -> c.read_started <- 0.) (fun () ->
        Protocol.read_frame fd)
  in
  let rec loop () =
    match read_one () with
    | None -> ()
    | Some payload ->
      (match Protocol.decode_request payload with
      | Error msg ->
        on_bad_request msg;
        answer (Protocol.error_response ~rid:0 ~kind:"bad-request" msg)
      | Ok req ->
        answer (handle req);
        (* A shutdown request stops the daemon only after its response is
           on the wire, so the requesting client gets its acknowledgment. *)
        if t.stop_requested then stop t);
      if not t.stop_requested then loop ()
    | exception Failure msg ->
      answer (Protocol.error_response ~rid:0 ~kind:"bad-frame" msg)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* SO_RCVTIMEO fired: the peer stalled mid-frame past the idle
         budget. Same verdict as a sweeper close, counted the same way. *)
      Option.iter Admit.note_idle_closed admit
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  close_conn t c;
  Option.iter Admit.conn_closed admit

(* Arm the kernel-side stall guards. SO_RCVTIMEO bounds each blocking read
   (so a frame must keep arriving) and SO_SNDTIMEO each blocking write (so
   a peer that stops draining its response cannot pin the thread); the
   sweeper remains the backstop for byte-at-a-time trickle, which resets
   the kernel timers but not [read_started]. *)
let arm_timeouts fd ~idle_timeout_ms =
  if idle_timeout_ms > 0 then begin
    let secs = float_of_int idle_timeout_ms /. 1000. in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs with _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO secs with _ -> ()
  end

(* Accept-then-shed: over [max_conns] the connection is answered with one
   structured busy frame (rid 0 — no request was read) and closed without
   spawning a thread, so the client learns why instead of hanging. *)
let shed_conn admit fd =
  arm_timeouts fd ~idle_timeout_ms:1000;
  (try
     Protocol.write_frame fd
       (Protocol.encode_response
          (Protocol.busy_response ~rid:0
             ~retry_after_ms:(Admit.retry_after_ms admit)
             (Printf.sprintf "server at connection capacity (%d); retry later"
                (Admit.limits admit).Admit.max_conns)))
   with _ -> ());
  try Unix.close fd with _ -> ()

let sweeper_loop t admit stop_flag () =
  let timeout_ms = (Admit.limits admit).Admit.idle_timeout_ms in
  let timeout = float_of_int timeout_ms /. 1000. in
  while not (Atomic.get stop_flag) do
    let now = Unix.gettimeofday () in
    locked t (fun () ->
        List.iter
          (fun c ->
            if c.read_started > 0. && now -. c.read_started > timeout then begin
              (* Reset the mark so one stall is counted (and shut down)
                 once; the owning thread's read then sees EOF and closes. *)
              c.read_started <- 0.;
              Admit.note_idle_closed admit;
              try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ()
            end)
          t.conns);
    Thread.delay (Float.min 0.05 (Float.max 0.005 (timeout /. 4.)))
  done

let serve t ~handle ?(on_bad_request = fun _ -> ()) ?admit listen_fd =
  let threads = ref [] in
  (* Reap finished connection threads on each accept so a long-lived daemon
     holds handles proportional to live connections, not connections ever
     accepted. Joining a finished thread is immediate. *)
  let reap () =
    threads :=
      List.filter
        (fun (th, done_) ->
          if Atomic.get done_ then begin
            Thread.join th;
            false
          end
          else true)
        !threads
  in
  let spawn_conn fd =
    (match admit with
    | Some a -> arm_timeouts fd ~idle_timeout_ms:(Admit.limits a).Admit.idle_timeout_ms
    | None -> ());
    let c = register_conn t fd in
    let done_ = Atomic.make false in
    let th =
      Thread.create
        (fun c ->
          Fun.protect
            ~finally:(fun () -> Atomic.set done_ true)
            (fun () -> conn_loop t ~handle ~on_bad_request ?admit c))
        c
    in
    threads := (th, done_) :: !threads
  in
  let sweeper_stop = Atomic.make false in
  let sweeper =
    match admit with
    | Some a when (Admit.limits a).Admit.idle_timeout_ms > 0 ->
      Some (Thread.create (sweeper_loop t a sweeper_stop) ())
    | _ -> None
  in
  let rec accept_loop () =
    if not t.stop_requested then begin
      match Unix.select [ listen_fd; t.stop_rd ] [] [] (-1.0) with
      | readable, _, _ ->
        if List.memq listen_fd readable && not t.stop_requested then begin
          match Unix.accept listen_fd with
          | fd, _ ->
            reap ();
            (match admit with
            | Some a when not (Admit.try_conn a) -> shed_conn a fd
            | _ -> spawn_conn fd)
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
        end;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  accept_loop ();
  Atomic.set sweeper_stop true;
  Option.iter Thread.join sweeper;
  (* Wake any connection thread blocked in read: a shutdown delivers EOF
     (or EBADF-free error) to its pending read without closing the fd —
     the thread still owns the close. *)
  locked t (fun () ->
      List.iter
        (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ())
        t.conns);
  List.iter (fun (th, _) -> Thread.join th) !threads;
  (* Drain the stop pipe so a later serve on the same state starts clean. *)
  let buf = Bytes.create 16 in
  Unix.set_nonblock t.stop_rd;
  (try
     while Unix.read t.stop_rd buf 0 16 > 0 do
       ()
     done
   with _ -> ());
  Unix.clear_nonblock t.stop_rd;
  t.stop_requested <- false

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try Unix.close t.stop_rd with _ -> ());
        try Unix.close t.stop_wr with _ -> ()
      end)
