(* The benchmark's own span tracer.

   Spans are recorded around calls into the program's public layer
   functions from the benchmark's code; the program's built-in tracer stays
   off. A span knows its name, start, end, parent and the request it
   belongs to. Spans are kept in memory (mutex-guarded: pool domains record
   too) and exported at the end as Chrome trace_event JSON.

   When the tracer is disabled [span] only runs its body, so the same code
   path gives the untraced comparison. *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request (or file) the span belongs to *)
  tid : int;  (** recording domain, for the trace viewer *)
}

let enabled = Atomic.make false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []

(* Per-domain stack of open span ids, and the request they serve. *)
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let current_req : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let set_enabled b = Atomic.set enabled b
let on () = Atomic.get enabled

let current () =
  match Domain.DLS.get stack with
  | id :: _ -> id
  | [] -> 0

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let span ?req name f =
  if not (on ()) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = current () in
    let saved_req = Domain.DLS.get current_req in
    Option.iter (Domain.DLS.set current_req) req;
    let req = Domain.DLS.get current_req in
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack (id :: saved);
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      Domain.DLS.set stack saved;
      Domain.DLS.set current_req saved_req;
      record
        { id; name; start; stop; parent; req; tid = (Domain.self () :> int) }
    in
    Fun.protect ~finally:finish f
  end

(* Run [f] on this domain as if inside the span that was current where
   [adopt] was captured: tasks handed to pool domains keep their parent. *)
let adopt () =
  let parent = current () and req = Domain.DLS.get current_req in
  fun f ->
    let saved = Domain.DLS.get stack and saved_req = Domain.DLS.get current_req in
    Domain.DLS.set stack (if parent = 0 then saved else parent :: saved);
    Domain.DLS.set current_req req;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set stack saved;
        Domain.DLS.set current_req saved_req)
      f

let spans () =
  Mutex.lock lock;
  let l = List.rev !recorded in
  Mutex.unlock lock;
  l

let duration s = s.stop -. s.start

(* Total length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with
  | None -> total
  | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   children cover. Children that overlap each other (parallel tasks) are
   counted once. Returned in the order of [spans]. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Sum of self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  tbl

(* Chrome trace_event JSON: one complete ("X") event per span, times in
   microseconds from the first span. *)
let to_chrome spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\
            \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
           s.name
           (1e6 *. (s.start -. t0))
           (1e6 *. duration s)
           s.tid s.id s.parent s.req))
    spans;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(* (layer time, wall): the summed self time of every non-root span, and
   the summed duration of the root spans they sit under. *)
let coverage spans =
  List.fold_left
    (fun (layers, wall) (s, self) ->
      if s.parent = 0 then (layers, wall +. duration s) else (layers +. self, wall))
    (0.0, 0.0) (self_times spans)
