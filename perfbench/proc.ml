(* Child processes under test: spawn with stdout/stderr captured to files,
   reap with wait4 for the peak resident set, and read the OCaml runtime's
   exit-time GC statistics ([OCAMLRUNPARAM=v=0x400]) from stderr. *)

external wait4 : int -> int * int * int * float = "perfbench_wait4"

type exit = { code : int; signal : int; maxrss_kb : int; cpu_s : float }

let env_with_gc_stats () =
  let keep =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  in
  Array.of_list ("OCAMLRUNPARAM=v=0x400" :: keep)

(* Start [prog args] with stdout and stderr redirected to the given files. *)
let spawn ~stdout ~stderr prog args =
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = fd stdout and err = fd stderr in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; err; devnull ])
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (env_with_gc_stats ()) devnull out err)
  in
  pid

let wait pid =
  let code, signal, maxrss_kb, cpu_s = wait4 pid in
  { code; signal; maxrss_kb; cpu_s }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [allocated_words] from the runtime's exit report, if present. *)
let allocated_words stderr_text =
  String.split_on_char '\n' stderr_text
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "allocated_words"; v ] -> float_of_string_opt (String.trim v)
         | _ -> None)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
