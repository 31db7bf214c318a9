(* Child processes of one benchmark run: spawning the real server
   binaries, reading their banners, and making sure none outlives the run.

   Every child is recorded in [pid_file] as it starts. A run that finds a
   recorded child still alive refuses to start (a leftover router or
   shard burning CPU would skew every later measurement), and [kill_all]
   runs on every exit path: normal return, exception, and the signals
   below. *)

type child = { pid : int; name : string }

let children : child list ref = ref []
let pid_file = ref ""

let alive pid =
  match Unix.kill pid 0 with
  | () -> (
    (* a zombie still answers kill 0; only a running process counts *)
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _ -> false
    | exception Unix.Unix_error _ -> true)
  | exception Unix.Unix_error _ -> false

let is_benchmark_child pid =
  let cmdline = Printf.sprintf "/proc/%d/cmdline" pid in
  match In_channel.with_open_bin cmdline In_channel.input_all with
  | s ->
    let has sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    has "hrdb_server" || has "hrdb_replica"
  | exception Sys_error _ -> false

let write_pid_file () =
  if !pid_file <> "" then
    Out_channel.with_open_text !pid_file (fun oc ->
        List.iter (fun c -> Printf.fprintf oc "%d %s\n" c.pid c.name) !children)

(* Refuse to start while a previous run's children are alive. *)
let check_no_leftovers file =
  pid_file := file;
  if Sys.file_exists file then begin
    let live =
      In_channel.with_open_text file In_channel.input_lines
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line with
             | pid :: _ -> (
               match int_of_string_opt pid with
               | Some pid when is_benchmark_child pid -> Some line
               | _ -> None)
             | [] -> None)
    in
    if live <> [] then begin
      prerr_endline
        "perfbench: processes from a previous run are still alive; stop them first:";
      List.iter (fun l -> prerr_endline ("  " ^ l)) live;
      exit 3
    end;
    Sys.remove file
  end

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap c.pid;
  children := List.filter (fun o -> o.pid <> c.pid) !children;
  write_pid_file ()

let kill_all () = List.iter kill !children

let install_handlers () =
  at_exit kill_all;
  let on_signal _ = exit 130 in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Peak resident set (VmHWM) of a live child, in MiB. *)
let peak_rss_mb c =
  let status = Printf.sprintf "/proc/%d/status" c.pid in
  match In_channel.with_open_text status In_channel.input_lines with
  | lines ->
    List.fold_left
      (fun acc l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else acc)
      0. lines
  | exception Sys_error _ -> 0.

(* Spawns [exe args] with stdout/stderr in [log], waits for the banner
   line and returns the port printed after "127.0.0.1:". *)
let spawn ~name ~log exe args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd)
  in
  let c = { pid; name } in
  children := c :: !children;
  write_pid_file ();
  let deadline = Unix.gettimeofday () +. 30. in
  let rec await () =
    let text = In_channel.with_open_bin log In_channel.input_all in
    let marker = "127.0.0.1:" in
    let m = String.length marker in
    let rec find i =
      if i + m > String.length text then None
      else if String.sub text i m = marker then Some (i + m)
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
      let j = ref i in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      if !j > i && !j < String.length text then int_of_string (String.sub text i (!j - i))
      else retry text
    | None -> retry text
  and retry text =
    if not (alive pid) then failwith (Printf.sprintf "%s exited during start-up: %s" name text);
    if Unix.gettimeofday () > deadline then failwith (name ^ ": no banner within 30 s");
    Unix.sleepf 0.002;
    await ()
  in
  (c, await ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes dir =
  Array.fold_left
    (fun acc n ->
      match Unix.stat (Filename.concat dir n) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)

let fresh_dir root name =
  let d = Filename.concat root name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d
