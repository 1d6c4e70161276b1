(* Benchmark worker process. perfbench/run.py starts it and reads the JSON
   line it prints; run it by hand as

     perfbench.exe run WORKLOAD SEED
     perfbench.exe trace WORKLOAD SEED SECONDS OUT_FILE
     perfbench.exe host
     perfbench.exe calibrate

   [run] builds the workload's inputs from SEED, makes one untraced run
   through the library's public entry point and reports its cost (wall
   time, bytes allocated, peak major heap, set-up time) and its checks.
   [trace] makes the traced run (see trace.ml) for about SECONDS seconds
   and at least three rounds,
   writes its spans to OUT_FILE as Chrome trace-event JSON, and reports
   every per-layer metric. [host] reports the OCaml version and the domain
   count the runtime recommends. [calibrate] times the host-speed reference
   loop (calibrate.ml); it runs in a process of its own so that its table
   never enters a measured run's heap figures. Every numeric argument must be a positive
   integer; anything else exits 2. *)

module W = Workloads

let usage () =
  prerr_endline
    "usage: perfbench.exe run WORKLOAD SEED\n\
    \       perfbench.exe trace WORKLOAD SEED SECONDS OUT_FILE\n\
    \       perfbench.exe host\n\
    \       perfbench.exe calibrate";
  Printf.eprintf "workloads: %s\n" (String.concat ", " (List.map fst W.all));
  exit 2

let positive what s =
  match int_of_string_opt s with
  | Some v when v > 0 -> v
  | _ ->
    Printf.eprintf "%s must be a positive integer, got %S\n" what s;
    exit 2

let workload s =
  match W.of_string s with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S\n" s;
    usage ()

(* ---- JSON output ----------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "NaN"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list xs = "[" ^ String.concat ", " xs ^ "]"

(* ---- modes ------------------------------------------------------------------- *)

(* Set-up is timed once before the run, then in batches after it. The
   batch size is found first, by doubling it until a batch takes 1 ms; each
   batch is then timed with two clock reads and yields its mean, until
   three batches and 20 ms have accumulated. The median over all timings is
   reported, so set-ups of a few microseconds read steadily too. Only the
   first inputs are simulated. *)
let run_mode w ~seed ~n =
  let inputs, first = Measure.time (fun () -> W.setup w ~seed) in
  let leg = Measure.run_inputs inputs ~engine:Repro_engine.Par_sim.Seq ~n ~seed in
  Gc.compact ();
  let batch count =
    let t0 = Span.now_ns () in
    for _ = 1 to count do
      ignore (W.setup w ~seed : W.inputs)
    done;
    Measure.seconds_since t0
  in
  let rec size count = if batch count >= 0.001 then count else size (count * 2) in
  let count = size 1 in
  let rec more acc batches total =
    if batches >= 3 && total >= 0.02 then acc
    else begin
      let spent = batch count in
      more ((spent /. float_of_int count) :: acc) (batches + 1) (total +. spent)
    end
  in
  let setups = more [ first ] 0 first in
  let out = leg.out in
  print_endline
    (json_object
       [
         ("mode", json_string "run");
         ("workload", json_string (W.name w));
         ("seed", string_of_int seed);
         ("arrivals", string_of_int out.arrivals);
         ("events", string_of_int out.events);
         ("wall_s", json_float leg.wall_s);
         ("alloc_bytes", json_float leg.alloc_bytes);
         ("heap_peak_bytes", json_float leg.heap_peak_bytes);
         ("setup_s", json_float (Measure.median setups));
         ("engine", json_string (Repro_engine.Par_sim.to_string out.engine_ran));
         ("fingerprint", json_string out.fingerprint);
         ("failures", json_list (List.map json_string out.failures));
       ])

let trace_mode w ~seed ~n ~seconds ~out_file =
  let r = Trace.run w ~seed ~n ~seconds:(float_of_int seconds) ~log_cap:20_000 in
  Repro_runtime.Trace_export.write_file ~path:out_file r.trace_json;
  let first = List.hd r.rounds in
  print_endline
    (json_object
       [
         ("mode", json_string "trace");
         ("workload", json_string (W.name w));
         ("seed", string_of_int seed);
         ("requests", string_of_int n);
         ("rounds", string_of_int (List.length r.rounds));
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("failures", json_list (List.map json_string r.all_failures));
         ("fingerprint", json_string first.fingerprint);
         ("span_accounting", json_string first.accounting);
         ("trace_file", json_string out_file);
         ("metrics", json_object (List.map (fun (k, v) -> (k, json_float v)) r.metrics));
       ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "run"; w; seed ] ->
    let w = workload w in
    run_mode w ~seed:(positive "SEED" seed) ~n:(W.default_requests w)
  | [ "trace"; w; seed; seconds; out_file ] ->
    let w = workload w in
    let n = W.default_requests w in
    trace_mode w ~seed:(positive "SEED" seed) ~n ~seconds:(positive "SECONDS" seconds) ~out_file
  | [ "calibrate" ] -> print_endline (json_object [ ("ref_s", json_float (Calibrate.seconds ())) ])
  | [ "host" ] ->
    print_endline
      (json_object
         [
           ("ocaml", json_string Sys.ocaml_version);
           ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
         ])
  | _ -> usage ()
