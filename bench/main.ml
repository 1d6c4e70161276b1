(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (5) plus the repository's ablations.

   Usage:
     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- --full       # 4x request counts
     dune exec bench/main.exe -- fig6a fig9b  # a subset (an unknown id is an error)
     dune exec bench/main.exe -- --jobs 4     # fan sweep points across 4 domains
                                              # (--jobs 1 = sequential; default
                                              #  leaves one core for the OS; N
                                              #  must be a positive integer)
     dune exec bench/main.exe -- --breakdown  # inspect: latency-breakdown table
                                              # for a canonical traced run
     dune exec bench/main.exe -- --trace F    # inspect: export that run's trace
                                              # as Chrome JSON (ui.perfetto.dev)
     dune exec bench/main.exe -- --json F     # core-throughput suite: events/sec
                                              # per scenario, written as JSON
                                              # (add --quick for the <30s variant
                                              #  make check runs)

   Malformed arguments print an error and exit 2. Per-layer costs (heap,
   rng, policy, handler, balancer, Raft) are measured by perfbench/. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_figures ~scale ~ids =
  let selected =
    match ids with
    | [] -> Concord.Figures.all
    | ids ->
      List.filter_map
        (fun id -> Option.map (fun f -> (id, f)) (Concord.Figures.by_id id))
        ids
  in
  List.iter
    (fun ((_ : string), make) ->
      let fig, dt = wall (fun () -> make ?scale:(Some scale) ()) in
      Printf.printf "%s\n  (generated in %.1fs)\n\n%!" (Concord.Figure.render fig) dt)
    selected

let run_table1 () =
  let rows, dt = wall (fun () -> Concord.Table1.rows ()) in
  Printf.printf "[table1] Concord instrumentation overhead and timeliness (24 benchmarks)\n%s\n"
    (Concord.Table1.render rows);
  Printf.printf "  (generated in %.1fs)\n\n%!" dt

(* Inspection mode: one canonical traced run (Concord on YCSB-A at a
   moderate load), reported as a latency breakdown and/or a Perfetto
   trace instead of the benchmark sweep. *)
let run_inspection ~trace_file ~breakdown =
  let config = Repro_runtime.Systems.concord () in
  let n_requests = 4_000 in
  let tracer = Repro_runtime.Tracing.create ~capacity:(max 65_536 (n_requests * 64)) () in
  let (_ : Repro_runtime.Metrics.summary), dt =
    wall (fun () ->
        Repro_runtime.Server.run ~config ~mix:Repro_workload.Presets.ycsb_a
          ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 150_000.0 })
          ~n_requests ~tracer ())
  in
  Printf.printf "[inspect] %s on ycsb-a, 150.0 kRps, %d requests (%.1fs)\n"
    (Concord.Config.describe config) n_requests dt;
  if breakdown then begin
    let cswitch =
      Repro_hw.Costs.ns_of config.Repro_runtime.Config.costs
        config.Repro_runtime.Config.costs.Repro_hw.Costs.context_switch_cycles
    in
    print_string
      (Repro_runtime.Breakdown.render
         (Repro_runtime.Breakdown.of_trace ~cswitch_cost_ns:cswitch tracer))
  end;
  Option.iter
    (fun path ->
      Repro_runtime.Trace_export.write_file ~path
        (Repro_runtime.Trace_export.tracer_to_chrome_json tracer);
      Printf.printf "trace written to %s (open in ui.perfetto.dev)\n" path)
    trace_file

type args = {
  full : bool;
  quick : bool;
  breakdown : bool;
  trace : string option;
  json : string option;
  jobs : int option;
  ids : string list;
}

let usage =
  "usage: main.exe [--full] [--jobs N] [ID...] | --json FILE [--quick] | [--breakdown] \
   [--trace FILE]"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n%s\n%!" msg usage;
      exit 2)
    fmt

(* Every argument must mean something: a bad --jobs value, a flag missing
   its value, an unknown flag or an unknown experiment id is an error, not
   a silent fallback to the defaults. *)
let parse argv =
  let value flag = function
    | v :: rest when not (String.starts_with ~prefix:"--" v) -> (v, rest)
    | _ -> fail "%s needs a value" flag
  in
  let jobs_of v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ -> fail "--jobs wants a positive integer, got %S" v
  in
  let rec go a = function
    | [] -> { a with ids = List.rev a.ids }
    | "--full" :: rest -> go { a with full = true } rest
    | "--quick" :: rest -> go { a with quick = true } rest
    | "--breakdown" :: rest -> go { a with breakdown = true } rest
    | (("--trace" | "--json" | "--jobs") as flag) :: rest -> (
      let v, rest = value flag rest in
      match flag with
      | "--trace" -> go { a with trace = Some v } rest
      | "--json" -> go { a with json = Some v } rest
      | _ -> go { a with jobs = Some (jobs_of v) } rest)
    | arg :: rest when String.starts_with ~prefix:"--" arg -> (
      match String.index_opt arg '=' with
      | Some i ->
        go a (String.sub arg 0 i :: String.sub arg (i + 1) (String.length arg - i - 1) :: rest)
      | None -> fail "unknown option %s" arg)
    | id :: rest ->
      if id <> "table1" && Option.is_none (Concord.Figures.by_id id) then
        fail "unknown experiment id %S (known: table1 %s)" id
          (String.concat " " (List.map fst Concord.Figures.all));
      go { a with ids = id :: a.ids } rest
  in
  let defaults =
    { full = false; quick = false; breakdown = false; trace = None; json = None; jobs = None;
      ids = [] }
  in
  go defaults argv

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  match a.json with
  | Some path -> Core_bench.run ~path ~quick:a.quick
  | None when a.breakdown || a.trace <> None ->
    run_inspection ~trace_file:a.trace ~breakdown:a.breakdown
  | None ->
    Option.iter
      (fun jobs ->
        let cores = Domain.recommended_domain_count () in
        if jobs > cores then
          Printf.eprintf
            "warning: --jobs %d exceeds this machine's %d recommended domain(s); results stay \
             identical but oversubscription slows the run\n\
             %!"
            jobs cores;
        Repro_engine.Pool.set_default_jobs jobs)
      a.jobs;
    let scale = if a.full then Concord.Figures.Full else Concord.Figures.Quick in
    let t0 = Unix.gettimeofday () in
    Printf.printf
      "Concord (SOSP 2023) reproduction benchmarks -- %s scale, %d job%s\n\
       ================================================================\n\n\
       %!"
      (if a.full then "full" else "quick")
      (Repro_engine.Pool.default_jobs ())
      (if Repro_engine.Pool.default_jobs () = 1 then "" else "s");
    if a.ids = [] || List.mem "table1" a.ids then run_table1 ();
    run_figures ~scale ~ids:(List.filter (fun i -> i <> "table1") a.ids);
    Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
