type t =
  | Ipi
  | Linux_ipi
  | Uipi
  | Rdtsc_probe
  | Cache_line
  | Model_lateness of { sigma_ns : float }
  | No_preempt

let name = function
  | Ipi -> "ipi"
  | Linux_ipi -> "linux-ipi"
  | Uipi -> "uipi"
  | Rdtsc_probe -> "rdtsc"
  | Cache_line -> "cache-line"
  | Model_lateness { sigma_ns } -> Printf.sprintf "model-lateness(%.1fns)" sigma_ns
  | No_preempt -> "no-preempt"

let notif_cost_cycles (costs : Costs.t) = function
  | Ipi -> costs.ipi_notif_cycles
  | Linux_ipi -> costs.linux_ipi_notif_cycles
  | Uipi -> costs.uipi_notif_cycles
  | Cache_line -> costs.cacheline_notif_cycles
  | Rdtsc_probe | Model_lateness _ | No_preempt -> 0

let proc_overhead (costs : Costs.t) = function
  | Cache_line -> costs.coop_proc_overhead
  | Rdtsc_probe -> costs.rdtsc_proc_overhead
  | Ipi | Linux_ipi | Uipi | Model_lateness _ | No_preempt -> 0.0

let needs_dispatcher_signal = function
  | Ipi | Linux_ipi | Uipi | Cache_line | Model_lateness _ -> true
  | Rdtsc_probe | No_preempt -> false

let is_precise = function
  | Ipi | Linux_ipi | Uipi -> true
  | Cache_line | Rdtsc_probe | Model_lateness _ | No_preempt -> false

let preemptive = function
  | No_preempt -> false
  | Ipi | Linux_ipi | Uipi | Cache_line | Rdtsc_probe | Model_lateness _ -> true

let yield_lateness_ns t ~costs:(_ : Costs.t) ~rng ~probe_spacing_ns =
  match t with
  | Ipi | Linux_ipi | Uipi | No_preempt -> 0
  | Cache_line | Rdtsc_probe ->
    (* The signal lands somewhere inside the current inter-probe gap; the
       worker reaches the next probe after the residual of that gap. *)
    if probe_spacing_ns <= 0.0 then 0
    else Repro_engine.Rng.scaled_int rng ~scale:probe_spacing_ns
  | Model_lateness { sigma_ns } ->
    if sigma_ns <= 0.0 then 0
    else
      int_of_float
        (Repro_engine.Rng.normal_positive rng ~mu:0.0 ~sigma:sigma_ns)
