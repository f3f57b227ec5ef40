//! Command execution: stage parameters, load the tool, run, and render
//! reports to a writer (so tests can capture the output).

use crate::args::{ParamSpec, RunOpts};
use fpx_binfpe::BinFpe;
use fpx_compiler::CompileOpts;
use fpx_nvbit::tool::NvbitTool;
use fpx_nvbit::Nvbit;
use fpx_obs::{Obs, Snapshot};
use fpx_prof::{Phase as ProfPhase, Prof};
use fpx_sass::kernel::KernelCode;
use fpx_shadow::Shadow;
use fpx_sim::gpu::{Gpu, LaunchConfig, ParamValue};
use fpx_suite::runner::{self, RunnerConfig, Tool, ToolKind};
use fpx_suite::stress::{stress_search, StressConfig};
use gpu_fpx::analyzer::Analyzer;
use gpu_fpx::chains::{chains_dot, flow_chains, FlowChain};
use gpu_fpx::detector::Detector;
use gpu_fpx::report::DetectorReport;
use std::io::Write;
use std::sync::Arc;

/// Execution failure (I/O, assembly, simulation).
pub type CliError = Box<dyn std::error::Error>;

/// The fixed seed `buf:randn` staging uses when `--seed` is absent —
/// runs are reproducible by default, never wall-clock-seeded.
const DEFAULT_STAGE_SEED: u64 = 0xC11;

/// Stage the `--param` specs into device memory / immediates. `seed`
/// drives `buf:randn` contents (`--seed`, or [`DEFAULT_STAGE_SEED`]).
fn stage_params(
    gpu: &mut Gpu,
    specs: &[ParamSpec],
    seed: u64,
) -> Result<Vec<ParamValue>, CliError> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(specs.len());
    for s in specs {
        let v = match s {
            ParamSpec::F32(v) => ParamValue::F32(*v),
            ParamSpec::F64(v) => ParamValue::F64(*v),
            ParamSpec::U32(v) => ParamValue::U32(*v),
            ParamSpec::BufF32(vals) => ParamValue::Ptr(gpu.mem.alloc_f32(vals)?),
            ParamSpec::BufF64(vals) => ParamValue::Ptr(gpu.mem.alloc_f64(vals)?),
            ParamSpec::Zeros(n) => ParamValue::Ptr(gpu.mem.alloc_f32(&vec![0.0; *n as usize])?),
            ParamSpec::Randn(n) => {
                let vals: Vec<f32> = (0..*n).map(|_| rng.gen_range(-2.0..2.0)).collect();
                ParamValue::Ptr(gpu.mem.alloc_f32(&vals)?)
            }
            ParamSpec::Uninit(n) => {
                ParamValue::Ptr(fpx_suite::inputs::alloc_uninitialized_f32(&mut gpu.mem, *n))
            }
            ParamSpec::Out(n) => ParamValue::Ptr(gpu.mem.alloc(n * 4)?),
        };
        out.push(v);
    }
    Ok(out)
}

/// The runner configuration these options describe, with the given
/// metrics and profiling handles.
fn runner_config(opts: &RunOpts, obs: Obs, prof: Prof) -> RunnerConfig {
    let mut rc = RunnerConfig {
        arch: opts.arch,
        threads: opts.resolved_threads(),
        obs,
        prof,
        ..RunnerConfig::default()
    };
    rc.opts.arch = opts.arch;
    rc.opts.fast_math = opts.fast_math;
    rc
}

/// An enabled metrics handle when `--metrics` was given, else disabled.
fn obs_from(opts: &RunOpts) -> Obs {
    if opts.metrics.is_some() {
        Obs::with_sms(opts.sms)
    } else {
        Obs::disabled()
    }
}

/// An enabled profiling handle when `--profile` was given, else disabled.
fn prof_from(opts: &RunOpts) -> Prof {
    if opts.profile.is_some() {
        Prof::enabled()
    } else {
        Prof::disabled()
    }
}

/// Write the three profile artifacts for the `--profile` path, if any:
/// the deterministic JSON at the path itself, plus `.collapsed`
/// (flamegraph.pl / inferno folded stacks) and `.chrome.json` (Perfetto)
/// siblings sharing its stem.
fn write_profile(opts: &RunOpts, prof: &Prof, w: &mut dyn Write) -> Result<(), CliError> {
    let Some(path) = &opts.profile else {
        return Ok(());
    };
    let snap = prof
        .snapshot()
        .ok_or("profile was not collected for this run")?;
    fpx_obs::artifact::write_atomic(path, snap.to_json())?;
    let stem = path.strip_suffix(".json").unwrap_or(path);
    let collapsed = format!("{stem}.collapsed");
    fpx_obs::artifact::write_atomic(&collapsed, snap.collapsed())?;
    let chrome = format!("{stem}.chrome.json");
    fpx_obs::artifact::write_atomic(&chrome, fpx_trace::prof_chrome_trace(&snap))?;
    writeln!(w, "profile JSON -> {path} (+ {collapsed}, {chrome})")?;
    Ok(())
}

/// Write the snapshot JSON to the `--metrics` path, if any.
fn write_metrics(
    opts: &RunOpts,
    snap: Option<&Snapshot>,
    w: &mut dyn Write,
) -> Result<(), CliError> {
    let Some(path) = &opts.metrics else {
        return Ok(());
    };
    let snap = snap.ok_or("metrics were not collected for this run")?;
    fpx_obs::artifact::write_atomic(path, snap.to_json())?;
    writeln!(w, "metrics JSON -> {path}")?;
    Ok(())
}

/// Assemble a SASS file into a kernel.
pub fn load_kernel(path: &str) -> Result<Arc<KernelCode>, CliError> {
    let text = std::fs::read_to_string(path)?;
    let code = fpx_sass::assemble_kernel(&text).map_err(|e| format!("{path}: {e}"))?;
    code.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(Arc::new(code))
}

/// `gpu-fpx detect <file>`: run the detector and print the report.
pub fn detect(path: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    kernel_file(path, ToolKind::Detector, opts, w)
}

/// `gpu-fpx analyze <file>`: analyzer listing plus flow-chain summaries.
pub fn analyze(path: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    kernel_file(path, ToolKind::Analyzer, opts, w)
}

/// `gpu-fpx shadow <file>`: precision sanitizing — shadow-value
/// divergence listing, flow-chain summaries, and the `--chains-dot`
/// export, so a precision-loss site gets the same birth→propagate→kill
/// treatment as a NaN.
pub fn shadow(path: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    kernel_file(path, ToolKind::Shadow, opts, w)
}

/// `gpu-fpx binfpe <file>`: the baseline, for comparison.
pub fn binfpe(path: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    kernel_file(path, ToolKind::BinFpe, opts, w)
}

/// The kernel-file driver behind `detect`, `analyze`, `shadow` and
/// `binfpe`: run the kernel under `kind` and print the tool's report.
fn kernel_file(
    path: &str,
    kind: ToolKind,
    opts: &RunOpts,
    w: &mut dyn Write,
) -> Result<(), CliError> {
    let kernel = load_kernel(path)?;
    let obs = obs_from(opts);
    let prof = prof_from(opts);
    let driver = prof.span(ProfPhase::Driver);
    let registry = || obs.registry().map(|r| r.snapshot());
    let k = &kernel;
    match opts.runner_tool(kind) {
        Tool::Detector(dc) => {
            let nv = launch_file(Detector::new(dc), k, opts, &obs, &prof)?;
            write_metrics(opts, nv.tool.snapshot_into(&obs).as_ref(), w)?;
            let _sp = prof.span(ProfPhase::Analysis);
            let report = nv.tool.report();
            for m in &report.messages {
                writeln!(w, "{m}")?;
            }
            let row = report.counts.row();
            writeln!(
                w,
                "\nexceptions (distinct sites): FP64 NAN {} INF {} SUB {} DIV0 {} | FP32 NAN {} INF {} SUB {} DIV0 {}",
                row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7]
            )?;
            let h = report.counts.row16();
            if h.iter().any(|v| *v > 0) {
                writeln!(
                    w,
                    "FP16 (extension): NAN {} INF {} SUB {} DIV0 {}",
                    h[0], h[1], h[2], h[3]
                )?;
            }
        }
        Tool::Analyzer(ac) => {
            let nv = launch_file(Analyzer::new(ac), k, opts, &obs, &prof)?;
            write_metrics(opts, registry().as_ref(), w)?;
            let _sp = prof.span(ProfPhase::Analysis);
            let report = nv.tool.report();
            write!(w, "{}", report.listing())?;
            write_chains(opts, Some("exception-flow chains"), &flow_chains(report), w)?;
            writeln!(w, "\nflow states: {:?}", report.state_counts())?;
        }
        Tool::BinFpe => {
            let nv = launch_file(BinFpe::new(), k, opts, &obs, &prof)?;
            write_metrics(opts, registry().as_ref(), w)?;
            let _sp = prof.span(ProfPhase::Analysis);
            for m in &nv.tool.report().messages {
                writeln!(w, "{m}")?;
            }
            writeln!(
                w,
                "\nBinFPE: {} values checked on the host, {} distinct sites",
                nv.tool.values_checked,
                nv.tool.report().counts.total()
            )?;
        }
        Tool::Shadow(sc) => {
            let nv = launch_file(Shadow::new(sc), k, opts, &obs, &prof)?;
            nv.tool.snapshot_into(&obs);
            write_metrics(opts, registry().as_ref(), w)?;
            let _sp = prof.span(ProfPhase::Analysis);
            let report = nv.tool.report();
            for m in report.listing() {
                writeln!(w, "{m}")?;
            }
            let chains = flow_chains(&report.to_flow_report());
            write_chains(opts, Some("precision-loss chains"), &chains, w)?;
            writeln!(
                w,
                "\nshadow ({}, budget {} ulps): {} findings / {} comparisons {:?}",
                sc.mode.label(),
                sc.ulp_budget,
                report.findings.len(),
                report.comparisons,
                report.kind_counts(),
            )?;
        }
    }
    drop(driver);
    write_profile(opts, &prof, w)
}

/// Load `tool` into a fresh context, stage the `--param`s, and launch
/// `kernel` `--launches` times.
fn launch_file<T: NvbitTool>(
    mut tool: T,
    kernel: &Arc<KernelCode>,
    opts: &RunOpts,
    obs: &Obs,
    prof: &Prof,
) -> Result<Nvbit<T>, CliError> {
    tool.set_prof(prof.clone());
    let mut nv = Nvbit::new(Gpu::new(opts.arch), tool);
    nv.gpu.threads = opts.resolved_threads();
    nv.set_obs(obs.clone());
    nv.set_prof(prof.clone());
    let params = {
        let _sp = prof.span(ProfPhase::Prepare);
        let seed = opts.seed.unwrap_or(DEFAULT_STAGE_SEED);
        stage_params(&mut nv.gpu, &opts.params, seed)?
    };
    let cfg = LaunchConfig::new(opts.grid, opts.block, params);
    for _ in 0..opts.launches {
        nv.launch(kernel, &cfg)?;
    }
    nv.terminate();
    Ok(nv)
}

/// Print the chain summaries under `title`, if one is given, then write
/// the chains as Graphviz DOT to the `--chains-dot` path, if any.
fn write_chains(
    opts: &RunOpts,
    title: Option<&str>,
    chains: &[FlowChain],
    w: &mut dyn Write,
) -> Result<(), CliError> {
    if let Some(title) = title.filter(|_| !chains.is_empty()) {
        writeln!(w, "\n{title}:")?;
        for c in chains {
            writeln!(w, "  - {}", c.summary())?;
        }
    }
    if let Some(path) = &opts.chains_dot {
        fpx_obs::artifact::write_atomic(path, chains_dot(chains))?;
        writeln!(w, "flow-chain DOT -> {path}")?;
    }
    Ok(())
}

/// `gpu-fpx stress <file>`: input search with the detector as objective.
pub fn stress(path: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let kernel = load_kernel(path)?;
    let mut cfg = StressConfig {
        compile: CompileOpts {
            fast_math: opts.fast_math,
            arch: opts.arch,
            ..CompileOpts::default()
        },
        ..StressConfig::default()
    };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let res = stress_search(&kernel, opts.dims as usize, &cfg);
    writeln!(
        w,
        "evaluated {} candidates; best input triggers {} distinct sites",
        res.evaluations,
        res.best_score()
    )?;
    for m in &res.best_report.messages {
        writeln!(w, "{m}")?;
    }
    writeln!(
        w,
        "best inputs: {:?}",
        &res.best_inputs[..res.best_inputs.len().min(8)]
    )?;
    Ok(())
}

/// `gpu-fpx suite list`.
pub fn suite_list(w: &mut dyn Write) -> Result<(), CliError> {
    let mut current = None;
    for p in fpx_suite::registry() {
        if current != Some(p.suite) {
            writeln!(w, "\n[{}]", p.suite.label())?;
            current = Some(p.suite);
        }
        let marker = if fpx_suite::expected::expected_row(&p.name).is_some() {
            " *"
        } else {
            ""
        };
        writeln!(w, "  {}{marker}", p.name)?;
    }
    writeln!(w, "\n(* = exception-bearing per the paper's Table 4)")?;
    Ok(())
}

/// `gpu-fpx suite run <name>`. Runs through the same
/// [`fpx_serve::job::run_rendered`] path the serve worker pool uses, so
/// one-shot and served output cannot drift.
pub fn suite_run(name: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let prof = prof_from(opts);
    let driver = prof.span(ProfPhase::Driver);
    let rc = runner_config(opts, obs_from(opts), prof.clone());
    let r = fpx_serve::job::run_rendered(&opts.job_spec(name), &rc).map_err(|e| e.to_string())?;
    write_metrics(opts, r.result.metrics.as_ref(), w)?;
    w.write_all(split_chains_dot(opts, &r.text)?.as_bytes())?;
    drop(driver);
    write_profile(opts, &prof, w)?;
    Ok(())
}

/// Pull the delimited chains-DOT section out of a rendered job report:
/// the DOT body goes to the `--chains-dot` path, the remaining report
/// text (plus an artifact note) is returned for printing.
fn split_chains_dot(opts: &RunOpts, text: &str) -> Result<String, CliError> {
    let Some(path) = &opts.chains_dot else {
        return Ok(text.to_string());
    };
    let (mut rest, dot) = fpx_serve::job::extract_chains_dot(text);
    if let Some(dot) = dot {
        fpx_obs::artifact::write_atomic(path, dot)?;
        rest.push_str(&format!("flow-chain DOT -> {path}\n"));
    }
    Ok(rest)
}

/// `gpu-fpx trace record <name>`: simulate once, write the trace file.
pub fn trace_record(name: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let program = fpx_suite::find(name).ok_or_else(|| format!("unknown program {name:?}"))?;
    let copts = CompileOpts {
        fast_math: opts.fast_math,
        arch: opts.arch,
        ..CompileOpts::default()
    };
    let trace = fpx_trace::record(&program.name, opts.arch, opts.fast_math, |gpu| {
        program
            .prepare(&copts, &mut gpu.mem)
            .launches
            .into_iter()
            .map(|l| (l.kernel, l.cfg))
            .collect()
    })
    .map_err(|e| format!("{name}: {e:?}"))?;
    let bytes = trace.to_bytes();
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{name}.fpxtrace"));
    fpx_obs::artifact::write_atomic(&path, &bytes)?;
    let mut m = fpx_trace::Metrics::for_trace(&trace);
    m.bytes = bytes.len() as u64;
    writeln!(w, "recorded {name} -> {path}")?;
    write!(w, "{m}")?;
    Ok(())
}

/// `gpu-fpx trace replay <file>`: drive a tool from the recording,
/// without re-simulating, and print its report plus replay metrics.
pub fn trace_replay(file: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let (rep, base, bytes) = fpx_coach::bind_trace(file)?;
    let wd = runner::hang_budget(base, RunnerConfig::default().hang_slowdown_limit);
    let mut m = fpx_trace::Metrics::for_trace(rep.trace());
    m.bytes = bytes;
    let obs = obs_from(opts);
    let prof = prof_from(opts);
    let driver = prof.span(ProfPhase::Driver);
    let registry = || obs.registry().map(|r| r.snapshot());

    let started = std::time::Instant::now();
    // Replay records the same report-derived telemetry as a live run, so
    // count-valued series match record-vs-replay.
    let (cycles, hung, pushes) = match opts.runner_tool(opts.tool) {
        Tool::Detector(dc) => replay_report(&rep, wd, &obs, &prof, Detector::new(dc), |d| {
            write_metrics(opts, d.snapshot_into(&obs).as_ref(), w)?;
            write_sites(&obs, d.report(), w)?;
            if let Some((h, miss)) = d.gt_stats() {
                m.gt_hits = Some(h);
                m.gt_misses = Some(miss);
            }
            Ok(())
        })?,
        Tool::Analyzer(ac) => replay_report(&rep, wd, &obs, &prof, Analyzer::new(ac), |a| {
            write_metrics(opts, registry().as_ref(), w)?;
            let report = a.report();
            gpu_fpx::observe_analyzer(&obs, report);
            write!(w, "{}", report.listing())?;
            write_chains(opts, None, &flow_chains(report), w)?;
            writeln!(w, "flow states: {:?}", report.state_counts())?;
            Ok(())
        })?,
        Tool::BinFpe => replay_report(&rep, wd, &obs, &prof, BinFpe::new(), |b| {
            write_metrics(opts, registry().as_ref(), w)?;
            write_sites(&obs, b.report(), w)
        })?,
        Tool::Shadow(sc) => replay_report(&rep, wd, &obs, &prof, Shadow::new(sc), |s| {
            s.snapshot_into(&obs);
            write_metrics(opts, registry().as_ref(), w)?;
            let report = s.report();
            fpx_shadow::observe_shadow(&obs, report);
            for msg in report.listing() {
                writeln!(w, "{msg}")?;
            }
            write_chains(opts, None, &flow_chains(&report.to_flow_report()), w)?;
            writeln!(
                w,
                "shadow: {} findings / {} comparisons {:?}",
                report.findings.len(),
                report.comparisons,
                report.kind_counts(),
            )?;
            Ok(())
        })?,
    };
    let secs = started.elapsed().as_secs_f64();
    m.channel_pushes = Some(pushes);
    m.replay_cycles = Some(cycles);
    if secs > 0.0 {
        m.replay_events_per_sec = Some(m.events as f64 / secs);
    }
    writeln!(
        w,
        "\nreplayed {file}: baseline {base} cycles, tool {cycles} cycles (slowdown {:.2}x){}",
        cycles as f64 / base.max(1) as f64,
        if hung { " [HUNG]" } else { "" }
    )?;
    write!(w, "{m}")?;
    drop(driver);
    write_profile(opts, &prof, w)?;
    Ok(())
}

/// Replay `rep` under `tool` to the budget `wd`, then `print` the tool's
/// report inside the analysis span; returns the replayed cycles, the hang
/// verdict and the channel pushes.
fn replay_report<T: NvbitTool>(
    rep: &fpx_trace::TraceReplayer,
    wd: u64,
    obs: &Obs,
    prof: &Prof,
    tool: T,
    print: impl FnOnce(&T) -> Result<(), CliError>,
) -> Result<(u64, bool, u64), CliError> {
    let out = rep.replay_profiled(tool, Some(wd), obs.clone(), prof.clone());
    let _sp = prof.span(ProfPhase::Analysis);
    print(&out.tool)?;
    Ok((out.cycles, out.hung, out.channel_pushes))
}

/// The detector-style report lines `trace replay` prints (detector and
/// BinFPE), after folding the report into the telemetry layer.
fn write_sites(obs: &Obs, report: &DetectorReport, w: &mut dyn Write) -> Result<(), CliError> {
    gpu_fpx::observe_detector(obs, report);
    for msg in &report.messages {
        writeln!(w, "{msg}")?;
    }
    writeln!(w, "row: {:?}", report.counts.row())?;
    Ok(())
}

/// `gpu-fpx metrics <name>`: run one suite program with the metrics
/// registry enabled and print the human summary table; `--metrics PATH`
/// additionally writes the machine-readable JSON snapshot.
pub fn metrics(name: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let program = fpx_suite::find(name).ok_or_else(|| format!("unknown program {name:?}"))?;
    let rc = runner_config(opts, Obs::with_sms(opts.sms), Prof::disabled());
    let tool = opts.runner_tool(opts.tool);
    let (base, r) = runner::try_run(&program, &rc, &tool).map_err(|e| e.message(name))?;
    let snap = r
        .metrics
        .as_ref()
        .expect("metrics enabled for this command");
    writeln!(
        w,
        "{name}: baseline {base} cycles, tool {} cycles (slowdown {:.2}x){}",
        r.cycles,
        r.cycles as f64 / base.max(1) as f64,
        if r.hung { " [HUNG]" } else { "" }
    )?;
    write!(w, "{snap}")?;
    write_metrics(opts, Some(snap), w)?;
    Ok(())
}

/// `gpu-fpx trace export <file>`: Chrome trace-format JSON for Perfetto.
pub fn trace_export(file: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
    let trace = fpx_trace::Trace::from_bytes(&bytes).map_err(|e| format!("{file}: {e}"))?;
    let json = fpx_trace::chrome_trace(&trace, opts.sms);
    let path = opts.out.clone().unwrap_or_else(|| format!("{file}.json"));
    fpx_obs::artifact::write_atomic(&path, &json)?;
    let mut m = fpx_trace::Metrics::for_trace(&trace);
    m.bytes = json.len() as u64;
    writeln!(
        w,
        "exported {file} -> {path} (open in Perfetto / about:tracing)"
    )?;
    write!(w, "{m}")?;
    Ok(())
}

/// Resolve the campaign program pool from `--preset` / `--programs`
/// (default: the `smoke` preset), plus the CLI words naming that pool —
/// embedded in repro lines so misses replay against the same pool.
fn inject_pool(opts: &RunOpts) -> Result<(Vec<fpx_suite::Program>, String), CliError> {
    let (names, arg): (Vec<String>, String) = if let Some(p) = &opts.preset {
        let pool = fpx_suite::campaign_preset(p)
            .ok_or_else(|| format!("unknown preset {p:?} (smoke|table4|serious)"))?;
        let names = pool.iter().map(|s| s.to_string()).collect();
        (names, format!("--preset {p}"))
    } else if !opts.programs.is_empty() {
        (
            opts.programs.clone(),
            format!("--programs {}", opts.programs.join(",")),
        )
    } else {
        let pool = fpx_suite::campaign_preset("smoke").expect("smoke preset exists");
        let names = pool.iter().map(|s| s.to_string()).collect();
        (names, "--preset smoke".to_string())
    };
    let mut programs = Vec::with_capacity(names.len());
    for n in &names {
        programs.push(fpx_suite::find(n).ok_or_else(|| format!("unknown program {n:?}"))?);
    }
    Ok((programs, arg))
}

fn inject_config(opts: &RunOpts, programs_arg: String) -> fpx_inject::CampaignConfig {
    fpx_inject::CampaignConfig {
        seed: opts.seed.unwrap_or(0),
        trials: opts.trials,
        arch: opts.arch,
        opts: CompileOpts {
            fast_math: opts.fast_math,
            arch: opts.arch,
            ..CompileOpts::default()
        },
        threads: opts.resolved_threads(),
        max_faults: opts.max_faults,
        backends: if opts.backends.is_empty() {
            fpx_inject::DEFAULT_BACKENDS.to_vec()
        } else {
            opts.backends.clone()
        },
        precision_faults: opts.precision_faults,
        obs: obs_from(opts),
        prof: prof_from(opts),
        programs_arg,
        ..fpx_inject::CampaignConfig::default()
    }
}

/// `gpu-fpx inject campaign`: run a seeded fault-injection campaign over
/// the program pool, print the coverage report (JSON with `--json` or
/// `-o`), and — with `--trace-dir` — record every missed trial's
/// injected execution as a replayable trace.
pub fn inject_campaign(opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let (programs, arg) = inject_pool(opts)?;
    let cfg = inject_config(opts, arg);
    let driver = cfg.prof.span(ProfPhase::Driver);
    let refs: Vec<&fpx_suite::Program> = programs.iter().collect();
    let report = fpx_inject::run_campaign(&refs, &cfg)?;
    write_metrics(opts, cfg.obs.registry().map(|r| r.snapshot()).as_ref(), w)?;
    if let Some(path) = &opts.out {
        fpx_obs::artifact::write_atomic(path, report.to_json())?;
        writeln!(w, "campaign JSON -> {path}")?;
    }
    if opts.json {
        write!(w, "{}", report.to_json())?;
    } else {
        write!(w, "{report}")?;
    }
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir)?;
        let mut recorded = std::collections::BTreeSet::new();
        for m in report.misses() {
            if !recorded.insert(m.trial) {
                continue; // one trace per trial, however many faults missed
            }
            let (pi, faults) = fpx_inject::replay_plan(&refs, &cfg, m.trial)?;
            let trace = fpx_inject::record_trial_trace(refs[pi], &cfg, &faults)
                .map_err(|e| format!("trial {}: {e:?}", m.trial))?;
            let path = std::path::Path::new(dir).join(format!("trial-{}.fpxtrace", m.trial));
            fpx_obs::artifact::write_atomic(&path, trace.to_bytes())?;
            writeln!(w, "missed trial {} trace -> {}", m.trial, path.display())?;
        }
    }
    drop(driver);
    write_profile(opts, &cfg.prof, w)?;
    Ok(())
}

/// `gpu-fpx inject replay --trial N`: re-derive one campaign trial's
/// fault plan from ⟨seed, pool⟩, re-run it, and print the per-backend
/// outcomes; `-o` additionally records the injected execution as a trace.
pub fn inject_replay(opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let trial = opts.trial.ok_or("inject replay needs --trial N")?;
    let (programs, arg) = inject_pool(opts)?;
    let cfg = inject_config(opts, arg);
    let refs: Vec<&fpx_suite::Program> = programs.iter().collect();
    let (pi, faults) = fpx_inject::replay_plan(&refs, &cfg, trial)?;
    if faults.is_empty() {
        return Err("no injectable sites in the program pool".into());
    }
    writeln!(
        w,
        "trial {trial}: {} with {} fault(s), seed {}",
        refs[pi].name,
        faults.len(),
        cfg.seed
    )?;
    let t = fpx_inject::replay_trial(refs[pi], &cfg, trial, &faults)?;
    for f in &t.faults {
        writeln!(
            w,
            "  site {} ({} pc {}) {} bit {}: fired {} oracle [{}]",
            f.spec.site,
            f.kernel,
            f.pc,
            f.spec.kind.label(),
            f.spec.bit,
            f.fired,
            f.oracle.join(","),
        )?;
        for (b, o) in cfg.backends.iter().zip(&f.outcomes) {
            writeln!(w, "    {:<9} {}", b.label(), o.label())?;
        }
    }
    if let Some(path) = &opts.out {
        let trace = fpx_inject::record_trial_trace(refs[pi], &cfg, &faults)
            .map_err(|e| format!("{e:?}"))?;
        fpx_obs::artifact::write_atomic(path, trace.to_bytes())?;
        writeln!(w, "injected trace -> {path}")?;
    }
    Ok(())
}

/// `gpu-fpx inject report <file>`: summarize a previously written
/// campaign JSON — per-backend rates and the miss list with repro lines.
pub fn inject_report(file: &str, _opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    use fpx_inject::json::Value;
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let v = fpx_inject::json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != "fpx-inject-campaign-v1" {
        return Err(format!("{file}: not a campaign report (schema {schema:?})").into());
    }
    let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(0);
    let trials = v.get("trials").and_then(Value::as_u64).unwrap_or(0);
    writeln!(w, "campaign {file}: seed {seed} · {trials} trials")?;
    let backends: Vec<&str> = v
        .get("backends")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    for b in &backends {
        let Some(s) = v.get("summary").and_then(|s| s.get(b)) else {
            continue;
        };
        let n = |key: &str| s.get(key).and_then(Value::as_u64).unwrap_or(0);
        writeln!(
            w,
            "  {b:<9} detected {}/{} · missed {} · misclassified {} · NaN/INF rate {:.1}%",
            n("detected"),
            n("oracle_positive"),
            n("missed"),
            n("misclassified"),
            s.get("nan_inf_rate").and_then(Value::as_f64).unwrap_or(1.0) * 100.0,
        )?;
    }
    let misses = v.get("misses").and_then(Value::as_arr).unwrap_or(&[]);
    writeln!(w, "  misses: {}", misses.len())?;
    for m in misses {
        writeln!(
            w,
            "    [{}] trial {} {} → {}",
            m.get("backend").and_then(Value::as_str).unwrap_or("?"),
            m.get("trial").and_then(Value::as_u64).unwrap_or(0),
            m.get("program").and_then(Value::as_str).unwrap_or("?"),
            m.get("repro").and_then(Value::as_str).unwrap_or("?"),
        )?;
    }
    let shrinks = v.get("shrink").and_then(Value::as_arr).unwrap_or(&[]);
    if !shrinks.is_empty() {
        writeln!(w, "  shrunk trials: {}", shrinks.len())?;
    }
    Ok(())
}

/// `gpu-fpx prof report <name>`: run one suite program uninstrumented
/// and under each tool with self-profiling on, and print the paper's
/// overhead-decomposition table (the Figure 4/5 shape): total slowdown
/// per tool, split into per-phase contributions in baseline-cycle units.
pub fn prof_report(name: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let program = fpx_suite::find(name).ok_or_else(|| format!("unknown program {name:?}"))?;
    let base = runner::try_run_baseline(
        &program,
        &runner_config(opts, Obs::disabled(), Prof::disabled()),
    )
    .map_err(|e| format!("{name} baseline: {e}"))?;
    writeln!(w, "{name}: baseline {base} cycles (uninstrumented)")?;
    writeln!(w)?;
    writeln!(
        w,
        "{:<9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "tool", "slowdown", "jit", "exec", "hook", "push", "drain", "shadow", "coach", "other"
    )?;
    let mut coverage = Vec::new();
    for kind in ToolKind::ALL {
        let label = kind.label();
        let prof = Prof::enabled();
        let rc = runner_config(opts, Obs::disabled(), prof.clone());
        let driver = prof.span(ProfPhase::Driver);
        let r = runner::try_run_with_tool(&program, &rc, &opts.runner_tool(kind), base)
            .map_err(|e| format!("{name} {label}: {e}"))?;
        drop(driver);
        coverage.push(prof_row(w, label, base, r.cycles, r.hung, &prof)?);
    }
    // The coach rides the same launch path but isn't a runner::Tool —
    // drive it through its own session for the last row.
    let prof = Prof::enabled();
    let driver = prof.span(ProfPhase::Driver);
    let sess =
        fpx_coach::CoachSession::open(name, coach_options(opts, Obs::disabled(), prof.clone()))
            .map_err(|e| format!("{name} coach: {e}"))?;
    let run = sess.run().map_err(|e| format!("{name} coach: {e}"))?;
    drop(driver);
    coverage.push(prof_row(w, "coach", base, run.cycles, run.hung, &prof)?);
    writeln!(w)?;
    writeln!(
        w,
        "(columns: per-phase modeled cycles / baseline cycles; rows sum to the slowdown)"
    )?;
    writeln!(w, "wall-time coverage of spans: {}", coverage.join(" · "))?;
    Ok(())
}

/// One `prof report` row: a run's slowdown over `base`, split into
/// per-phase contributions in baseline-cycle units. Returns the row's
/// entry in the wall-time coverage line.
fn prof_row(
    w: &mut dyn Write,
    label: &str,
    base: u64,
    cycles: u64,
    hung: bool,
    prof: &Prof,
) -> Result<String, CliError> {
    let snap = prof.snapshot().expect("profiling enabled");
    let b = base.max(1) as f64;
    let per = |p: ProfPhase| snap.get(p).cycles as f64 / b;
    // Phase contributions are exclusive, so launch-path columns sum to the
    // instrumented run's cycle total; "other" is whatever the tool spent
    // outside the launch path (GT allocation, report assembly) plus any
    // rounding remainder.
    let other = cycles.saturating_sub(snap.launch_cycles()) as f64 / b;
    writeln!(
        w,
        "{label:<9} {:>8.2}x {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}{}",
        cycles as f64 / b,
        per(ProfPhase::Jit),
        per(ProfPhase::Exec),
        per(ProfPhase::Hook),
        per(ProfPhase::ChannelPush),
        per(ProfPhase::Drain),
        per(ProfPhase::Shadow),
        per(ProfPhase::Coach),
        other,
        if hung { " [HUNG]" } else { "" }
    )?;
    Ok(format!("{label} {:.1}%", snap.wall_coverage() * 100.0))
}

fn coach_options(opts: &RunOpts, obs: Obs, prof: Prof) -> fpx_coach::CoachOptions {
    fpx_coach::CoachOptions {
        arch: opts.arch,
        fast_math: opts.fast_math,
        threads: opts.resolved_threads(),
        with_shadow: opts.with_shadow,
        obs,
        prof,
        ..fpx_coach::CoachOptions::default()
    }
}

/// The `coach --json` object: run envelope, the timeline report, and the
/// ranked suggestions.
fn coach_json(target: &str, run: &fpx_coach::CoachRun) -> String {
    use fpx_trace::export::json_escape;
    let suggestions: Vec<String> = run
        .suggestions
        .iter()
        .map(|s| {
            format!(
                "{{\"kind\":\"{}\",\"title\":\"{}\",\"detail\":\"{}\",\"where\":\"{}\",\"repro\":\"{}\"}}",
                s.kind,
                json_escape(&s.title),
                json_escape(&s.detail),
                json_escape(&s.where_str),
                json_escape(&s.repro),
            )
        })
        .collect();
    format!(
        "{{\"target\":\"{}\",\"base_cycles\":{},\"cycles\":{},\"slowdown\":{:.4},\"hung\":{},\
         \"coach\":{},\"suggestions\":[{}]}}",
        json_escape(target),
        run.base_cycles,
        run.cycles,
        run.cycles as f64 / run.base_cycles.max(1) as f64,
        run.hung,
        run.report.to_json(),
        suggestions.join(","),
    )
}

/// `gpu-fpx coach <target>`: exception-flow timelines + fix coaching.
/// The target is a suite program name or an `.fpxtrace` file; timelines
/// are identical either way (the determinism contract).
pub fn coach(target: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let obs = obs_from(opts);
    let prof = prof_from(opts);
    let driver = prof.span(ProfPhase::Driver);
    let sess =
        fpx_coach::CoachSession::open(target, coach_options(opts, obs.clone(), prof.clone()))?;
    let run = sess.run()?;
    write_metrics(opts, obs.registry().map(|r| r.snapshot()).as_ref(), w)?;
    if opts.json {
        writeln!(w, "{}", coach_json(target, &run))?;
    } else {
        writeln!(
            w,
            "{}: baseline {} cycles, coached {} cycles (slowdown {:.2}x){}",
            sess.program_name(),
            run.base_cycles,
            run.cycles,
            run.cycles as f64 / run.base_cycles.max(1) as f64,
            if run.hung { " [HUNG]" } else { "" }
        )?;
        w.write_all(run.report.render_human().as_bytes())?;
        if let Some(sh) = &run.shadow {
            writeln!(
                w,
                "shadow cross-reference: {} findings / {} comparisons",
                sh.findings.len(),
                sh.comparisons
            )?;
        }
        if run.suggestions.is_empty() {
            writeln!(w, "\nfix coaching: nothing to suggest")?;
        } else {
            writeln!(w, "\nfix coaching ({}):", run.suggestions.len())?;
            for s in &run.suggestions {
                w.write_all(s.render().as_bytes())?;
            }
        }
    }
    if let Some(path) = &opts.timeline_dot {
        fpx_obs::artifact::write_atomic(path, run.report.timeline_dot())?;
        writeln!(w, "timeline DOT -> {path}")?;
    }
    drop(driver);
    write_profile(opts, &prof, w)?;
    Ok(())
}

/// `gpu-fpx coach rewind <target>`: the rewind REPL over a coach run.
/// `--script` runs a `;`/newline-separated command list non-interactively
/// (tests, CI); otherwise commands are read from stdin.
pub fn coach_rewind(target: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let sess = fpx_coach::CoachSession::open(
        target,
        coach_options(opts, Obs::disabled(), Prof::disabled()),
    )?;
    let run = sess.run()?;
    let mut rw = fpx_coach::Rewinder::new(run.report, opts.timeline, |t| sess.capture(t))?;
    writeln!(
        w,
        "rewind: {} timeline {} ({} events); {}",
        sess.program_name(),
        opts.timeline,
        rw.report().timelines[opts.timeline].events.len(),
        fpx_coach::REPL_HELP
    )?;
    if let Some(script) = &opts.script {
        w.write_all(rw.run_script(script).as_bytes())?;
        return Ok(());
    }
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        write!(w, "coach> ")?;
        w.flush()?;
        line.clear();
        if stdin.read_line(&mut line)? == 0 {
            break;
        }
        let (text, quit) = rw.exec(&line);
        w.write_all(text.as_bytes())?;
        if quit {
            break;
        }
    }
    Ok(())
}

/// `gpu-fpx serve start`: bind, print the `listening on <addr>` line
/// (parseable — port 0 binds a free port), and block in the accept loop
/// until `serve stop` / `POST /v1/shutdown`.
pub fn serve_start(opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let cfg = fpx_serve::ServeConfig {
        addr: opts
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        workers: opts.workers,
        queue_cap: opts.queue,
        threads_per_job: opts.threads,
        cache_dir: opts.cache_dir.clone(),
        sms: opts.sms,
        // Propagate --log-level / FPX_LOG into the worker pool: bind
        // re-applies it process-wide before any worker spawns.
        log_level: opts.log_level.or(Some(fpx_obs::log::level())),
    };
    let server = fpx_serve::Server::bind(cfg).map_err(|e| format!("serve start: {e}"))?;
    server.run(w)?;
    writeln!(w, "server stopped")?;
    Ok(())
}

/// `gpu-fpx serve submit <addr>`: submit `--programs` (× `--repeat`) as
/// one batch. Default output decodes each `ok` result and prints its
/// report verbatim, in submission order — byte-identical to running the
/// same `suite run` commands locally; `--ndjson` streams the raw result
/// lines instead. Any rejected/failed job makes the command exit 1.
pub fn serve_submit(addr: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let mut specs = Vec::new();
    for _ in 0..opts.repeat {
        for p in &opts.programs {
            specs.push(opts.job_spec(p));
        }
    }
    if opts.ndjson {
        let mut io_err = Ok(());
        fpx_serve::client::submit_stream(addr, &specs, |line| {
            if io_err.is_ok() {
                io_err = writeln!(w, "{line}");
            }
        })?;
        io_err?;
        return Ok(());
    }
    let mut lines = Vec::new();
    fpx_serve::client::submit_stream(addr, &specs, |line| lines.push(line.to_string()))?;
    let mut results = Vec::with_capacity(lines.len());
    for line in &lines {
        results.push(fpx_serve::proto::parse_result(line)?);
    }
    // Results stream back in completion order; print in submission order
    // so the output is deterministic regardless of worker scheduling.
    results.sort_by_key(|r| r.id);
    let mut failures = 0usize;
    for r in &results {
        if r.status == "ok" {
            w.write_all(split_chains_dot(opts, r.output.as_deref().unwrap_or(""))?.as_bytes())?;
        } else {
            failures += 1;
            writeln!(
                w,
                "job {} ({}): {}: {}",
                r.id,
                if r.program.is_empty() {
                    "?"
                } else {
                    &r.program
                },
                r.status,
                r.error.as_deref().unwrap_or("unknown failure"),
            )?;
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} job(s) failed", results.len()).into());
    }
    Ok(())
}

/// `gpu-fpx serve metrics <addr>`: print the server's live metrics JSON.
pub fn serve_metrics(addr: &str, _opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let body = fpx_serve::client::metrics(addr)?;
    w.write_all(body.as_bytes())?;
    Ok(())
}

/// `gpu-fpx serve stop <addr>`: ask the server to drain and exit.
pub fn serve_stop(addr: &str, _opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    fpx_serve::client::shutdown(addr)?;
    writeln!(w, "server at {addr} shutting down")?;
    Ok(())
}

/// Quantile over a parsed scope-histogram `{"buckets":{"<le>":count}}`
/// object: the `le` bound of the bucket holding the `q`-rank
/// observation, 0 when empty — same semantics as the server-side
/// `HistSnapshot::quantile`.
fn bucket_quantile(hist: Option<&fpx_inject::json::Value>, q: f64) -> u64 {
    let Some(fpx_inject::json::Value::Obj(buckets)) = hist.and_then(|h| h.get("buckets")) else {
        return 0;
    };
    let mut rows: Vec<(u64, u64)> = buckets
        .iter()
        .filter_map(|(le, c)| Some((le.parse::<u64>().ok()?, c.as_u64()?)))
        .collect();
    rows.sort_unstable();
    let total: u64 = rows.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (le, c) in rows {
        seen += c;
        if seen >= rank {
            return le;
        }
    }
    0
}

/// Format nanoseconds for the dashboard: ns / µs / ms / s, whichever
/// keeps the number small.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{}µs", ns / 1_000),
        10_000_000..=9_999_999_999 => format!("{}ms", ns / 1_000_000),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

/// One rendered frame of the `top` dashboard, from the parsed metrics
/// document and the current event tail.
fn top_frame(addr: &str, m: &fpx_inject::json::Value, tail: &[String]) -> String {
    use std::fmt::Write as _;
    let get = |k: &str| m.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let workers = get("workers");
    let depth = get("queue_depth");
    let cap = get("queue_cap");
    let accepted = get("jobs_accepted");
    let completed = get("jobs_completed");
    let rejected = get("rejected");
    let hits = get("cache_hits");
    let misses = get("cache_misses");
    let hit_rate = if hits + misses > 0 {
        100.0 * hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    // Jobs accepted but neither queued nor completed are on a worker.
    let in_flight = accepted.saturating_sub(completed).saturating_sub(depth);
    let util = if workers > 0 {
        100.0 * in_flight.min(workers) as f64 / workers as f64
    } else {
        0.0
    };
    let latency = m
        .get("scope")
        .and_then(|s| s.get("volatile"))
        .and_then(|v| v.get("hists"))
        .and_then(|h| h.get("job_latency_ns"));
    let mut s = String::with_capacity(2048);
    let _ = writeln!(s, "gpu-fpx top — {addr}");
    let _ = writeln!(
        s,
        "workers {workers}  util {util:>5.1}%  queue {depth}/{cap}  in-flight {in_flight}"
    );
    let _ = writeln!(
        s,
        "jobs: accepted {accepted}  completed {completed}  rejected {rejected}  \
         cache {hit_rate:.1}% hit ({hits}/{})  entries {}",
        hits + misses,
        get("cache_entries")
    );
    let _ = writeln!(
        s,
        "latency: p50 {}  p95 {}  p99 {}",
        fmt_ns(bucket_quantile(latency, 0.50)),
        fmt_ns(bucket_quantile(latency, 0.95)),
        fmt_ns(bucket_quantile(latency, 0.99)),
    );
    // Exception-class totals, aggregated across kernels and tools.
    let mut classes: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    if let Some(rows) = m
        .get("scope")
        .and_then(|s| s.get("exceptions"))
        .and_then(|e| e.as_arr())
    {
        for row in rows {
            let class = row
                .get("class")
                .and_then(|c| c.as_str())
                .unwrap_or("?")
                .to_string();
            let n = row.get("count").and_then(|c| c.as_u64()).unwrap_or(0);
            *classes.entry(class).or_insert(0) += n;
        }
    }
    let _ = write!(s, "exceptions:");
    if classes.is_empty() {
        let _ = write!(s, " (none)");
    }
    for (class, n) in &classes {
        let _ = write!(s, "  {class} {n}");
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "--- events ---");
    if tail.is_empty() {
        let _ = writeln!(s, "(no events yet)");
    }
    for line in tail {
        let _ = writeln!(s, "{line}");
    }
    s
}

/// Render one NDJSON event line for the dashboard tail; returns the
/// event's `seq` alongside, so the caller can advance its cursor.
fn top_event_line(line: &str) -> Option<(u64, String)> {
    let v = fpx_inject::json::parse(line).ok()?;
    let seq = v.get("seq")?.as_u64()?;
    let level = v.get("level").and_then(|l| l.as_str()).unwrap_or("?");
    let msg = v.get("msg").and_then(|m| m.as_str()).unwrap_or("");
    let mut ctx = String::new();
    if let Some(job) = v.get("job").and_then(|j| j.as_u64()) {
        ctx.push_str(&format!(" job {job}"));
    }
    if let Some(kernel) = v.get("kernel").and_then(|k| k.as_str()) {
        ctx.push_str(&format!(" {kernel}"));
    }
    if let Some(phase) = v.get("phase").and_then(|p| p.as_str()) {
        ctx.push_str(&format!(" [{phase}]"));
    }
    Some((seq, format!("{level:>5}{ctx}: {msg}")))
}

/// How many event lines the dashboard tail keeps.
const TOP_TAIL: usize = 10;

/// `gpu-fpx top <addr>`: a polling terminal dashboard over the serve
/// telemetry — queue depth, worker utilization, cache hit rate, latency
/// quantiles from the histogram buckets, per-class exception totals, and
/// a scrolling event tail. Plain ANSI full-screen redraw each
/// `--interval`; `--once` renders a single frame (with `--json`, prints
/// the combined metrics + event documents for scripting) and exits.
pub fn top(addr: &str, opts: &RunOpts, w: &mut dyn Write) -> Result<(), CliError> {
    let mut cursor = 0u64;
    let mut tail: Vec<String> = Vec::new();
    loop {
        let body = fpx_serve::client::metrics(addr)?;
        let ndjson = fpx_serve::client::events_wait(addr, cursor, 0)?;
        let mut event_lines: Vec<&str> = Vec::new();
        for line in ndjson.lines().filter(|l| !l.trim().is_empty()) {
            event_lines.push(line);
            if let Some((seq, rendered)) = top_event_line(line) {
                cursor = cursor.max(seq + 1);
                tail.push(rendered);
            }
        }
        let keep = tail.len().saturating_sub(TOP_TAIL);
        tail.drain(..keep);
        if opts.once && opts.json {
            writeln!(
                w,
                "{{\"metrics\":{},\"events\":[{}]}}",
                body.trim_end(),
                event_lines.join(",")
            )?;
            return Ok(());
        }
        let metrics = fpx_inject::json::parse(body.trim_end())
            .map_err(|e| format!("{addr}/v1/metrics: bad JSON: {e:?}"))?;
        let frame = top_frame(addr, &metrics, &tail);
        if opts.once {
            w.write_all(frame.as_bytes())?;
            return Ok(());
        }
        // Clear screen + home, then the frame — plain ANSI, no deps.
        write!(w, "\x1b[2J\x1b[H{frame}")?;
        w.flush()?;
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RunOpts;

    fn tmp_kernel(name: &str, body: &str) -> String {
        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.sass"));
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    const DIV0: &str = r#"
.kernel cli_div0
    MOV32I R0, 0x0 ;
    MUFU.RCP R1, R0 ;
    FADD R2, R1, 1.0 ;
    EXIT ;
"#;

    #[test]
    fn detect_prints_report() {
        let path = tmp_kernel("detect", DIV0);
        let mut out = Vec::new();
        detect(&path, &RunOpts::default(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Division by 0"), "{s}");
        assert!(s.contains("FP32 NAN 0 INF 1 SUB 0 DIV0 1"), "{s}");
    }

    #[test]
    fn shadow_prints_findings() {
        let path = tmp_kernel("shadow", DIV0);
        let mut out = Vec::new();
        shadow(&path, &RunOpts::default(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(
            s.ends_with("\nshadow (full, budget 16 ulps): 0 findings / 64 comparisons {}\n"),
            "{s}"
        );

        // 1 + 2^-30 rounds to 1.0 in FP32 but not in the FP64 shadow, so
        // subtracting 1.0 cancels to 0 against a shadow of 2^-30.
        let src = r#"
.kernel cli_cancel
    MOV32I R0, 0x3f800000 ;
    MOV32I R1, 0x30800000 ;
    FADD R2, R0, R1 ;
    FADD R3, R2, -1.0 ;
    EXIT ;
"#;
        let path = tmp_kernel("shadow_cancel", src);
        let mut out = Vec::new();
        shadow(&path, &RunOpts::default(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(
            s.contains(
                "APPEARANCE (cancellation): precision divergence @ /unknown_path in [cli_cancel]:0"
            ),
            "{s}"
        );
        assert!(s.contains("\nprecision-loss chains:\n"), "{s}");
        assert!(
            s.ends_with(
                "\nshadow (full, budget 16 ulps): 1 findings / 64 comparisons {\"cancellation\": 1}\n"
            ),
            "{s}"
        );
    }

    #[test]
    fn analyze_prints_chains() {
        let path = tmp_kernel("analyze", DIV0);
        let mut out = Vec::new();
        analyze(&path, &RunOpts::default(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("#GPU-FPX-ANA"), "{s}");
        assert!(s.contains("exception-flow chains:"), "{s}");
    }

    #[test]
    fn binfpe_reports_host_checks() {
        let path = tmp_kernel("binfpe", DIV0);
        let mut out = Vec::new();
        binfpe(&path, &RunOpts::default(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("values checked on the host"), "{s}");
    }

    #[test]
    fn params_are_staged_in_order() {
        // A kernel reading an f32 buffer parameter and an immediate.
        let src = r#"
.kernel cli_params
    S2R R0, SR_TID.X ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    LDG.E R4, [R3] ;
    LDC R5, c[0x0][0x164] ;
    FMUL R6, R4, R5 ;
    EXIT ;
"#;
        let path = tmp_kernel("params", src);
        let opts = RunOpts {
            params: vec![
                crate::args::parse_param("buf:f32:1e38,2,3").unwrap(),
                crate::args::parse_param("f32:1e38").unwrap(),
            ],
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        detect(&path, &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        // 1e38 × 1e38 overflows on lane 0 → one INF site.
        assert!(s.contains("INF 1"), "{s}");
    }

    #[test]
    fn suite_list_names_all_programs() {
        let mut out = Vec::new();
        suite_list(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("myocyte *"));
        assert!(s.contains("vectorAdd"));
        assert!(s.contains("[polybenchGpu]"));
    }

    #[test]
    fn suite_run_detector_matches_table4() {
        let mut out = Vec::new();
        suite_run("LU", &RunOpts::default(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("row: [0, 0, 0, 0, 3, 0, 0, 1]"), "{s}");
    }

    #[test]
    fn unknown_suite_program_errors() {
        let mut out = Vec::new();
        assert!(suite_run("not-a-program", &RunOpts::default(), &mut out).is_err());
    }

    #[test]
    fn missing_sass_file_errors_instead_of_panicking() {
        let mut out = Vec::new();
        let err = detect("/nonexistent/kernel.sass", &RunOpts::default(), &mut out)
            .unwrap_err()
            .to_string();
        assert!(!err.is_empty());
    }

    #[test]
    fn suite_run_json_is_machine_readable() {
        let mut out = Vec::new();
        let opts = RunOpts {
            json: true,
            ..RunOpts::default()
        };
        suite_run("LU", &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"program\":\"LU\""), "{s}");
        assert!(s.contains("\"tool\":\"detector\""), "{s}");
        assert!(
            s.contains("\"fp32\":{\"nan\":3,\"inf\":0,\"subnormal\":0,\"div0\":1}"),
            "{s}"
        );
        assert!(s.contains("\"slowdown\":"), "{s}");
        assert!(s.contains("\"hung\":false"), "{s}");
        // Balanced braces — cheap structural sanity without a JSON parser.
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close, "{s}");
    }

    #[test]
    fn trace_record_replay_export_round_trip() {
        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("gramschm.fpxtrace");
        let jpath = dir.join("gramschm.json");
        let opts = RunOpts {
            out: Some(tpath.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };

        let mut out = Vec::new();
        trace_record("GRAMSCHM", &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        let recorded = fpx_trace::Trace::from_bytes(&std::fs::read(&tpath).unwrap()).unwrap();
        let events = s
            .lines()
            .find_map(|l| l.trim_start().strip_prefix("events recorded"))
            .map(str::trim);
        assert_eq!(
            events,
            Some(recorded.total_visits().to_string().as_str()),
            "{s}"
        );
        // The recorder pushes nothing through the channel.
        assert!(!s.contains("channel pushes"), "{s}");

        let mut out = Vec::new();
        trace_replay(&opts.out.clone().unwrap(), &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("row: [0, 0, 0, 0, 7, 1, 0, 1]"), "{s}");
        assert!(s.contains("GT hits / misses"), "{s}");
        assert!(s.contains("replay throughput"), "{s}");
        let size = std::fs::metadata(&tpath).unwrap().len();
        let bytes = s
            .lines()
            .find_map(|l| l.trim_start().strip_prefix("bytes "))
            .map(str::trim);
        assert_eq!(bytes, Some(size.to_string().as_str()), "{s}");

        let eopts = RunOpts {
            out: Some(jpath.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        trace_export(&opts.out.clone().unwrap(), &eopts, &mut out).unwrap();
        let json = std::fs::read_to_string(&jpath).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn metrics_command_prints_table_and_writes_json() {
        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("gramschm-metrics.json");
        let opts = RunOpts {
            metrics: Some(jpath.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        metrics("GRAMSCHM", &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("slowdown"), "{s}");
        assert!(s.contains("== metrics =="), "{s}");
        assert!(s.contains("hit rate"), "{s}");
        assert!(s.contains("stall regimes"), "{s}");
        let json = std::fs::read_to_string(&jpath).unwrap();
        // Acceptance: GT hit rate, stall-regime histogram, per-SM imbalance.
        assert!(json.contains("\"gt\":{"), "{json}");
        assert!(json.contains("\"hit_rate\":"), "{json}");
        assert!(json.contains("\"stall_regimes\":"), "{json}");
        assert!(json.contains("\"sm_imbalance\":"), "{json}");
        assert!(json.contains("\"sm_cycles\":"), "{json}");
    }

    #[test]
    fn suite_run_metrics_flag_writes_snapshot_json() {
        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("lu-metrics.json");
        let opts = RunOpts {
            metrics: Some(jpath.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        suite_run("LU", &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("metrics JSON ->"), "{s}");
        let json = std::fs::read_to_string(&jpath).unwrap();
        assert!(json.contains("\"counters\":{"), "{json}");
        assert!(json.contains("\"gt\":{"), "{json}");
        assert!(json.contains("\"launches\":["), "{json}");
    }

    #[test]
    fn seed_changes_randn_staging_but_defaults_stay_fixed() {
        // A kernel squaring one randn input lane: different seeds stage
        // different values, so reports can differ; the default seed is
        // fixed, so two default runs are identical.
        let src = r#"
.kernel cli_seeded
    LDC R2, c[0x0][0x160] ;
    LDG.E R4, [R2] ;
    FMUL R6, R4, R4 ;
    EXIT ;
"#;
        let path = tmp_kernel("seeded", src);
        let run = |seed: Option<u64>| {
            let opts = RunOpts {
                params: vec![crate::args::parse_param("buf:randn:4").unwrap()],
                seed,
                ..RunOpts::default()
            };
            let mut out = Vec::new();
            detect(&path, &opts, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        assert_eq!(run(None), run(None), "default staging is reproducible");
        assert_eq!(run(None), run(Some(0xC11)), "default seed is 0xC11");
        assert_eq!(run(Some(5)), run(Some(5)), "explicit seed is reproducible");
    }

    #[test]
    fn inject_campaign_writes_json_and_replay_matches() {
        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("campaign.json");
        let opts = RunOpts {
            preset: Some("smoke".to_string()),
            seed: Some(9),
            trials: 6,
            threads: 1,
            out: Some(jpath.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        inject_campaign(&opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("fault-injection campaign: seed 9"), "{s}");
        assert!(s.contains("detector"), "{s}");
        let json = std::fs::read_to_string(&jpath).unwrap();
        assert!(
            json.contains("\"schema\": \"fpx-inject-campaign-v1\""),
            "{json}"
        );

        // `inject report` parses what `inject campaign` wrote.
        let mut out = Vec::new();
        inject_report(&jpath.to_string_lossy(), &RunOpts::default(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("seed 9 · 6 trials"), "{s}");

        // A replay of trial 0 re-derives the same plan and outcomes.
        let ropts = RunOpts {
            trial: Some(0),
            ..opts.clone()
        };
        let mut out = Vec::new();
        inject_replay(&ropts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("trial 0:"), "{s}");
        assert!(s.contains("fired"), "{s}");
    }

    #[test]
    fn inject_rejects_bad_pools_and_files() {
        let mut out = Vec::new();
        let opts = RunOpts {
            preset: Some("bogus".to_string()),
            ..RunOpts::default()
        };
        let err = inject_campaign(&opts, &mut out).unwrap_err().to_string();
        assert!(err.contains("unknown preset"), "{err}");

        let opts = RunOpts {
            programs: vec!["not-a-program".to_string()],
            ..RunOpts::default()
        };
        let err = inject_campaign(&opts, &mut out).unwrap_err().to_string();
        assert!(err.contains("unknown program"), "{err}");

        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("not-campaign.json");
        std::fs::write(&bad, "{\"schema\": \"other\"}").unwrap();
        let err = inject_report(&bad.to_string_lossy(), &RunOpts::default(), &mut out)
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a campaign report"), "{err}");
    }

    #[test]
    fn coach_reports_timelines_and_suggestions() {
        let mut out = Vec::new();
        coach("GRAMSCHM", &RunOpts::default(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("coached"), "{s}");
        assert!(s.contains("gramschmidt_kernel2"), "{s}");
        assert!(s.contains(":113"), "{s}");
        assert!(s.contains("fix coaching"), "{s}");
        assert!(s.contains("[div-guard]"), "{s}");
        assert!(s.contains("coach rewind"), "{s}");
    }

    #[test]
    fn coach_json_is_machine_readable_and_writes_timeline_dot() {
        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let dot = dir.join("timelines.dot");
        let opts = RunOpts {
            json: true,
            timeline_dot: Some(dot.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        coach("GRAMSCHM", &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"target\":\"GRAMSCHM\""), "{s}");
        assert!(s.contains("\"coach\":{"), "{s}");
        assert!(s.contains("\"suggestions\":["), "{s}");
        assert!(s.contains("\"timelines\":"), "{s}");
        let body = s.lines().next().unwrap();
        assert_eq!(
            body.matches('{').count(),
            body.matches('}').count(),
            "{body}"
        );
        let written = std::fs::read_to_string(&dot).unwrap();
        assert!(written.starts_with("digraph"), "{written}");
        assert!(written.contains("BIRTH"), "{written}");
    }

    #[test]
    fn coach_rewind_script_dumps_state() {
        let opts = RunOpts {
            script: Some("state;chain;quit".to_string()),
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        coach_rewind("GRAMSCHM", &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("rewind: GRAMSCHM timeline 0"), "{s}");
        assert!(s.contains("state @ gramschmidt_kernel2"), "{s}");
        assert!(s.contains("live lineage"), "{s}");
        assert!(s.contains("BIRTH"), "{s}");
    }

    #[test]
    fn chains_dot_is_byte_identical_live_replayed_and_served() {
        // Satellite regression for the `--chains-dot` plumbing: the DOT a
        // live `suite run` writes must match the one `trace replay`
        // writes from a recorded trace, and the one a served job embeds
        // in its result bytes — byte for byte.
        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("chains.fpxtrace");
        let mut out = Vec::new();
        let ropts = RunOpts {
            out: Some(tpath.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        trace_record("GRAMSCHM", &ropts, &mut out).unwrap();

        let live_dot = dir.join("chains-live.dot");
        let opts = RunOpts {
            tool: ToolKind::Analyzer,
            chains_dot: Some(live_dot.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        suite_run("GRAMSCHM", &opts, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("flow-chain DOT ->"), "{s}");

        let replay_dot = dir.join("chains-replay.dot");
        let opts = RunOpts {
            tool: ToolKind::Analyzer,
            chains_dot: Some(replay_dot.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        let mut out = Vec::new();
        trace_replay(&tpath.to_string_lossy(), &opts, &mut out).unwrap();

        let live = std::fs::read(&live_dot).unwrap();
        let replay = std::fs::read(&replay_dot).unwrap();
        assert!(live.starts_with(b"digraph"), "live DOT is a DOT file");
        assert_eq!(live, replay, "replayed DOT must match the live run");

        let spec = fpx_serve::JobSpec {
            program: "GRAMSCHM".into(),
            tool: fpx_serve::JobTool::Analyzer,
            chains_dot: true,
            ..fpx_serve::JobSpec::default()
        };
        let rendered =
            fpx_serve::job::run_rendered(&spec, &fpx_suite::runner::RunnerConfig::default())
                .unwrap();
        let (_, dot) = fpx_serve::job::extract_chains_dot(&rendered.text);
        assert_eq!(
            dot.as_deref().map(str::as_bytes),
            Some(&live[..]),
            "served DOT must match the live run"
        );
    }

    #[test]
    fn trace_replay_rejects_garbage_files() {
        let dir = std::env::temp_dir().join("gpu-fpx-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.fpxtrace");
        std::fs::write(&bad, b"not a trace").unwrap();
        let mut out = Vec::new();
        let err = trace_replay(&bad.to_string_lossy(), &RunOpts::default(), &mut out)
            .unwrap_err()
            .to_string();
        assert!(err.contains("magic"), "{err}");

        let mut out = Vec::new();
        assert!(trace_replay("/nonexistent.fpxtrace", &RunOpts::default(), &mut out).is_err());
    }
}
