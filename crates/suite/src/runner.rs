//! Execution harness: run any program uninstrumented or under a tool and
//! compute the paper's metrics.
//!
//! The slowdown metric follows §4.2 exactly: the ratio of the program's
//! running time (simulated cycles) with the tool to its original running
//! time. A run whose slowdown exceeds [`RunnerConfig::hang_slowdown_limit`]
//! is reported as a *hang* — the fate the paper observed for BinFPE (and
//! GPU-FPX before GT deduplication) on exception-flooded programs.
//!
//! **One simulation per single-tool run.** On real hardware the original
//! running time takes a second, uninstrumented run. Here a tool never
//! changes what the program executes, so the instrumented run charges
//! every issue cycle the plain run would ([`ExecStats::issue_cycles`]), and
//! [`try_run`] takes the baseline from that sum instead of simulating the
//! program twice. It checks the hang budget after every launch, against
//! [`hang_budget`] of the plain cycles so far. That running budget never
//! exceeds the budget of the whole baseline, so a pass that stays inside
//! it is exactly the run [`try_run_with_tool`] makes. A pass that crosses
//! it, or trips the simulator's own watchdog, is discarded and the run
//! repeated as the two-pass sequence — [`try_run_baseline`], then
//! [`try_run_with_tool`] — so a cut-off run reports what that sequence
//! reports. The discarded pass still counts in the config's `obs` and
//! `prof` handles. Callers that run several tools over one program keep
//! the two-pass sequence with one explicit baseline.
//!
//! [`ExecStats::issue_cycles`]: fpx_sim::exec::ExecStats::issue_cycles

use crate::{Plan, Program};
use fpx_binfpe::BinFpe;
use fpx_compiler::CompileOpts;
use fpx_nvbit::tool::NvbitTool;
use fpx_nvbit::Nvbit;
use fpx_obs::{fpx_debug, fpx_warn, Obs, Snapshot};
use fpx_prof::{Phase as ProfPhase, Prof};
use fpx_shadow::{Shadow, ShadowConfig, ShadowReport};
use fpx_sim::exec::SimError;
use fpx_sim::gpu::{Arch, Gpu};
use fpx_sim::hooks::InstrumentedCode;
use gpu_fpx::analyzer::{Analyzer, AnalyzerConfig, AnalyzerReport};
use gpu_fpx::detector::{Detector, DetectorConfig};
use gpu_fpx::report::DetectorReport;
use std::sync::Arc;

pub use fpx_sim::timing::hang_budget;

/// The tools a run can load: GPU-FPX's detector and analyzer, the BinFPE
/// baseline the paper compares them against, and the `fpx-shadow`
/// precision sanitizer. [`Tool`] is one of them with its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ToolKind {
    #[default]
    Detector,
    Analyzer,
    BinFpe,
    Shadow,
}

impl ToolKind {
    /// Every tool, in the order reports list them.
    pub const ALL: [ToolKind; 4] = [
        ToolKind::Detector,
        ToolKind::Analyzer,
        ToolKind::BinFpe,
        ToolKind::Shadow,
    ];

    /// Stable lowercase label, used in flags, fingerprints, JSON output,
    /// and the wire protocol.
    pub fn label(&self) -> &'static str {
        match self {
            ToolKind::Detector => "detector",
            ToolKind::Analyzer => "analyzer",
            ToolKind::BinFpe => "binfpe",
            ToolKind::Shadow => "shadow",
        }
    }

    /// Inverse of [`ToolKind::label`].
    pub fn parse(s: &str) -> Option<ToolKind> {
        ToolKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Which tool to load into the NVBit context, configured.
#[derive(Debug, Clone)]
pub enum Tool {
    /// GPU-FPX detector with the given configuration.
    Detector(DetectorConfig),
    /// GPU-FPX analyzer.
    Analyzer(AnalyzerConfig),
    /// The BinFPE baseline.
    BinFpe,
    /// The `fpx-shadow` precision sanitizer.
    Shadow(ShadowConfig),
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    pub arch: Arch,
    pub opts: CompileOpts,
    /// Slowdown beyond which a run counts as hung.
    pub hang_slowdown_limit: f64,
    /// SM worker threads per launch (see [`Gpu::threads`]); exception
    /// counts, GT contents, and total cycles are schedule-independent, so
    /// results match a serial run.
    pub threads: usize,
    /// Metrics handle threaded into every NVBit context this config
    /// creates. Disabled (inert) by default; when enabled, counters
    /// accumulate across runs sharing the handle and each [`RunResult`]
    /// carries a snapshot.
    pub obs: Obs,
    /// Self-profiler handle threaded into every run this config creates:
    /// tool (GT probes), GPU (blocks, hooks), channel (pushes), and the
    /// launch driver (`prepare`/`jit`/`exec`/`drain` spans). Disabled by
    /// default.
    pub prof: Prof,
    /// Warp-coalescing cap for channel transfers (see
    /// [`fpx_sim::gpu::Gpu::coalesce`]). `<= 1` disables staging — every
    /// record is its own transfer — which the coalesced-vs-per-record
    /// equivalence proptests toggle. Affects only modeled transfer cost,
    /// never report content.
    pub coalesce: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            arch: Arch::Ampere,
            opts: CompileOpts::default(),
            hang_slowdown_limit: 5_000.0,
            threads: 1,
            obs: Obs::disabled(),
            prof: Prof::disabled(),
            coalesce: fpx_sim::hooks::DEFAULT_COALESCE,
        }
    }
}

impl RunnerConfig {
    pub fn with_fast_math(mut self, fast: bool) -> Self {
        self.opts.fast_math = fast;
        self
    }
}

/// Result of one program run under one tool.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub program: String,
    pub cycles: u64,
    /// Channel records produced.
    pub records: u64,
    /// Launches that ran instrumented.
    pub instrumented_launches: u64,
    pub detector_report: Option<DetectorReport>,
    pub analyzer_report: Option<AnalyzerReport>,
    pub shadow_report: Option<ShadowReport>,
    /// The run exceeded the hang budget and was cut off.
    pub hung: bool,
    /// Metrics snapshot taken after the run, when [`RunnerConfig::obs`] is
    /// enabled. Counters are cumulative over every run sharing the
    /// handle; [`Snapshot::gt`] reflects this run's tool only.
    pub metrics: Option<Snapshot>,
}

/// Baseline + tool comparison for one program.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub program: String,
    pub base_cycles: u64,
    pub tool_cycles: u64,
    pub hung: bool,
}

impl Comparison {
    /// The §4.2 slowdown metric.
    pub fn slowdown(&self) -> f64 {
        self.tool_cycles as f64 / self.base_cycles.max(1) as f64
    }
}

/// A failed [`try_run`], named by the step of the two-pass sequence that
/// reports it.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The program itself fails to simulate. A tool never changes what
    /// the program executes, so a fault in the single instrumented pass is
    /// the fault the uninstrumented run would have hit first.
    Baseline(SimError),
    /// The instrumented run failed after a clean baseline.
    Tool(SimError),
}

impl RunError {
    /// The message the two-pass sequence reports for `program`:
    /// `"{program} baseline: {e}"` or `"{program}: {e}"`.
    pub fn message(&self, program: &str) -> String {
        match self {
            RunError::Baseline(e) => format!("{program} baseline: {e}"),
            RunError::Tool(e) => format!("{program}: {e}"),
        }
    }
}

/// Run the original (uninstrumented) program; returns total cycles.
/// Simulation failures (bad kernels, OOM) are propagated, not panicked —
/// the CLI turns them into exit-code-1 messages. [`try_run`] derives the
/// same number from its instrumented pass and calls this only for a run
/// over its hang budget; callers that run several tools over one program
/// call it once and pass the result to each [`try_run_with_tool`].
pub fn try_run_baseline(program: &Program, cfg: &RunnerConfig) -> Result<u64, SimError> {
    // The whole uninstrumented run counts as preparation: it only exists
    // to anchor slowdowns and hang budgets for the instrumented run.
    let mut sp = cfg.prof.span(ProfPhase::Prepare);
    let mut gpu = Gpu::new(cfg.arch);
    gpu.threads = cfg.threads.max(1);
    let plan = program.prepare(&cfg.opts, &mut gpu.mem);
    for l in &plan.launches {
        let code = InstrumentedCode::plain(Arc::clone(&l.kernel));
        gpu.launch(&code, &l.cfg)?;
    }
    sp.add_cycles(gpu.clock.cycles());
    Ok(gpu.clock.cycles())
}

/// Panicking wrapper around [`try_run_baseline`] for test/bench callers
/// where a simulation failure is a programming error.
pub fn run_baseline(program: &Program, cfg: &RunnerConfig) -> u64 {
    try_run_baseline(program, cfg).unwrap_or_else(|e| panic!("{} baseline: {e}", program.name))
}

/// One completed pass of a program's launch plan under a tool.
pub struct Pass<T: NvbitTool> {
    /// The context after `terminate`: the tool holds its report.
    pub nv: Nvbit<T>,
    /// Channel records produced.
    pub records: u64,
    /// Launches that ran instrumented.
    pub instrumented: u64,
    /// The pass was cut off at its fixed budget.
    pub hung: bool,
    /// Summed issue cycles: the uninstrumented run's cycles.
    pub plain: u64,
}

/// Prepare `program`'s plan, load `tool` into a fresh NVBit context, and
/// launch the plan — the one plan driver behind the suite runner, fault
/// injection and the coach. With `Some(watchdog)` the run is cut off (and
/// reported hung) past that total budget, and the result is always
/// `Some`. With `None` the budget is the running `hang_budget` of the
/// plain cycles so far, and a pass over it — or over the simulator's own
/// watchdog — is abandoned: `Ok(None)`.
pub fn run_plan_with_tool<T: NvbitTool>(
    program: &Program,
    cfg: &RunnerConfig,
    tool: T,
    watchdog: Option<u64>,
) -> Result<Option<Pass<T>>, SimError> {
    let mut gpu = Gpu::new(cfg.arch);
    if let Some(w) = watchdog {
        gpu.watchdog_cycles = w;
    }
    gpu.threads = cfg.threads.max(1);
    gpu.coalesce = cfg.coalesce;
    let mut tool = tool;
    // The tool needs the profiler before Nvbit::new runs on_init (the
    // detector installs it into the GT it allocates there).
    tool.set_prof(cfg.prof.clone());
    let mut nv = Nvbit::new(gpu, tool);
    nv.set_obs(cfg.obs.clone());
    nv.set_prof(cfg.prof.clone());
    let plan: Plan = {
        let _sp = cfg.prof.span(ProfPhase::Prepare);
        program.prepare(&cfg.opts, &mut nv.gpu.mem)
    };
    let mut records = 0;
    let mut instrumented = 0;
    let mut plain = 0;
    let mut hung = false;
    for l in &plan.launches {
        // The watchdog is a *total* budget: a single launch exceeding the
        // remaining budget means the program run would never finish.
        let over = match nv.launch(&l.kernel, &l.cfg) {
            Ok(rep) => {
                records += rep.records;
                instrumented += rep.instrumented as u64;
                plain += rep.stats.exec.issue_cycles;
                let budget =
                    watchdog.unwrap_or_else(|| hang_budget(plain, cfg.hang_slowdown_limit));
                nv.gpu.clock.cycles() > budget
            }
            Err(SimError::Watchdog { .. }) => true,
            Err(e) => return Err(e),
        };
        if over {
            let Some(budget) = watchdog else {
                fpx_debug!(
                    "{}: over the running hang budget; re-running against a measured baseline",
                    program.name
                );
                return Ok(None);
            };
            fpx_warn!(
                "{}: run hung (exceeded {budget} cycle budget); cutting off",
                program.name
            );
            hung = true;
            break;
        }
    }
    nv.terminate();
    Ok(Some(Pass {
        nv,
        records,
        instrumented,
        hung,
        plain,
    }))
}

impl<T: NvbitTool> Pass<T> {
    /// The pass's baseline and result; `fold` adds the tool's report and
    /// metrics snapshot.
    fn finish(self, program: &Program, fold: impl FnOnce(&mut RunResult, &T)) -> (u64, RunResult) {
        let mut r = RunResult {
            program: program.name.clone(),
            cycles: self.nv.gpu.clock.cycles(),
            records: self.records,
            instrumented_launches: self.instrumented,
            detector_report: None,
            analyzer_report: None,
            shadow_report: None,
            hung: self.hung,
            metrics: None,
        };
        fold(&mut r, &self.nv.tool);
        (self.plain, r)
    }
}

/// Run `program` under `tool` once, with the budget rule of
/// [`run_plan_with_tool`]; returns the baseline and the result, or `None`
/// for an abandoned pass.
fn run_tool(
    program: &Program,
    cfg: &RunnerConfig,
    tool: &Tool,
    watchdog: Option<u64>,
) -> Result<Option<(u64, RunResult)>, SimError> {
    Ok(match tool {
        Tool::Detector(dc) => {
            run_plan_with_tool(program, cfg, Detector::new(dc.clone()), watchdog)?.map(|p| {
                p.finish(program, |r, d| {
                    r.detector_report = Some(d.report().clone());
                    r.metrics = take_snapshot(cfg, Some(d));
                })
            })
        }
        Tool::Analyzer(ac) => {
            run_plan_with_tool(program, cfg, Analyzer::new(ac.clone()), watchdog)?.map(|p| {
                p.finish(program, |r, a| {
                    r.analyzer_report = Some(a.report().clone());
                    r.metrics = take_snapshot(cfg, None);
                })
            })
        }
        Tool::BinFpe => run_plan_with_tool(program, cfg, BinFpe::new(), watchdog)?.map(|p| {
            p.finish(program, |r, b| {
                r.detector_report = Some(b.report().clone());
                r.metrics = take_snapshot(cfg, None);
            })
        }),
        Tool::Shadow(sc) => {
            run_plan_with_tool(program, cfg, Shadow::new(*sc), watchdog)?.map(|p| {
                p.finish(program, |r, s| {
                    // Fold the sanitizer's counters into the registry before
                    // the snapshot so shadow activity is visible in metrics.
                    s.snapshot_into(&cfg.obs);
                    r.shadow_report = Some(s.report().clone());
                    r.metrics = take_snapshot(cfg, None);
                })
            })
        }
    })
}

/// Run a program under a tool, propagating simulation failures. `base_cycles`
/// (from [`try_run_baseline`]) anchors the hang budget.
pub fn try_run_with_tool(
    program: &Program,
    cfg: &RunnerConfig,
    tool: &Tool,
    base_cycles: u64,
) -> Result<RunResult, SimError> {
    let watchdog = hang_budget(base_cycles, cfg.hang_slowdown_limit);
    let (_, result) = run_tool(program, cfg, tool, Some(watchdog))?
        .expect("a run with a fixed budget is never abandoned");
    observe_reports(&cfg.obs, &result);
    Ok(result)
}

/// Run a program under one tool and return its baseline cycles with the
/// result — one simulation where [`try_run_baseline`] +
/// [`try_run_with_tool`] take two, with the same numbers, verdicts and
/// reports (see the module docs for the hang-budget rule). A run over
/// its hang budget is repeated as that two-pass sequence.
pub fn try_run(
    program: &Program,
    cfg: &RunnerConfig,
    tool: &Tool,
) -> Result<(u64, RunResult), RunError> {
    if let Some((base, result)) = run_tool(program, cfg, tool, None).map_err(RunError::Baseline)? {
        // The derived baseline stands in for the uninstrumented run the
        // two-pass sequence charges to `prepare`.
        cfg.prof.record(ProfPhase::Prepare, 1, base);
        observe_reports(&cfg.obs, &result);
        return Ok((base, result));
    }
    let base = try_run_baseline(program, cfg).map_err(RunError::Baseline)?;
    let result = try_run_with_tool(program, cfg, tool, base).map_err(RunError::Tool)?;
    Ok((base, result))
}

/// Fold the finished run's reports into the count-valued telemetry layer
/// (exception families, findings-per-site, flow-chain depths). All
/// inputs are deterministic artifacts of the run, so the recorded series
/// are byte-identical under any `--threads N` and record-vs-replay.
fn observe_reports(obs: &Obs, result: &RunResult) {
    if let Some(r) = &result.detector_report {
        gpu_fpx::observe_detector(obs, r);
    }
    if let Some(r) = &result.analyzer_report {
        gpu_fpx::observe_analyzer(obs, r);
    }
    if let Some(r) = &result.shadow_report {
        fpx_shadow::observe_shadow(obs, r);
    }
}

/// Snapshot the registry after one tool run. Detector runs fold in their
/// site-table counters and GT probe statistics; returns `None` when the
/// config's metrics handle is disabled.
fn take_snapshot(cfg: &RunnerConfig, det: Option<&Detector>) -> Option<Snapshot> {
    match det {
        Some(d) => d.snapshot_into(&cfg.obs),
        None => cfg.obs.registry().map(|r| r.snapshot()),
    }
}

/// Panicking wrapper around [`try_run_with_tool`] for test/bench callers.
pub fn run_with_tool(
    program: &Program,
    cfg: &RunnerConfig,
    tool: &Tool,
    base_cycles: u64,
) -> RunResult {
    try_run_with_tool(program, cfg, tool, base_cycles)
        .unwrap_or_else(|e| panic!("{}: {e}", program.name))
}

/// Panicking wrapper around [`try_run`] for test/bench callers.
pub fn run(program: &Program, cfg: &RunnerConfig, tool: &Tool) -> (u64, RunResult) {
    try_run(program, cfg, tool).unwrap_or_else(|e| panic!("{}", e.message(&program.name)))
}

/// Convenience: run the detector with default config and return its report.
pub fn detect(program: &Program, cfg: &RunnerConfig) -> DetectorReport {
    run(program, cfg, &Tool::Detector(DetectorConfig::default()))
        .1
        .detector_report
        .expect("detector report")
}

/// Baseline-vs-tool comparison for one program.
pub fn compare(program: &Program, cfg: &RunnerConfig, tool: &Tool) -> Comparison {
    let (base, r) = run(program, cfg, tool);
    Comparison {
        program: program.name.clone(),
        base_cycles: base,
        tool_cycles: r.cycles,
        hung: r.hung,
    }
}

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.max(f64::MIN_POSITIVE).ln();
        n += 1;
    }
    if n == 0 {
        return 1.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected;

    fn cfg() -> RunnerConfig {
        RunnerConfig::default()
    }

    #[test]
    fn baseline_runs_a_clean_program() {
        let p = crate::find("hotspot").unwrap();
        let c = run_baseline(&p, &cfg());
        assert!(c > 0);
    }

    #[test]
    fn detector_matches_table4_for_gramschm() {
        let p = crate::find("GRAMSCHM").unwrap();
        let r = detect(&p, &cfg());
        assert_eq!(r.counts.row(), expected::expected_row("GRAMSCHM").unwrap());
    }

    #[test]
    fn detector_matches_table4_for_lu_and_cfd() {
        for name in ["LU", "cfd"] {
            let p = crate::find(name).unwrap();
            let r = detect(&p, &cfg());
            assert_eq!(
                r.counts.row(),
                expected::expected_row(name).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn clean_program_is_exception_free() {
        for name in ["hotspot", "GEMM", "vectorAdd", "2MM"] {
            let p = crate::find(name).unwrap();
            let r = detect(&p, &cfg());
            assert_eq!(r.counts.total(), 0, "{name} must be clean");
        }
    }

    #[test]
    fn binfpe_is_slower_than_detector_on_a_dense_program() {
        // COVAR rolls a Dense FP spec (asserted to guard the premise).
        assert_eq!(
            crate::programs::clean::CleanSpec::for_program("COVAR", crate::Suite::PolybenchGpu)
                .density,
            crate::programs::clean::Density::Dense
        );
        let p = crate::find("COVAR").unwrap();
        let fpx = compare(&p, &cfg(), &Tool::Detector(DetectorConfig::default()));
        let bf = compare(&p, &cfg(), &Tool::BinFpe);
        assert!(
            bf.slowdown() > 3.0 * fpx.slowdown(),
            "BinFPE {:.1}x vs GPU-FPX {:.1}x",
            bf.slowdown(),
            fpx.slowdown()
        );
    }

    #[test]
    fn shadow_flags_the_gramschm_cancellation_site() {
        use fpx_shadow::DivergenceKind;
        use gpu_fpx::FlowState;
        let p = crate::find("GRAMSCHM").unwrap();
        let r = run_with_tool(&p, &cfg(), &Tool::Shadow(ShadowConfig::default()), 1);
        let rep = r.shadow_report.expect("shadow tool produces a report");
        // The manifest-exception sites drive both real and shadow values
        // non-finite together, so the only divergences are the silent
        // cancellation at gramschmidt.cu:118 — one Appearance per warp:
        // 4 blocks x 4 warps x 4 invocations.
        assert_eq!(rep.findings.len(), 64, "{:?}", rep.state_counts());
        for f in &rep.findings {
            assert_eq!(f.state, FlowState::Appearance);
            assert_eq!(f.kind, Some(DivergenceKind::Cancellation));
            assert_eq!(f.where_str, "@ gramschmidt.cu in [gramschmidt_kernel2]:118");
            assert_eq!(f.real(), 0.0);
            assert_eq!(f.shadow(), 2.0f64.powi(-31));
        }
    }

    #[test]
    fn metrics_snapshot_captures_gt_channel_and_sm_activity() {
        use fpx_obs::Counter;
        let p = crate::find("GRAMSCHM").unwrap();
        let mut c = cfg();
        c.obs = Obs::with_sms(8);
        let base = run_baseline(&p, &c);
        let r = run_with_tool(&p, &c, &Tool::Detector(DetectorConfig::default()), base);
        let snap = r.metrics.expect("metrics enabled in config");
        assert!(snap.get(Counter::Launches) > 0);
        assert!(snap.get(Counter::ChecksInjected) > 0);
        let gt = snap.gt.expect("detector runs with a GT");
        assert!(gt.misses > 0, "GRAMSCHM raises exceptions");
        assert_eq!(gt.probes, gt.hits + gt.misses);
        assert!(snap.get(Counter::SitesTracked) > 0);
        assert_eq!(snap.get(Counter::SitesDropped), 0);
        assert!(snap.sm_cycles().iter().sum::<u64>() > 0);
        assert!(snap.sm_imbalance() >= 1.0);
    }

    #[test]
    fn geomean_is_correct() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([8.0]) - 8.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 1.0);
    }
}
