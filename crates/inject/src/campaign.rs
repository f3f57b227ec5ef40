//! The campaign runner: seeded trial planning, injected execution under
//! each backend, oracle scoring, and the shrinking pass.
//!
//! A campaign is a pure function of ⟨seed, program pool, config⟩: trial
//! plans come from per-trial [`SplitMix64`] streams, fault outcomes are
//! aggregated with commutative atomics, and the simulator itself is
//! schedule-deterministic — so the resulting report is byte-identical
//! under any `--threads`.

use crate::fault::{kinds_from_mask, FaultFn, FaultKind, FaultSpec, FaultState};
use crate::report::{CampaignReport, FaultResult, Outcome, ShrinkResult, TrialResult};
use crate::rng::SplitMix64;
use crate::site::{enumerate_sites, Site};
use crate::tool::InjectTool;
use fpx_binfpe::BinFpe;
use fpx_compiler::CompileOpts;
use fpx_nvbit::tool::NvbitTool;
use fpx_nvbit::Nvbit;
use fpx_obs::{Counter, Obs};
use fpx_prof::{Phase as ProfPhase, Prof};
use fpx_sass::types::FpFormat;
use fpx_shadow::{Shadow, ShadowConfig, ShadowMode, ShadowReport};
use fpx_sim::exec::SimError;
use fpx_sim::gpu::{Arch, Gpu};
use fpx_sim::hooks::{DeviceFn, InstrumentedCode, When};
use fpx_sim::mem::DeviceMemory;
use fpx_suite::Program;
use fpx_trace::{RecordError, Trace, TraceRecorder};
use gpu_fpx::analyzer::{Analyzer, AnalyzerConfig, AnalyzerReport, FlowState};
use gpu_fpx::detector::{Detector, DetectorConfig};
use gpu_fpx::oracle;
use gpu_fpx::report::DetectorReport;
use std::sync::Arc;

/// The detection backends a campaign can score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Detector,
    Analyzer,
    BinFpe,
    /// The shadow-value precision sanitizer. Not in [`Backend::ALL`]
    /// (the default column set): it is opt-in via `--backends`, because
    /// its quarry — silent precision faults — only exists when
    /// [`CampaignConfig::precision_faults`] is armed too.
    Shadow,
}

impl Backend {
    /// The default report columns. `Shadow` is deliberately excluded —
    /// see its variant docs.
    pub const ALL: [Backend; 3] = [Backend::Detector, Backend::Analyzer, Backend::BinFpe];

    pub fn label(self) -> &'static str {
        match self {
            Backend::Detector => "detector",
            Backend::Analyzer => "analyzer",
            Backend::BinFpe => "binfpe",
            Backend::Shadow => "shadow",
        }
    }

    pub fn from_label(s: &str) -> Option<Backend> {
        match s {
            "detector" => Some(Backend::Detector),
            "analyzer" => Some(Backend::Analyzer),
            "binfpe" => Some(Backend::BinFpe),
            "shadow" => Some(Backend::Shadow),
            _ => None,
        }
    }
}

/// Campaign configuration. The seed is the only randomness source; no
/// field defaults to wall-clock anything.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub seed: u64,
    pub trials: u32,
    pub arch: Arch,
    pub opts: CompileOpts,
    /// SM worker threads per injected launch; results are identical for
    /// any value (see module docs).
    pub threads: usize,
    /// Backends to run and score, in report-column order.
    pub backends: Vec<Backend>,
    /// Maximum faults per trial (≥ 1). When > 1, a quarter of trials
    /// inject several faults, which is what exercises the shrinking pass.
    pub max_faults: u32,
    /// Arm [`FaultKind::PrecisionFlip`] in the trial planner. Off by
    /// default so pre-existing seeded campaigns stay byte-identical; the
    /// silent faults it adds are `Benign` to every exception backend by
    /// construction, so it is only interesting with [`Backend::Shadow`]
    /// in the column set.
    pub precision_faults: bool,
    /// Slowdown over the plain baseline beyond which an injected run is
    /// cut off as hung (injection can flood reporting paths).
    pub hang_slowdown_limit: f64,
    /// Metrics handle for the `inject.*` counters; disabled by default.
    pub obs: Obs,
    /// Self-profiling handle threaded through every injected run;
    /// disabled by default.
    pub prof: Prof,
    /// CLI words naming the program pool in repro lines (e.g.
    /// `--preset smoke`). Derived from the pool when empty.
    pub programs_arg: String,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            trials: 64,
            arch: Arch::Ampere,
            opts: CompileOpts::default(),
            threads: 1,
            backends: Backend::ALL.to_vec(),
            max_faults: 3,
            precision_faults: false,
            hang_slowdown_limit: 200.0,
            obs: Obs::disabled(),
            prof: Prof::disabled(),
            programs_arg: String::new(),
        }
    }
}

/// Per-program facts computed once per campaign.
struct ProgCtx {
    sites: Vec<Site>,
    watchdog: u64,
}

fn prog_ctx(program: &Program, cfg: &CampaignConfig) -> Result<ProgCtx, SimError> {
    // Site enumeration and the plain baseline are campaign preparation;
    // the baseline's simulated cycles are charged to the span.
    let mut sp = cfg.prof.span(ProfPhase::Prepare);
    let mut mem = DeviceMemory::default();
    let plan = program.prepare(&cfg.opts, &mut mem);
    let sites = enumerate_sites(&plan);
    // Plain baseline anchors the hang budget, like the suite runner.
    let mut gpu = Gpu::new(cfg.arch);
    gpu.threads = cfg.threads.max(1);
    let plan = program.prepare(&cfg.opts, &mut gpu.mem);
    for l in &plan.launches {
        gpu.launch(&InstrumentedCode::plain(Arc::clone(&l.kernel)), &l.cfg)?;
    }
    let base = gpu.clock.cycles();
    sp.add_cycles(base);
    let watchdog = fpx_suite::runner::hang_budget(base, cfg.hang_slowdown_limit);
    Ok(ProgCtx { sites, watchdog })
}

/// Plan one trial's faults from its seeded stream: how many, at which
/// distinct sites, which kind and payload bit. Deterministic given the
/// stream position; sites are drawn from the static site table only.
/// `precision` widens the kind pool with [`FaultKind::PrecisionFlip`];
/// with it off, the draw sequence is bit-identical to older campaigns.
pub fn plan_faults(
    rng: &mut SplitMix64,
    sites: &[Site],
    max_faults: u32,
    precision: bool,
) -> Vec<(FaultSpec, Site)> {
    if sites.is_empty() {
        return Vec::new();
    }
    let cap = u64::from(max_faults.max(1));
    let n = if cap > 1 && rng.below(4) == 0 {
        2 + rng.below(cap - 1)
    } else {
        1
    };
    let n = n.min(sites.len() as u64);
    let mut picked: Vec<usize> = Vec::new();
    while (picked.len() as u64) < n {
        let i = rng.below(sites.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
        .into_iter()
        .map(|i| {
            let site = sites[i].clone();
            let mut kind = if precision {
                FaultKind::ALL[rng.below(7) as usize]
            } else {
                FaultKind::ALL[rng.below(6) as usize]
            };
            if !site.supports(kind) {
                // Re-draw over the writeback kinds, which every site
                // supports (ALL[0..5] when p-flip is unarmed, so the old
                // stream is preserved).
                kind = if precision {
                    FaultKind::WRITEBACK[rng.below(6) as usize]
                } else {
                    FaultKind::ALL[rng.below(5) as usize]
                };
            }
            let bit = rng.below(64) as u32;
            (
                FaultSpec {
                    site: site.id,
                    kind,
                    bit,
                    launch: None,
                },
                site,
            )
        })
        .collect()
}

/// Run one program with `faults` armed under `tool`. Returns the context
/// (for tool reports and fault states) and whether the run hung.
fn run_injected<T: NvbitTool>(
    program: &Program,
    pctx: &ProgCtx,
    cfg: &CampaignConfig,
    faults: &[(FaultSpec, Site)],
    tool: T,
) -> Result<(Nvbit<InjectTool<T>>, bool), SimError> {
    let mut gpu = Gpu::new(cfg.arch);
    gpu.watchdog_cycles = pctx.watchdog;
    gpu.threads = cfg.threads.max(1);
    let mut tool = InjectTool::new(tool, faults.to_vec());
    // Before Nvbit::new: on_init runs there and may hand the handle on
    // (the detector installs it on its global table).
    tool.set_prof(cfg.prof.clone());
    let mut nv = Nvbit::new(gpu, tool);
    nv.set_prof(cfg.prof.clone());
    let plan = program.prepare(&cfg.opts, &mut nv.gpu.mem);
    let mut hung = false;
    for l in &plan.launches {
        match nv.launch(&l.kernel, &l.cfg) {
            Ok(_) => {}
            Err(SimError::Watchdog { .. }) => {
                hung = true;
                break;
            }
            Err(e) => return Err(e),
        }
        if nv.gpu.clock.cycles() > pctx.watchdog {
            hung = true;
            break;
        }
    }
    nv.terminate();
    Ok((nv, hung))
}

/// Per-fault dynamic facts from one injected run:
/// ⟨fired, oracle mask, saw-exceptional-source⟩.
type FaultMeta = (u64, u32, bool);

fn collect_meta(states: &[Arc<FaultState>]) -> Vec<FaultMeta> {
    states
        .iter()
        .map(|s| (s.fired(), s.oracle_mask(), s.saw_exceptional_src()))
        .collect()
}

fn outcome_sites(rep: &DetectorReport, site: &Site, mask: u32) -> Outcome {
    let kinds = kinds_from_mask(mask);
    let hit = rep
        .sites
        .values()
        .any(|s| s.kernel == site.kernel && s.pc == site.pc && kinds.contains(&s.record.exce));
    if hit {
        Outcome::Detected
    } else {
        Outcome::Missed
    }
}

/// Whether the shadow sanitizer reported a divergence at the fault's
/// static site (any flow state: the mutated writeback is `Appearance`
/// when the sources were still clean, `Propagation` downstream).
fn shadow_hit(rep: &ShadowReport, site: &Site) -> bool {
    rep.findings
        .iter()
        .any(|f| f.kernel == site.kernel && f.sass == site.sass)
}

fn outcome_analyzer(rep: &AnalyzerReport, site: &Site) -> Outcome {
    let mut seen = false;
    for e in &rep.events {
        if e.kernel == site.kernel && e.sass == site.sass {
            seen = true;
            // Any destination-exceptional classification acknowledges the
            // injected value; APPEARANCE vs PROPAGATION can legitimately
            // differ per dynamic execution.
            if matches!(
                e.state,
                FlowState::Appearance | FlowState::Propagation | FlowState::SharedRegister
            ) {
                return Outcome::Detected;
            }
        }
    }
    if seen {
        Outcome::Misclassified
    } else {
        Outcome::Missed
    }
}

/// Run `faults` under one backend and score every fault.
fn run_backend(
    program: &Program,
    pctx: &ProgCtx,
    cfg: &CampaignConfig,
    faults: &[(FaultSpec, Site)],
    backend: Backend,
) -> Result<(Vec<Outcome>, Vec<FaultMeta>, bool), SimError> {
    let score = |meta: &[FaultMeta], judge: &dyn Fn(&Site, u32) -> Outcome| {
        faults
            .iter()
            .zip(meta)
            .map(|((_, site), &(fired, mask, _))| {
                if fired == 0 {
                    Outcome::NotFired
                } else if mask == 0 {
                    Outcome::Benign
                } else {
                    judge(site, mask)
                }
            })
            .collect::<Vec<_>>()
    };
    match backend {
        Backend::Detector => {
            let (nv, hung) = run_injected(
                program,
                pctx,
                cfg,
                faults,
                Detector::new(DetectorConfig::default()),
            )?;
            let meta = collect_meta(
                &nv.tool
                    .faults()
                    .iter()
                    .map(|f| Arc::clone(&f.state))
                    .collect::<Vec<_>>(),
            );
            let rep = nv.tool.inner.report();
            let outcomes = score(&meta, &|site, mask| outcome_sites(rep, site, mask));
            Ok((outcomes, meta, hung))
        }
        Backend::Analyzer => {
            let (nv, hung) = run_injected(
                program,
                pctx,
                cfg,
                faults,
                Analyzer::new(AnalyzerConfig::default()),
            )?;
            let meta = collect_meta(
                &nv.tool
                    .faults()
                    .iter()
                    .map(|f| Arc::clone(&f.state))
                    .collect::<Vec<_>>(),
            );
            let rep = nv.tool.inner.report();
            let outcomes = score(&meta, &|site, _| outcome_analyzer(rep, site));
            Ok((outcomes, meta, hung))
        }
        Backend::BinFpe => {
            let (nv, hung) = run_injected(program, pctx, cfg, faults, BinFpe::new())?;
            let meta = collect_meta(
                &nv.tool
                    .faults()
                    .iter()
                    .map(|f| Arc::clone(&f.state))
                    .collect::<Vec<_>>(),
            );
            let rep = nv.tool.inner.report();
            let outcomes = score(&meta, &|site, mask| outcome_sites(rep, site, mask));
            Ok((outcomes, meta, hung))
        }
        Backend::Shadow => {
            // Pick the mode that can see this trial's sites: RPC when the
            // faults all land on FP64 instructions (Full mode only shadows
            // FP32 ops), Full otherwise.
            let mode = if !faults.is_empty() && faults.iter().all(|(_, s)| s.fmt == FpFormat::Fp64)
            {
                ShadowMode::Rpc
            } else {
                ShadowMode::Full
            };
            let sc = ShadowConfig {
                mode,
                ..ShadowConfig::default()
            };
            let (nv, hung) = run_injected(program, pctx, cfg, faults, Shadow::new(sc))?;
            let meta = collect_meta(
                &nv.tool
                    .faults()
                    .iter()
                    .map(|f| Arc::clone(&f.state))
                    .collect::<Vec<_>>(),
            );
            let rep = nv.tool.inner.report();
            // A silent fault has an empty oracle mask — the whole point of
            // this backend is that it can still catch one, so the Detected
            // check comes before the Benign short-circuit (unlike `score`).
            let outcomes = faults
                .iter()
                .zip(&meta)
                .map(|((_, site), &(fired, mask, _))| {
                    if fired == 0 {
                        Outcome::NotFired
                    } else if shadow_hit(rep, site) {
                        Outcome::Detected
                    } else if mask == 0 {
                        Outcome::Benign
                    } else {
                        Outcome::Missed
                    }
                })
                .collect();
            Ok((outcomes, meta, hung))
        }
    }
}

fn flow_label(s: FlowState) -> &'static str {
    match s {
        FlowState::SharedRegister => "shared-register",
        FlowState::Comparison => "comparison",
        FlowState::Appearance => "appearance",
        FlowState::Propagation => "propagation",
        FlowState::Disappearance => "disappearance",
    }
}

fn fmt_label(f: FpFormat) -> &'static str {
    match f {
        FpFormat::Fp32 => "fp32",
        FpFormat::Fp64 => "fp64",
        FpFormat::Fp16 => "fp16",
    }
}

fn run_trial(
    program: &Program,
    pctx: &ProgCtx,
    cfg: &CampaignConfig,
    trial: u32,
    faults: &[(FaultSpec, Site)],
) -> Result<TrialResult, SimError> {
    let mut cols: Vec<Vec<Outcome>> = Vec::with_capacity(cfg.backends.len());
    let mut hung = Vec::with_capacity(cfg.backends.len());
    let mut meta: Vec<FaultMeta> = Vec::new();
    for (i, b) in cfg.backends.iter().enumerate() {
        let (outcomes, m, h) = run_backend(program, pctx, cfg, faults, *b)?;
        if i == 0 {
            meta = m;
        }
        cols.push(outcomes);
        hung.push(h);
    }
    let results = faults
        .iter()
        .enumerate()
        .map(|(i, (spec, site))| {
            let (fired, mask, src_exn) = meta.get(i).copied().unwrap_or((0, 0, false));
            let expected_flow = if mask != 0 {
                oracle::expected_flow_state(true, src_exn, false).map(flow_label)
            } else {
                None
            };
            FaultResult {
                spec: *spec,
                kernel: site.kernel.clone(),
                pc: site.pc,
                sass: site.sass.clone(),
                format: fmt_label(site.fmt),
                fired,
                oracle: kinds_from_mask(mask)
                    .into_iter()
                    .map(|k| match k {
                        fpx_sass::types::ExceptionKind::NaN => "nan",
                        fpx_sass::types::ExceptionKind::Inf => "inf",
                        fpx_sass::types::ExceptionKind::Subnormal => "subnormal",
                        fpx_sass::types::ExceptionKind::DivByZero => "div0",
                    })
                    .collect(),
                expected_flow,
                outcomes: cols.iter().map(|c| c[i]).collect(),
            }
        })
        .collect();
    Ok(TrialResult {
        trial,
        program: program.name.clone(),
        hung,
        faults: results,
    })
}

/// Bisect a missed multi-fault trial down to its culprit fault(s) under
/// one backend: keep the half that still produces a miss, until a single
/// fault remains or the miss needs faults from both halves.
fn shrink(
    program: &Program,
    pctx: &ProgCtx,
    cfg: &CampaignConfig,
    trial: u32,
    faults: &[(FaultSpec, Site)],
    backend: Backend,
) -> Result<ShrinkResult, SimError> {
    let mut current = faults.to_vec();
    let mut steps = 0u32;
    while current.len() > 1 {
        let mid = current.len() / 2;
        let (a, b) = current.split_at(mid);
        steps += 1;
        let (oa, _, _) = run_backend(program, pctx, cfg, a, backend)?;
        if oa.contains(&Outcome::Missed) {
            current = a.to_vec();
            continue;
        }
        steps += 1;
        let (ob, _, _) = run_backend(program, pctx, cfg, b, backend)?;
        if ob.contains(&Outcome::Missed) {
            current = b.to_vec();
            continue;
        }
        // The miss only manifests with faults from both halves: an
        // interaction, reported as-is.
        break;
    }
    Ok(ShrinkResult {
        trial,
        backend: backend.label(),
        steps,
        culprits: current.iter().map(|(s, _)| s.site).collect(),
    })
}

/// Run a full campaign over `programs`. Programs without any injectable
/// site are excluded from the trial sampler (their names still appear in
/// the report's pool).
pub fn run_campaign(
    programs: &[&Program],
    cfg: &CampaignConfig,
) -> Result<CampaignReport, SimError> {
    let mut ctxs = Vec::with_capacity(programs.len());
    for p in programs {
        ctxs.push(prog_ctx(p, cfg)?);
    }
    let pool: Vec<usize> = (0..programs.len())
        .filter(|&i| !ctxs[i].sites.is_empty())
        .collect();
    let mut results = Vec::new();
    let mut shrinks = Vec::new();
    for t in 0..cfg.trials {
        if pool.is_empty() {
            break;
        }
        cfg.obs.add(Counter::InjectTrials, 1);
        let mut rng = SplitMix64::for_trial(cfg.seed, u64::from(t));
        let pi = pool[rng.below(pool.len() as u64) as usize];
        let faults = plan_faults(
            &mut rng,
            &ctxs[pi].sites,
            cfg.max_faults,
            cfg.precision_faults,
        );
        let trial = run_trial(programs[pi], &ctxs[pi], cfg, t, &faults)?;
        let fired = trial.faults.iter().filter(|f| f.fired > 0).count() as u64;
        cfg.obs.add(Counter::InjectFaultsFired, fired);
        for f in &trial.faults {
            for o in &f.outcomes {
                match o {
                    Outcome::Detected => cfg.obs.add(Counter::InjectDetected, 1),
                    Outcome::Misclassified => cfg.obs.add(Counter::InjectMisclassified, 1),
                    Outcome::Missed => cfg.obs.add(Counter::InjectMissed, 1),
                    Outcome::Benign | Outcome::NotFired => {}
                }
            }
        }
        if faults.len() >= 2 {
            let missed_backend = cfg.backends.iter().enumerate().find(|(b, _)| {
                trial
                    .faults
                    .iter()
                    .any(|f| f.outcomes[*b] == Outcome::Missed)
            });
            if let Some((b, backend)) = missed_backend {
                let _ = b;
                let sh = shrink(programs[pi], &ctxs[pi], cfg, t, &faults, *backend)?;
                cfg.obs.add(Counter::InjectShrinkSteps, u64::from(sh.steps));
                shrinks.push(sh);
            }
        }
        results.push(trial);
    }
    let names: Vec<String> = programs.iter().map(|p| p.name.clone()).collect();
    let programs_arg = if cfg.programs_arg.is_empty() {
        format!("--programs {}", names.join(","))
    } else {
        cfg.programs_arg.clone()
    };
    Ok(CampaignReport {
        seed: cfg.seed,
        trials: cfg.trials,
        threads: cfg.threads.max(1),
        programs: names,
        programs_arg,
        backends: cfg.backends.iter().map(|b| b.label()).collect(),
        results,
        shrinks,
    })
}

/// Re-derive one trial's fault plan without running it — the `replay`
/// path. Returns the program index into `programs` and the planned
/// faults (empty when no program has sites).
pub fn replay_plan(
    programs: &[&Program],
    cfg: &CampaignConfig,
    trial: u32,
) -> Result<(usize, Vec<(FaultSpec, Site)>), SimError> {
    let mut sites_by_prog = Vec::with_capacity(programs.len());
    for p in programs {
        let mut mem = DeviceMemory::default();
        let plan = p.prepare(&cfg.opts, &mut mem);
        sites_by_prog.push(enumerate_sites(&plan));
    }
    let pool: Vec<usize> = (0..programs.len())
        .filter(|&i| !sites_by_prog[i].is_empty())
        .collect();
    if pool.is_empty() {
        return Ok((0, Vec::new()));
    }
    let mut rng = SplitMix64::for_trial(cfg.seed, u64::from(trial));
    let pi = pool[rng.below(pool.len() as u64) as usize];
    let faults = plan_faults(
        &mut rng,
        &sites_by_prog[pi],
        cfg.max_faults,
        cfg.precision_faults,
    );
    Ok((pi, faults))
}

/// Run one planned trial and score it (the `replay` path's second half).
pub fn replay_trial(
    program: &Program,
    cfg: &CampaignConfig,
    trial: u32,
    faults: &[(FaultSpec, Site)],
) -> Result<TrialResult, SimError> {
    let pctx = prog_ctx(program, cfg)?;
    run_trial(program, &pctx, cfg, trial, faults)
}

/// Record the injected execution of one trial as an `fpx-trace` capture:
/// missed trials replay bit-exactly from the resulting trace. Recording
/// runs serially, as the trace engine requires.
pub fn record_trial_trace(
    program: &Program,
    cfg: &CampaignConfig,
    faults: &[(FaultSpec, Site)],
) -> Result<Trace, RecordError> {
    let mut gpu = Gpu::new(cfg.arch);
    let mut rec = TraceRecorder::new();
    let plan = program.prepare(&cfg.opts, &mut gpu.mem);
    for l in &plan.launches {
        let mutators: Vec<(u32, When, Arc<dyn DeviceFn>)> = faults
            .iter()
            .filter(|(_, s)| s.kernel == l.kernel.name)
            .map(|(spec, s)| {
                (
                    s.pc,
                    spec.kind.when(),
                    Arc::new(FaultFn {
                        kind: spec.kind,
                        bit: spec.bit,
                        target: s.target_for(spec.kind),
                        fmt: s.fmt,
                        reciprocal: s.reciprocal,
                        srcs: s.srcs.clone().into(),
                        state: Arc::new(FaultState::default()),
                    }) as Arc<dyn DeviceFn>,
                )
            })
            .collect();
        rec.record_launch_mutated(&mut gpu, &l.kernel, &l.cfg, &mutators)?;
    }
    Ok(rec.into_trace(cfg.arch, cfg.opts.fast_math, program.name.clone()))
}
