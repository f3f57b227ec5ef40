//! The live job path, called layer by layer: the same calls
//! `fpx_serve::job::run_rendered` makes, in the same order, with a span
//! around each call into a layer. It must render the same report.

use crate::spans::Tracer;
use fpx_binfpe::BinFpe;
use fpx_nvbit::{Nvbit, NvbitTool};
use fpx_serve::job::{self, JobSpec, JobTool};
use fpx_sim::exec::SimError;
use fpx_sim::gpu::Gpu;
use fpx_sim::hooks::InstrumentedCode;
use fpx_suite::runner::{RunResult, RunnerConfig};
use fpx_suite::Program;
use gpu_fpx::analyzer::{Analyzer, AnalyzerConfig};
use gpu_fpx::detector::{Detector, DetectorConfig};
use std::sync::Arc;

/// Work counts of one live job; all repeat exactly for a given spec.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Σ `LaunchStats.exec.warp_instrs` of the plain (baseline) launches.
    pub plain_warp_instrs: u64,
    /// The same sum over the instrumented launches.
    pub tool_warp_instrs: u64,
    pub injected_calls: u64,
    /// Channel records (`LaunchReport.records`).
    pub records: u64,
    pub channel_pushes: u64,
    pub gt_hits: u64,
    pub gt_probes: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.plain_warp_instrs += o.plain_warp_instrs;
        self.tool_warp_instrs += o.tool_warp_instrs;
        self.injected_calls += o.injected_calls;
        self.records += o.records;
        self.channel_pushes += o.channel_pushes;
        self.gt_hits += o.gt_hits;
        self.gt_probes += o.gt_probes;
    }
}

/// A rendered job, live or traced.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The bytes `job::render` printed.
    pub text: String,
    /// The same report in its schedule-free form (see [`canonical`]).
    pub canonical: String,
    pub base_cycles: u64,
    pub cycles: u64,
    pub records: u64,
}

impl Rendered {
    pub fn of(spec: &JobSpec, mut r: job::RenderedRun) -> Rendered {
        Rendered {
            canonical: canonical(spec, r.base_cycles, &mut r.result, &r.text),
            text: r.text,
            base_cycles: r.base_cycles,
            cycles: r.result.cycles,
            records: r.result.records,
        }
    }
}

/// The report `job::render` prints for `r` (whose printed bytes are
/// `text`), with the detector's findings in sorted order.
///
/// With more than one SM worker, which block wins a GT race decides where
/// its finding is merged, so the order of the `LOC-EXCEP` lines, and past
/// 40 findings which of them are printed, may change from run to run,
/// while the findings, the counts and the cycles do not (DESIGN.md §4,
/// `tests/gt_race_ordering.rs`). Repeats, digests and the traced job are
/// compared in this form; the known answers are checked on `text`.
pub fn canonical(spec: &JobSpec, base: u64, r: &mut RunResult, text: &str) -> String {
    match &mut r.detector_report {
        Some(rep) if !rep.messages.is_sorted() => {
            rep.messages.sort_unstable();
            job::render(spec, base, r)
        }
        _ => text.to_string(),
    }
}

/// Run `spec` through `run_rendered`.
pub fn untraced(spec: &JobSpec, rc: &RunnerConfig) -> Result<Rendered, String> {
    job::run_rendered(spec, rc)
        .map(|r| Rendered::of(spec, r))
        .map_err(|e| e.to_string())
}

/// Run `spec` as one traced job: `prepare`, the plain `Gpu::launch`
/// calls, `Nvbit::new`, `prepare`, the `Nvbit::launch` calls,
/// `terminate`, and `job::render`.
pub fn traced(
    spec: &JobSpec,
    rc: &RunnerConfig,
    tr: &mut Tracer,
) -> Result<(Rendered, Counts), String> {
    let tag = spec.tool.label();
    let id = tr.open("job", tag);
    let out = traced_job(spec, rc, tag, tr);
    tr.close(id);
    out
}

fn traced_job(
    spec: &JobSpec,
    rc: &RunnerConfig,
    tag: &'static str,
    tr: &mut Tracer,
) -> Result<(Rendered, Counts), String> {
    let mut counts = Counts::default();
    let program = tr
        .time("suite.find", tag, || fpx_suite::find(&spec.program))
        .ok_or_else(|| format!("unknown program {:?}", spec.program))?;
    let mut rc = rc.clone();
    rc.arch = spec.arch;
    rc.opts.arch = spec.arch;
    rc.opts.fast_math = spec.fast_math;

    let mut gpu = Gpu::new(rc.arch);
    gpu.threads = rc.threads.max(1);
    let plan = tr.time("suite.prepare", tag, || {
        program.prepare(&rc.opts, &mut gpu.mem)
    });
    for l in &plan.launches {
        let code = InstrumentedCode::plain(Arc::clone(&l.kernel));
        let st = tr
            .time("sim.launch", tag, || gpu.launch(&code, &l.cfg))
            .map_err(|e| format!("{} baseline: {e}", spec.program))?;
        counts.plain_warp_instrs += st.exec.warp_instrs;
    }
    let base = gpu.clock.cycles();
    let watchdog = ((base.max(10_000) as f64) * rc.hang_slowdown_limit) as u64;
    let live = Live {
        program: &program,
        rc: &rc,
        watchdog,
        tag,
    };
    let err = |e: SimError| format!("{}: {e}", spec.program);
    let mut r = match spec.tool {
        JobTool::Detector => {
            let dc = DetectorConfig {
                use_gt: spec.use_gt,
                freq_redn_factor: spec.freq_redn_factor,
                whitelist: None,
                device_checking: spec.device_checking,
            };
            let (nv, mut r) = live.run(Detector::new(dc), tr, &mut counts).map_err(err)?;
            if let Some((hits, misses)) = nv.tool.gt_stats() {
                counts.gt_hits += hits;
                counts.gt_probes += hits + misses;
            }
            r.detector_report = Some(nv.tool.report().clone());
            r
        }
        JobTool::Analyzer => {
            let tool = Analyzer::new(AnalyzerConfig::default());
            let (nv, mut r) = live.run(tool, tr, &mut counts).map_err(err)?;
            r.analyzer_report = Some(nv.tool.report().clone());
            r
        }
        JobTool::BinFpe => {
            let (nv, mut r) = live.run(BinFpe::new(), tr, &mut counts).map_err(err)?;
            r.detector_report = Some(nv.tool.report().clone());
            r
        }
        JobTool::Shadow => {
            return Err("the traced live path covers detector, analyzer and binfpe".into())
        }
    };
    let text = tr.time("serve.render", tag, || job::render(spec, base, &r));
    Ok((
        Rendered {
            canonical: canonical(spec, base, &mut r, &text),
            text,
            base_cycles: base,
            cycles: r.cycles,
            records: r.records,
        },
        counts,
    ))
}

/// One instrumented run, as the suite runner drives it.
struct Live<'a> {
    program: &'a Program,
    rc: &'a RunnerConfig,
    watchdog: u64,
    tag: &'static str,
}

impl Live<'_> {
    fn run<T: NvbitTool>(
        &self,
        tool: T,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(Nvbit<T>, RunResult), SimError> {
        let (rc, tag) = (self.rc, self.tag);
        let mut gpu = Gpu::new(rc.arch);
        gpu.watchdog_cycles = self.watchdog;
        gpu.threads = rc.threads.max(1);
        gpu.coalesce = rc.coalesce;
        let mut tool = tool;
        tool.set_prof(rc.prof.clone());
        let mut nv = tr.time("nvbit.new", tag, || Nvbit::new(gpu, tool));
        nv.set_obs(rc.obs.clone());
        nv.set_prof(rc.prof.clone());
        let plan = tr.time("suite.prepare", tag, || {
            self.program.prepare(&rc.opts, &mut nv.gpu.mem)
        });
        let (mut records, mut instrumented, mut hung) = (0, 0, false);
        for l in &plan.launches {
            match tr.time("nvbit.launch", tag, || nv.launch(&l.kernel, &l.cfg)) {
                Ok(rep) => {
                    records += rep.records;
                    instrumented += rep.instrumented as u64;
                    counts.tool_warp_instrs += rep.stats.exec.warp_instrs;
                    counts.injected_calls += rep.stats.exec.injected_calls;
                }
                Err(SimError::Watchdog { .. }) => {
                    hung = true;
                    break;
                }
                Err(e) => return Err(e),
            }
            if nv.gpu.clock.cycles() > self.watchdog {
                hung = true;
                break;
            }
        }
        tr.time("nvbit.terminate", tag, || nv.terminate());
        counts.records += records;
        counts.channel_pushes += nv.channel.total_pushes();
        let r = RunResult {
            program: self.program.name.clone(),
            cycles: nv.gpu.clock.cycles(),
            records,
            instrumented_launches: instrumented,
            detector_report: None,
            analyzer_report: None,
            shadow_report: None,
            hung,
            metrics: None,
        };
        Ok((nv, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_fpx::report::DetectorReport;

    fn run(messages: &[&str], cycles: u64) -> RunResult {
        RunResult {
            program: "P".into(),
            cycles,
            records: messages.len() as u64,
            instrumented_launches: 1,
            detector_report: Some(DetectorReport {
                messages: messages.iter().map(|m| m.to_string()).collect(),
                ..DetectorReport::default()
            }),
            analyzer_report: None,
            shadow_report: None,
            hung: false,
            metrics: None,
        }
    }

    fn canon(messages: &[&str], cycles: u64) -> String {
        let spec = JobSpec {
            program: "P".into(),
            ..JobSpec::default()
        };
        let mut r = run(messages, cycles);
        let text = job::render(&spec, 100, &r);
        canonical(&spec, 100, &mut r, &text)
    }

    #[test]
    fn canonical_form_ignores_only_the_order_of_findings() {
        let (a, b, c) = ("finding a", "finding b", "finding c");
        assert_eq!(canon(&[a, b], 500), canon(&[b, a], 500));
        assert_ne!(canon(&[a, b], 500), canon(&[a, c], 500));
        assert_ne!(canon(&[a, b], 500), canon(&[a, b], 501));
        // Past 40 findings the printed subset follows the order; the
        // sorted form prints the same 40 whatever the order.
        let many: Vec<String> = (0..50).map(|i| format!("finding {i:02}")).collect();
        let fwd: Vec<&str> = many.iter().map(String::as_str).collect();
        let rev: Vec<&str> = fwd.iter().rev().copied().collect();
        assert_eq!(canon(&fwd, 500), canon(&rev, 500));
        assert!(canon(&rev, 500).contains("finding 00"));
    }
}
