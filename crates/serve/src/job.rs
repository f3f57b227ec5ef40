//! Canonical job description and the shared run-and-render path.
//!
//! [`run_rendered`] is *the* implementation behind both `gpu-fpx suite
//! run` and the serve worker pool: it runs the program under the tool —
//! one simulation, with the baseline taken from the instrumented pass
//! (see [`fpx_suite::runner::try_run`]) — and renders the report into a
//! `String`. Because both entry points call
//! the same function with the same [`JobSpec`], a served result is
//! byte-identical to a one-shot CLI run by construction — there is no
//! second renderer to drift.

use fpx_compiler::CompileOpts;
use fpx_prof::Phase as ProfPhase;
use fpx_shadow::{ShadowConfig, ShadowMode};
use fpx_sim::gpu::{Arch, Gpu};
use fpx_suite::runner::{self, RunError, RunResult, RunnerConfig, Tool, ToolKind};
use fpx_trace::format::KernelMeta;
use fpx_trace::{CacheError, CacheKey};
use gpu_fpx::analyzer::AnalyzerConfig;
use gpu_fpx::chains::flow_chains;
use gpu_fpx::detector::DetectorConfig;
use std::fmt::Write as _;

/// Which tool a job loads. The `perfbench` benchmark names it `JobTool`.
pub use fpx_suite::runner::ToolKind as JobTool;

/// Everything that identifies one unit of servable work. Two jobs with
/// equal specs (and equal program kernel tables) produce byte-identical
/// output; worker/thread counts are execution details and deliberately
/// not part of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Suite program name (see `gpu-fpx suite list`).
    pub program: String,
    pub tool: ToolKind,
    pub arch: Arch,
    pub fast_math: bool,
    /// Detector sampling: instrument every 2^k-th dynamic visit.
    pub freq_redn_factor: u32,
    /// Detector GT (exception-site deduplication table) on/off.
    pub use_gt: bool,
    /// Detector device-side checking (vs. host-side, the BinFPE way).
    pub device_checking: bool,
    /// Render the machine-readable one-line JSON report instead of prose.
    pub json: bool,
    /// Append the exception-flow chains as a delimited Graphviz DOT
    /// section (analyzer and shadow jobs; clients extract it to a file).
    pub chains_dot: bool,
    /// Shadow sanitizer mode (full FP64 shadows vs. RPC truncation).
    pub shadow_mode: ShadowMode,
    /// Shadow relative-error budget, in destination-grid ulps.
    pub shadow_ulp_budget: f64,
    /// Shadow cancellation exponent-drop threshold, in bits.
    pub shadow_cancel_threshold: u32,
}

impl Default for JobSpec {
    fn default() -> Self {
        let sc = ShadowConfig::default();
        JobSpec {
            program: String::new(),
            tool: ToolKind::Detector,
            arch: Arch::Ampere,
            fast_math: false,
            freq_redn_factor: 0,
            use_gt: true,
            device_checking: true,
            json: false,
            chains_dot: false,
            shadow_mode: sc.mode,
            shadow_ulp_budget: sc.ulp_budget,
            shadow_cancel_threshold: sc.cancel_threshold,
        }
    }
}

impl JobSpec {
    /// The [`ShadowConfig`] this spec describes (meaningful when
    /// `tool == Shadow`).
    pub fn shadow_config(&self) -> ShadowConfig {
        ShadowConfig {
            mode: self.shadow_mode,
            ulp_budget: self.shadow_ulp_budget,
            cancel_threshold: self.shadow_cancel_threshold,
            ..ShadowConfig::default()
        }
    }

    /// The runner tool configuration this spec describes.
    pub fn runner_tool(&self) -> Tool {
        match self.tool {
            ToolKind::Detector => Tool::Detector(DetectorConfig {
                use_gt: self.use_gt,
                freq_redn_factor: self.freq_redn_factor,
                whitelist: None,
                device_checking: self.device_checking,
            }),
            ToolKind::Analyzer => Tool::Analyzer(AnalyzerConfig::default()),
            ToolKind::BinFpe => Tool::BinFpe,
            ToolKind::Shadow => Tool::Shadow(self.shadow_config()),
        }
    }

    /// Canonical config fingerprint: the config half of the cache key.
    /// Encodes every spec field that can change the rendered report and
    /// nothing that cannot — in particular no worker or thread counts
    /// (served results are schedule-independent by contract).
    ///
    /// The full shadow configuration is always encoded (`v2` bumped the
    /// version when it was added, retiring every pre-shadow entry): a
    /// cache entry written without shadow findings can never be served
    /// for a shadow-enabled job, and two shadow jobs differing only in
    /// budget or mode never collide. `v3` added the `chains_dot` section
    /// flag, retiring pre-DOT entries the same way.
    pub fn fingerprint(&self) -> String {
        format!(
            "v3;tool={};arch={:?};fast_math={};k={};gt={};devchk={};json={};cdot={};shadow={}:{}:{}",
            self.tool.label(),
            self.arch,
            self.fast_math,
            self.freq_redn_factor,
            self.use_gt,
            self.device_checking,
            self.json,
            self.chains_dot,
            self.shadow_mode.label(),
            self.shadow_ulp_budget,
            self.shadow_cancel_threshold,
        )
    }
}

/// Why a job failed. Display strings match the one-shot CLI's error
/// messages exactly, so `serve submit` failures read the same as `suite
/// run` failures.
#[derive(Debug)]
pub enum JobError {
    UnknownProgram(String),
    /// The program itself failed to simulate ([`RunError::Baseline`]).
    Baseline {
        program: String,
        message: String,
    },
    /// The instrumented run failed.
    Run {
        program: String,
        message: String,
    },
    Cache(CacheError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::UnknownProgram(name) => write!(f, "unknown program {name:?}"),
            JobError::Baseline { program, message } => {
                write!(f, "{program} baseline: {message}")
            }
            JobError::Run { program, message } => write!(f, "{program}: {message}"),
            JobError::Cache(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<CacheError> for JobError {
    fn from(e: CacheError) -> Self {
        JobError::Cache(e)
    }
}

/// The program's kernel-metadata table: the content-addressed half of the
/// cache key. Prepared kernels are deduplicated by name in first-seen
/// order, matching the trace recorder's interning.
pub fn kernel_metas(
    program: &str,
    arch: Arch,
    fast_math: bool,
) -> Result<Vec<KernelMeta>, JobError> {
    let p =
        fpx_suite::find(program).ok_or_else(|| JobError::UnknownProgram(program.to_string()))?;
    let copts = CompileOpts {
        fast_math,
        arch,
        ..CompileOpts::default()
    };
    let mut gpu = Gpu::new(arch);
    let plan = p.prepare(&copts, &mut gpu.mem);
    let mut metas: Vec<KernelMeta> = Vec::new();
    for l in &plan.launches {
        if metas.iter().any(|m| m.name == l.kernel.name) {
            continue;
        }
        metas.push(KernelMeta {
            name: l.kernel.name.clone(),
            num_regs: l.kernel.num_regs,
            num_instrs: l.kernel.len() as u32,
            checksum: fpx_trace::format::kernel_checksum(&l.kernel),
        });
    }
    Ok(metas)
}

/// Build the full cache key for a spec (prepares the program to hash its
/// kernels — callers that prepare repeatedly should memoize, see
/// [`crate::engine::Engine`]).
pub fn cache_key(spec: &JobSpec) -> Result<CacheKey, JobError> {
    Ok(CacheKey {
        kernels: kernel_metas(&spec.program, spec.arch, spec.fast_math)?,
        config: spec.fingerprint(),
    })
}

/// A completed run plus its rendered report.
#[derive(Debug)]
pub struct RenderedRun {
    /// The report exactly as `gpu-fpx suite run` prints it (sans the
    /// optional `--metrics`/`--profile` artifact lines, which are
    /// per-invocation side channels, not part of the result).
    pub text: String,
    pub base_cycles: u64,
    pub result: RunResult,
}

/// Run `spec` and render its report. `rc` supplies the execution details
/// (threads, obs/prof handles); the spec's arch and fast-math override
/// the config's so the result depends only on the spec.
pub fn run_rendered(spec: &JobSpec, rc: &RunnerConfig) -> Result<RenderedRun, JobError> {
    let program = fpx_suite::find(&spec.program)
        .ok_or_else(|| JobError::UnknownProgram(spec.program.clone()))?;
    let mut rc = rc.clone();
    rc.arch = spec.arch;
    rc.opts.arch = spec.arch;
    rc.opts.fast_math = spec.fast_math;
    let (base, r) = runner::try_run(&program, &rc, &spec.runner_tool()).map_err(|e| {
        let program = spec.program.clone();
        match e {
            RunError::Baseline(e) => JobError::Baseline {
                program,
                message: e.to_string(),
            },
            RunError::Tool(e) => JobError::Run {
                program,
                message: e.to_string(),
            },
        }
    })?;
    let _sp = rc.prof.span(ProfPhase::Analysis);
    let text = render(spec, base, &r);
    Ok(RenderedRun {
        text,
        base_cycles: base,
        result: r,
    })
}

/// Render the report for a completed run — the exact bytes `gpu-fpx
/// suite run` prints for the same spec.
pub fn render(spec: &JobSpec, base: u64, r: &RunResult) -> String {
    let mut w = String::new();
    if spec.json {
        writeln!(w, "{}", suite_run_json(spec, base, r)).expect("write to String");
        return w;
    }
    let name = &spec.program;
    writeln!(
        w,
        "{name}: baseline {base} cycles, instrumented {} cycles (slowdown {:.2}x){}",
        r.cycles,
        r.cycles as f64 / base as f64,
        if r.hung { " [HUNG]" } else { "" }
    )
    .expect("write to String");
    if let Some(rep) = &r.detector_report {
        for m in rep.messages.iter().take(40) {
            writeln!(w, "{m}").expect("write to String");
        }
        if rep.messages.len() > 40 {
            writeln!(w, "... ({} more)", rep.messages.len() - 40).expect("write to String");
        }
        writeln!(w, "row: {:?}", rep.counts.row()).expect("write to String");
    }
    if let Some(rep) = &r.analyzer_report {
        writeln!(w, "flow states: {:?}", rep.state_counts()).expect("write to String");
        for c in flow_chains(rep).iter().take(10) {
            writeln!(w, "  - {}", c.summary()).expect("write to String");
        }
    }
    if let Some(rep) = &r.shadow_report {
        for m in rep.listing().iter().take(40) {
            writeln!(w, "{m}").expect("write to String");
        }
        if rep.listing().len() > 40 {
            writeln!(w, "... ({} more)", rep.listing().len() - 40).expect("write to String");
        }
        writeln!(
            w,
            "shadow: {} findings / {} comparisons {:?}",
            rep.findings.len(),
            rep.comparisons,
            rep.kind_counts(),
        )
        .expect("write to String");
        for c in flow_chains(&rep.to_flow_report()).iter().take(10) {
            writeln!(w, "  - {}", c.summary()).expect("write to String");
        }
    }
    if spec.chains_dot {
        let chains = if let Some(rep) = &r.analyzer_report {
            Some(flow_chains(rep))
        } else {
            r.shadow_report
                .as_ref()
                .map(|rep| flow_chains(&rep.to_flow_report()))
        };
        if let Some(chains) = chains {
            writeln!(w, "{CHAINS_DOT_BEGIN}").expect("write to String");
            w.push_str(&gpu_fpx::chains::chains_dot(&chains));
            writeln!(w, "{CHAINS_DOT_END}").expect("write to String");
        }
    }
    w
}

/// Delimiters of the `chains_dot` section in rendered output. The DOT
/// body is part of the result bytes (and thus the cache entry); clients
/// split it out with [`extract_chains_dot`].
pub const CHAINS_DOT_BEGIN: &str = "--- chains-dot ---";
pub const CHAINS_DOT_END: &str = "--- end chains-dot ---";

/// Split a rendered report into (report text, DOT section), when one is
/// present. The report text keeps its trailing newline; the DOT keeps
/// its own but not the delimiters.
pub fn extract_chains_dot(text: &str) -> (String, Option<String>) {
    let Some(start) = text.find(CHAINS_DOT_BEGIN) else {
        return (text.to_string(), None);
    };
    let body_start = start + CHAINS_DOT_BEGIN.len() + 1;
    let Some(end) = text[body_start..].find(CHAINS_DOT_END) else {
        return (text.to_string(), None);
    };
    let dot = text[body_start..body_start + end].to_string();
    let mut rest = text[..start].to_string();
    rest.push_str(text[body_start + end + CHAINS_DOT_END.len()..].trim_start_matches('\n'));
    (rest, Some(dot))
}

/// One machine-readable line for `--json` jobs: counts by ⟨exception
/// type, format⟩, cycle totals, and the §4.2 slowdown.
fn suite_run_json(spec: &JobSpec, base: u64, r: &RunResult) -> String {
    use fpx_trace::export::json_escape;
    let tool = spec.tool.label();
    let mut s = format!(
        "{{\"program\":\"{}\",\"tool\":\"{tool}\",\"baseline_cycles\":{base},\
         \"tool_cycles\":{},\"slowdown\":{:.4},\"hung\":{},\"records\":{},\
         \"instrumented_launches\":{}",
        json_escape(&spec.program),
        r.cycles,
        r.cycles as f64 / base.max(1) as f64,
        r.hung,
        r.records,
        r.instrumented_launches,
    );
    if let Some(rep) = &r.detector_report {
        let fmt_row = |row: [u32; 4]| {
            format!(
                "{{\"nan\":{},\"inf\":{},\"subnormal\":{},\"div0\":{}}}",
                row[0], row[1], row[2], row[3]
            )
        };
        let row = rep.counts.row();
        s.push_str(&format!(
            ",\"exceptions\":{{\"fp64\":{},\"fp32\":{},\"fp16\":{}}},\"occurrences\":{}",
            fmt_row([row[0], row[1], row[2], row[3]]),
            fmt_row([row[4], row[5], row[6], row[7]]),
            fmt_row(rep.counts.row16()),
            rep.occurrences,
        ));
    }
    if let Some(rep) = &r.analyzer_report {
        let states: Vec<String> = rep
            .state_counts()
            .iter()
            .map(|(st, n)| format!("\"{}\":{n}", st.label()))
            .collect();
        s.push_str(&format!(
            ",\"flow_states\":{{{}}},\"flow_events_dropped\":{}",
            states.join(","),
            rep.dropped
        ));
    }
    if let Some(rep) = &r.shadow_report {
        s.push_str(&format!(",\"shadow\":{}", rep.to_json()));
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_excludes_execution_details_and_separates_configs() {
        let a = JobSpec {
            program: "LU".into(),
            ..JobSpec::default()
        };
        let mut b = a.clone();
        b.freq_redn_factor = 64;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.json = true;
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert!(
            !a.fingerprint().contains("threads") && !a.fingerprint().contains("workers"),
            "schedule details must not be cache identity: {}",
            a.fingerprint()
        );
    }

    #[test]
    fn shadow_config_is_cache_identity() {
        use fpx_trace::ResultCache;
        // IdentityMismatch discipline, extended to the sanitizer: a
        // cache entry produced without shadow must be a *miss* for a
        // shadow-enabled job (never a hit that silently omits shadow
        // findings), and shadow jobs differing only in mode/budget/
        // threshold must not collide either.
        let cache = ResultCache::in_memory();
        let det = JobSpec {
            program: "LU".into(),
            ..JobSpec::default()
        };
        cache
            .insert(cache_key(&det).unwrap(), b"detector output".to_vec())
            .unwrap();
        let sh = JobSpec {
            tool: JobTool::Shadow,
            ..det.clone()
        };
        assert_eq!(
            cache.lookup(&cache_key(&sh).unwrap()).unwrap(),
            None,
            "a detector entry must not serve a shadow job"
        );
        cache
            .insert(cache_key(&sh).unwrap(), b"shadow@16".to_vec())
            .unwrap();
        for (label, variant) in [
            (
                "ulp budget",
                JobSpec {
                    shadow_ulp_budget: 32.0,
                    ..sh.clone()
                },
            ),
            (
                "mode",
                JobSpec {
                    shadow_mode: ShadowMode::Rpc,
                    ..sh.clone()
                },
            ),
            (
                "cancel threshold",
                JobSpec {
                    shadow_cancel_threshold: 4,
                    ..sh.clone()
                },
            ),
        ] {
            assert_eq!(
                cache.lookup(&cache_key(&variant).unwrap()).unwrap(),
                None,
                "shadow {label} must be cache identity"
            );
        }
        assert_eq!(
            cache.lookup(&cache_key(&sh).unwrap()).unwrap().as_deref(),
            Some(&b"shadow@16"[..]),
            "the exact shadow spec still hits"
        );
    }

    #[test]
    fn kernel_metas_are_deterministic_and_config_sensitive() {
        let a = kernel_metas("LU", Arch::Ampere, false).unwrap();
        let b = kernel_metas("LU", Arch::Ampere, false).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same program + compile opts → same table");
        assert!(matches!(
            kernel_metas("not-a-program", Arch::Ampere, false),
            Err(JobError::UnknownProgram(_))
        ));
    }

    #[test]
    fn run_rendered_is_reproducible() {
        let spec = JobSpec {
            program: "LU".into(),
            ..JobSpec::default()
        };
        let rc = RunnerConfig::default();
        let a = run_rendered(&spec, &rc).unwrap();
        let b = run_rendered(&spec, &rc).unwrap();
        assert_eq!(a.text, b.text);
        assert!(
            a.text.contains("row: [0, 0, 0, 0, 3, 0, 0, 1]"),
            "{}",
            a.text
        );
    }

    #[test]
    fn unknown_program_error_matches_cli_wording() {
        let spec = JobSpec {
            program: "nope".into(),
            ..JobSpec::default()
        };
        let e = run_rendered(&spec, &RunnerConfig::default()).unwrap_err();
        assert_eq!(e.to_string(), "unknown program \"nope\"");
    }
}
