//! Driving the coach: open a target (suite program or recorded trace),
//! run the lineage hook, reconstruct timelines, rank suggestions, and
//! re-execute bit-exactly for rewind captures.
//!
//! A [`CoachSession`] is reusable: the initial [`CoachSession::run`]
//! builds the report once, and every subsequent [`CoachSession::capture`]
//! is an independent re-execution with a [`CaptureTarget`] armed. Replays
//! and live runs produce byte-identical timelines (per-block state, seq-
//! stamped channel merge), so the REPL's `state` command is always
//! consistent with the report it navigates.

use crate::heur::{coach_suggestions, Suggestion};
use crate::rewind::{CaptureTarget, StateDump};
use crate::timeline::CoachReport;
use crate::tool::{Coach, CoachConfig};
use fpx_compiler::CompileOpts;
use fpx_nvbit::tool::NvbitTool;
use fpx_nvbit::Nvbit;
use fpx_obs::{Counter, Obs};
use fpx_prof::Prof;
use fpx_shadow::{Shadow, ShadowConfig, ShadowReport};
use fpx_sim::exec::SimError;
use fpx_sim::gpu::{Arch, Gpu};
use fpx_suite::runner::RunnerConfig;
use fpx_suite::Program;
use fpx_trace::TraceReplayer;
use std::sync::Arc;

/// Coach driver options.
#[derive(Clone)]
pub struct CoachOptions {
    pub arch: Arch,
    pub fast_math: bool,
    /// SM worker threads; timelines are schedule-independent.
    pub threads: usize,
    /// Timeline-event cap (see [`CoachConfig::max_events`]).
    pub max_events: usize,
    /// Also run the `fpx-shadow` sanitizer and cross-reference its
    /// cancellation findings into the suggestions.
    pub with_shadow: bool,
    pub obs: Obs,
    pub prof: Prof,
}

impl Default for CoachOptions {
    fn default() -> Self {
        CoachOptions {
            arch: Arch::Ampere,
            fast_math: false,
            threads: 1,
            max_events: CoachConfig::default().max_events,
            with_shadow: false,
            obs: Obs::disabled(),
            prof: Prof::disabled(),
        }
    }
}

/// Everything the initial coach pass produces.
pub struct CoachRun {
    pub report: CoachReport,
    pub suggestions: Vec<Suggestion>,
    /// Present when the session ran with `with_shadow`.
    pub shadow: Option<ShadowReport>,
    pub cycles: u64,
    /// Uninstrumented cycles (live baseline run, or the trace's recorded
    /// plain cycles) anchoring the hang budget.
    pub base_cycles: u64,
    pub hung: bool,
}

enum Target {
    /// Fresh instrumented runs of a suite program.
    Program(Box<Program>),
    /// Bit-exact replays of a recorded trace (reusable across passes).
    Trace(Box<TraceReplayer>),
}

/// An open coach target: knows how to run the lineage hook over it any
/// number of times.
pub struct CoachSession {
    target: Target,
    name: String,
    opts: CoachOptions,
    base_cycles: u64,
}

impl CoachSession {
    /// Open a target: a path ending in `.fpxtrace` loads a recorded
    /// trace, anything else is a suite program name.
    pub fn open(target: &str, opts: CoachOptions) -> Result<CoachSession, String> {
        if target.ends_with(".fpxtrace") {
            let bytes = std::fs::read(target).map_err(|e| format!("{target}: {e}"))?;
            let trace =
                fpx_trace::Trace::from_bytes(&bytes).map_err(|e| format!("{target}: {e}"))?;
            let program = fpx_suite::find(&trace.program)
                .ok_or_else(|| format!("trace references unknown program {:?}", trace.program))?;
            let copts = CompileOpts {
                fast_math: trace.fast_math,
                arch: trace.arch,
                ..CompileOpts::default()
            };
            let mut gpu = Gpu::new(trace.arch);
            let kernels: Vec<_> = program
                .prepare(&copts, &mut gpu.mem)
                .launches
                .into_iter()
                .map(|l| Arc::clone(&l.kernel))
                .collect();
            let base: u64 = trace.launches.iter().map(|l| l.plain_cycles).sum();
            let name = trace.program.clone();
            let rep = TraceReplayer::new(trace, &kernels).map_err(|e| format!("{target}: {e}"))?;
            Ok(CoachSession {
                target: Target::Trace(Box::new(rep)),
                name,
                opts,
                base_cycles: base,
            })
        } else {
            let program =
                fpx_suite::find(target).ok_or_else(|| format!("unknown program {target:?}"))?;
            let cfg = self::runner_config(&opts);
            let base = fpx_suite::runner::try_run_baseline(&program, &cfg)
                .map_err(|e| format!("{target} baseline: {e}"))?;
            Ok(CoachSession {
                target: Target::Program(Box::new(program)),
                name: target.to_string(),
                opts,
                base_cycles: base,
            })
        }
    }

    pub fn program_name(&self) -> &str {
        &self.name
    }

    fn watchdog(&self) -> u64 {
        fpx_suite::runner::hang_budget(
            self.base_cycles,
            RunnerConfig::default().hang_slowdown_limit,
        )
    }

    /// One coach pass. Returns the tool (report + any capture) plus
    /// cycles and hang status.
    fn pass(&self, capture: Option<CaptureTarget>) -> Result<(Coach, u64, bool), String> {
        let cfg = CoachConfig {
            max_events: self.opts.max_events,
            capture,
        };
        let wd = self.watchdog();
        match &self.target {
            Target::Trace(rep) => {
                let out = rep.replay_profiled(
                    Coach::new(cfg),
                    Some(wd),
                    self.opts.obs.clone(),
                    self.opts.prof.clone(),
                );
                Ok((out.tool, out.cycles, out.hung))
            }
            Target::Program(program) => {
                let rcfg = runner_config(&self.opts);
                let mut gpu = Gpu::new(rcfg.arch);
                gpu.watchdog_cycles = wd;
                gpu.threads = rcfg.threads.max(1);
                let mut tool = Coach::new(cfg);
                tool.set_prof(rcfg.prof.clone());
                let mut nv = Nvbit::new(gpu, tool);
                nv.set_obs(rcfg.obs.clone());
                nv.set_prof(rcfg.prof.clone());
                let plan = program.prepare(&rcfg.opts, &mut nv.gpu.mem);
                let mut hung = false;
                for l in &plan.launches {
                    match nv.launch(&l.kernel, &l.cfg) {
                        Ok(_) => {}
                        Err(SimError::Watchdog { .. }) => {
                            hung = true;
                            break;
                        }
                        Err(e) => return Err(format!("{}: {e}", self.name)),
                    }
                    if nv.gpu.clock.cycles() > wd {
                        hung = true;
                        break;
                    }
                }
                nv.terminate();
                let cycles = nv.gpu.clock.cycles();
                Ok((nv.tool, cycles, hung))
            }
        }
    }

    /// The initial pass: reconstruct timelines, optionally run the
    /// shadow sanitizer, and rank fix suggestions.
    pub fn run(&self) -> Result<CoachRun, String> {
        let (coach, cycles, hung) = self.pass(None)?;
        coach.snapshot_into(&self.opts.obs);
        let report = coach.into_report();
        let shadow = if self.opts.with_shadow {
            Some(self.shadow_pass()?)
        } else {
            None
        };
        let suggestions = coach_suggestions(&report, &self.name, shadow.as_ref());
        if self.opts.obs.is_enabled() {
            self.opts
                .obs
                .add(Counter::CoachSuggestions, suggestions.len() as u64);
        }
        Ok(CoachRun {
            report,
            suggestions,
            shadow,
            cycles,
            base_cycles: self.base_cycles,
            hung,
        })
    }

    /// A rewind pass: re-execute with `target` armed and return the
    /// captured state (None when the target never fires — e.g. a stale
    /// event reference).
    pub fn capture(&self, target: CaptureTarget) -> Result<Option<StateDump>, String> {
        let (coach, _, _) = self.pass(Some(target))?;
        Ok(coach.take_dump())
    }

    /// The shadow cross-reference pass (same target, shadow tool).
    fn shadow_pass(&self) -> Result<ShadowReport, String> {
        let cfg = ShadowConfig::default();
        let wd = self.watchdog();
        match &self.target {
            Target::Trace(rep) => {
                let out = rep.replay(Shadow::new(cfg), Some(wd));
                Ok(out.tool.report().clone())
            }
            Target::Program(program) => {
                let rcfg = runner_config(&self.opts);
                let res = fpx_suite::runner::try_run_with_tool(
                    program,
                    &rcfg,
                    &fpx_suite::runner::Tool::Shadow(cfg),
                    self.base_cycles,
                )
                .map_err(|e| format!("{} shadow: {e}", self.name))?;
                res.shadow_report
                    .ok_or_else(|| "shadow run produced no report".to_string())
            }
        }
    }
}

fn runner_config(opts: &CoachOptions) -> RunnerConfig {
    RunnerConfig {
        arch: opts.arch,
        opts: CompileOpts {
            fast_math: opts.fast_math,
            arch: opts.arch,
            ..CompileOpts::default()
        },
        threads: opts.threads,
        obs: opts.obs.clone(),
        prof: opts.prof.clone(),
        ..RunnerConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewind::Rewinder;
    use crate::timeline::EventKind;

    fn open(name: &str, threads: usize) -> CoachSession {
        CoachSession::open(
            name,
            CoachOptions {
                threads,
                ..CoachOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn gramschm_timelines_anchor_at_the_known_birth_sites() {
        let run = open("GRAMSCHM", 1).run().unwrap();
        assert!(!run.hung);
        assert!(!run.report.timelines.is_empty());
        // The paper's case study: the rcp of a zero norm at line 113
        // births the INF/NaN chain in gramschmidt_kernel2.
        let birth = &run.report.timelines[0].birth();
        assert_eq!(birth.kernel, "gramschmidt_kernel2");
        assert!(
            birth.where_str.contains("gramschmidt.cu") && birth.where_str.contains(":113"),
            "{birth:?}"
        );
        // At least the division-guard heuristic fires, with a repro line.
        assert!(
            run.suggestions.iter().any(|s| s.kind == "div-guard"),
            "{:?}",
            run.suggestions
        );
        assert!(run.suggestions[0].repro.contains("coach rewind"));
    }

    #[test]
    fn timelines_are_identical_across_thread_counts() {
        let a = open("LU", 1).run().unwrap();
        let b = open("LU", 8).run().unwrap();
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn capture_pass_rewinds_to_a_report_event() {
        let sess = open("GRAMSCHM", 1);
        let run = sess.run().unwrap();
        let t = &run.report.timelines[0];
        let ev = t.birth();
        assert_eq!(ev.kind, EventKind::Birth);
        let dump = sess
            .capture(CaptureTarget::for_event(ev))
            .unwrap()
            .expect("target fires on re-execution");
        assert_eq!(dump.kernel, ev.kernel);
        assert_eq!(dump.block, ev.block);
        assert_eq!(dump.warp, ev.warp);
        // The dump's destination register holds the born class on the
        // event's lane.
        let dest = dump.regs.iter().find(|r| r.is_dest).expect("dest dumped");
        assert_eq!(dest.reg, ev.reg);
        assert_eq!(dest.lanes[ev.lane as usize].class, ev.class);
    }

    #[test]
    fn rewinder_drives_the_session_end_to_end() {
        let sess = open("GRAMSCHM", 1);
        let run = sess.run().unwrap();
        let mut rw = Rewinder::new(run.report, 0, |t| sess.capture(t)).unwrap();
        let out = rw.run_script("state;chain;quit");
        assert!(out.contains("state @ gramschmidt_kernel2"), "{out}");
        assert!(out.contains("BIRTH"), "{out}");
        assert!(out.ends_with("bye\n"), "{out}");
    }

    #[test]
    fn unknown_target_is_an_error() {
        assert!(CoachSession::open("NOPE", CoachOptions::default()).is_err());
        assert!(CoachSession::open("missing.fpxtrace", CoachOptions::default()).is_err());
    }
}
