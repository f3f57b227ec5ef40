//! The runner's single pass against the two-pass sequence it replaces.
//!
//! `runner::try_run` (behind `run_rendered`, so behind `suite run` and
//! every served miss) simulates a program once and takes the baseline
//! from the instrumented pass's issue cycles; a run over its hang budget
//! is repeated as `try_run_baseline` + `try_run_with_tool`. Both paths
//! must give the numbers, verdicts and report bytes of that two-pass
//! sequence: S3D under BinFPE and myocyte without GT are the over-budget
//! cases, the rest stay inside the budget.

use fpx_serve::job::{self, JobSpec, JobTool};
use fpx_suite::runner::{self, RunnerConfig};

fn spec(program: &str, tool: JobTool, use_gt: bool) -> JobSpec {
    JobSpec {
        program: program.to_string(),
        tool,
        use_gt,
        ..JobSpec::default()
    }
}

fn cfg(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        ..RunnerConfig::default()
    }
}

/// Compare the single pass with the serial two-pass sequence: baseline,
/// tool cycles, hang verdict and rendered bytes at one worker; baseline
/// and verdict at four (a run cut off by the watchdog reports
/// schedule-dependent cycles above one worker).
fn assert_single_pass_matches(cases: &[(&str, JobTool, bool)], hung: bool) {
    for &(name, tool, use_gt) in cases {
        let s = spec(name, tool, use_gt);
        let what = format!("{name} {tool:?} gt={use_gt}");
        let p = fpx_suite::find(name).unwrap();
        let base = runner::run_baseline(&p, &cfg(1));
        let two = runner::run_with_tool(&p, &cfg(1), &s.runner_tool(), base);
        assert_eq!(two.hung, hung, "{what}: premise");

        let one = job::run_rendered(&s, &cfg(1)).unwrap();
        assert_eq!(one.base_cycles, base, "{what}: baseline");
        assert_eq!(one.result.cycles, two.cycles, "{what}: tool cycles");
        assert_eq!(one.result.hung, two.hung, "{what}: verdict");
        assert_eq!(one.text, job::render(&s, base, &two), "{what}: report");

        let (par_base, par) = runner::run(&p, &cfg(4), &s.runner_tool());
        assert_eq!(par_base, base, "{what}: baseline, 4 workers");
        assert_eq!(par.hung, two.hung, "{what}: verdict, 4 workers");
    }
}

#[test]
fn single_pass_matches_two_pass_inside_the_budget() {
    assert_single_pass_matches(
        &[
            ("GRAMSCHM", JobTool::Detector, true),
            ("GRAMSCHM", JobTool::Analyzer, true),
            ("GRAMSCHM", JobTool::Shadow, true),
            ("LU", JobTool::Detector, true),
            ("immaTensorCoreGemm", JobTool::BinFpe, true),
        ],
        false,
    );
}

#[test]
fn over_budget_runs_fall_back_to_the_two_pass_report() {
    assert_single_pass_matches(
        &[
            ("S3D", JobTool::BinFpe, true),
            ("myocyte", JobTool::Detector, false),
        ],
        true,
    );
}
