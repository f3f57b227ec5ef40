//! fpx-shadow determinism: the sanitizer carries the same two proof
//! obligations every prior subsystem does —
//!
//! 1. its findings are byte-identical across SM worker counts (the
//!    shadow register file shards by block, merges in block order, and
//!    never reads wall-clock or scheduler state), and
//! 2. a trace replay reproduces the live run's findings bit-exactly
//!    (the recorder captures every register a shadow hook would read,
//!    so replay drives the identical comparison sequence).

use fpx_shadow::{Shadow, ShadowConfig, ShadowMode};
use fpx_suite::runner::{self, hang_budget, RunnerConfig, Tool};
use fpx_trace::{record, TraceReplayer};
use proptest::prelude::*;
use std::sync::Arc;

/// Programs covering both shadow modes: GRAMSCHM carries the planted
/// FP32 cancellation at gramschmidt.cu:118 (Full mode's bread and
/// butter), myocyte/interval exercise FP64 chains that the truncated
/// reduced-precision check re-walks, LU is a manifest-exception program
/// where shadows go non-finite alongside the real values.
const PROGRAMS: [&str; 4] = ["GRAMSCHM", "LU", "interval", "myocyte"];

fn shadow_report(name: &str, threads: usize, sc: ShadowConfig) -> fpx_shadow::ShadowReport {
    let p = fpx_suite::find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
    let cfg = RunnerConfig {
        threads,
        ..RunnerConfig::default()
    };
    let base = runner::run_baseline(&p, &cfg);
    runner::run_with_tool(&p, &cfg, &Tool::Shadow(sc), base)
        .shadow_report
        .expect("shadow tool attaches a report")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Acceptance: the full `ShadowReport` (findings in order, drop
    /// counter, comparison count) is identical for `--threads 1` vs
    /// `--threads 8`, in both shadow modes.
    #[test]
    fn findings_identical_serial_vs_parallel(idx in 0usize..PROGRAMS.len(), rpc in any::<bool>()) {
        let name = PROGRAMS[idx];
        let sc = ShadowConfig {
            mode: if rpc { ShadowMode::Rpc } else { ShadowMode::Full },
            ..ShadowConfig::default()
        };
        let serial = shadow_report(name, 1, sc);
        let parallel = shadow_report(name, 8, sc);
        prop_assert_eq!(
            &serial, &parallel,
            "{} ({:?}) shadow findings diverged under threading", name, sc.mode
        );
    }
}

/// Acceptance: replaying a recorded trace through the shadow tool
/// reproduces the live run's report bit-exactly — same findings (order,
/// classification, real/shadow bit patterns in the JSON rendering),
/// same comparison count, same modeled cycles.
#[test]
fn shadow_findings_replay_bit_exact() {
    for (name, sc) in [
        ("GRAMSCHM", ShadowConfig::default()),
        (
            "myocyte",
            ShadowConfig {
                mode: ShadowMode::Rpc,
                ..ShadowConfig::default()
            },
        ),
    ] {
        let cfg = RunnerConfig::default();
        let p = fpx_suite::find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
        let base = runner::run_baseline(&p, &cfg);
        let live = runner::run_with_tool(&p, &cfg, &Tool::Shadow(sc), base);

        let trace = record(name, cfg.arch, cfg.opts.fast_math, |gpu| {
            p.prepare(&cfg.opts, &mut gpu.mem)
                .launches
                .into_iter()
                .map(|l| (l.kernel, l.cfg))
                .collect()
        })
        .unwrap_or_else(|e| panic!("{name}: record failed: {e:?}"));
        let bytes = trace.to_bytes();

        let mut gpu = fpx_sim::gpu::Gpu::new(cfg.arch);
        let kernels: Vec<Arc<_>> = p
            .prepare(&cfg.opts, &mut gpu.mem)
            .launches
            .into_iter()
            .map(|l| l.kernel)
            .collect();
        let rep = TraceReplayer::from_bytes(&bytes, &kernels)
            .unwrap_or_else(|e| panic!("{name}: bind failed: {e}"));

        let wd = hang_budget(base, cfg.hang_slowdown_limit);
        let out = rep.replay(Shadow::new(sc), Some(wd));
        assert!(!out.hung, "{name}: replay tripped the hang watchdog");

        let live_rep = live.shadow_report.expect("live shadow report");
        let replay_rep = out.tool.report();
        assert_eq!(
            &live_rep, replay_rep,
            "{name}: shadow report differs between record and replay"
        );
        assert_eq!(
            live_rep.to_json(),
            replay_rep.to_json(),
            "{name}: shadow JSON rendering differs between record and replay"
        );
        assert_eq!(
            live.cycles, out.cycles,
            "{name}: modeled cycles differ between record and replay"
        );
    }
}
