//! Campaign-engine overhead: what one injected trial costs on top of a
//! plain instrumented run, and how the per-trial cost amortizes across a
//! seeded campaign.
//!
//! * `plain-detector-run` — the reference: one detector-instrumented
//!   execution of the smoke program, no faults armed;
//! * `single-injected-trial` — plan + run + score one seeded trial
//!   across the detector backend only (the marginal cost of injection);
//! * `campaign-16-trials-detector` — a 16-trial single-backend campaign,
//!   the steady-state regime the CI smoke job exercises.
//!
//! The committed baseline lives in `BENCH_inject.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use fpx_inject::{run_campaign, CampaignConfig};
use fpx_suite::runner::{self, RunnerConfig, Tool, ToolKind};
use gpu_fpx::detector::DetectorConfig;

const PROGRAM: &str = "GRAMSCHM";

fn detector_cfg(trials: u32) -> CampaignConfig {
    CampaignConfig {
        seed: 7,
        trials,
        backends: vec![ToolKind::Detector],
        ..CampaignConfig::default()
    }
}

fn bench(c: &mut Criterion) {
    let p = fpx_suite::find(PROGRAM).expect(PROGRAM);
    let rc = RunnerConfig::default();
    let base = runner::run_baseline(&p, &rc);

    let mut g = c.benchmark_group("inject_campaign");
    g.bench_function("plain-detector-run", |b| {
        b.iter(|| {
            runner::run_with_tool(&p, &rc, &Tool::Detector(DetectorConfig::default()), base).cycles
        })
    });
    g.bench_function("single-injected-trial", |b| {
        let cfg = detector_cfg(1);
        b.iter(|| {
            let report = run_campaign(&[&p], &cfg).expect("campaign");
            report.results.len()
        })
    });
    g.bench_function("campaign-16-trials-detector", |b| {
        let cfg = detector_cfg(16);
        b.iter(|| {
            let report = run_campaign(&[&p], &cfg).expect("campaign");
            report.results.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
