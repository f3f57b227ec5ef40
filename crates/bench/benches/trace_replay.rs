//! Record-once/replay-many vs full re-simulation: the wall-clock case for
//! the trace subsystem. A 4-configuration `freq-redn-factor` sweep is run
//! three ways:
//!
//! * `full-resim-4-configs` — the pre-trace approach: one complete
//!   simulation per configuration;
//! * `record-plus-replay-4-configs` — record a trace (one instrumented
//!   simulation pass), then replay all four configurations from it (the
//!   acceptance target: ≥2× faster than full re-simulation);
//! * `replay-only-4-configs` — the amortized regime, once a recording
//!   exists on disk.
//!
//! The sweep runs on `hotspot`, a multi-launch program of moderate
//! FP-instruction density — the regime tracing targets: simulation cost
//! dominates visit volume, so one instrumented pass plus four cheap
//! visit replays beats four full simulations. (On pathologically
//! FP-dense kernels such as GRAMSCHM, where nearly every instruction
//! produces a 256-byte visit, recording costs ~3× a plain run and the
//! win only materializes once the recording is reused — the
//! `replay-only` regime.)
//!
//! The committed baseline lives in `BENCH_trace.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use fpx_sass::kernel::KernelCode;
use fpx_suite::runner::{self, hang_budget, RunnerConfig, Tool};
use fpx_suite::Program;
use fpx_trace::{record, Trace, TraceReplayer};
use gpu_fpx::detector::{Detector, DetectorConfig};
use std::sync::Arc;

const PROGRAM: &str = "hotspot";
const KS: [u32; 4] = [0, 4, 16, 64];

fn dc(k: u32) -> DetectorConfig {
    DetectorConfig {
        freq_redn_factor: k,
        ..DetectorConfig::default()
    }
}

fn record_trace(p: &Program, cfg: &RunnerConfig) -> Trace {
    record(&p.name, cfg.arch, cfg.opts.fast_math, |gpu| {
        p.prepare(&cfg.opts, &mut gpu.mem)
            .launches
            .into_iter()
            .map(|l| (l.kernel, l.cfg))
            .collect()
    })
    .expect("record")
}

fn kernels(p: &Program, cfg: &RunnerConfig) -> Vec<Arc<KernelCode>> {
    let mut gpu = fpx_sim::gpu::Gpu::new(cfg.arch);
    p.prepare(&cfg.opts, &mut gpu.mem)
        .launches
        .into_iter()
        .map(|l| l.kernel)
        .collect()
}

fn bench(c: &mut Criterion) {
    let cfg = RunnerConfig::default();
    let p = fpx_suite::find(PROGRAM).expect(PROGRAM);
    let base = runner::run_baseline(&p, &cfg);
    let wd = hang_budget(base, cfg.hang_slowdown_limit);

    let mut g = c.benchmark_group("trace_replay");
    g.bench_function("full-resim-4-configs", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for k in KS {
                total += runner::run_with_tool(&p, &cfg, &Tool::Detector(dc(k)), base).cycles;
            }
            total
        })
    });
    g.bench_function("record-plus-replay-4-configs", |b| {
        b.iter(|| {
            let rep = TraceReplayer::new(record_trace(&p, &cfg), &kernels(&p, &cfg))
                .expect("bind kernels");
            let mut total = 0u64;
            for k in KS {
                total += rep.replay(Detector::new(dc(k)), Some(wd)).cycles;
            }
            total
        })
    });
    let rep = TraceReplayer::new(record_trace(&p, &cfg), &kernels(&p, &cfg)).expect("bind kernels");
    g.bench_function("replay-only-4-configs", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for k in KS {
                total += rep.replay(Detector::new(dc(k)), Some(wd)).cycles;
            }
            total
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
