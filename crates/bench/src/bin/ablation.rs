//! Ablation study of the three performance approaches §1 enumerates:
//!
//! 1. a table in GPU global memory for deduplicated exception records (GT);
//! 2. transmitting diagnostic data only when exceptional values arise, with
//!    the check running *on the device*;
//! 3. selective instrumentation ("sampling") to amortize JIT overheads.
//!
//! Each row disables exactly one optimization and reports the geometric-
//! mean slowdown over a representative program set, so the contribution of
//! each design decision is visible in isolation.
//!
//! With `--replay`, each program is simulated once and all four detector
//! variants are replayed from its trace. Non-hung rows are bit-exact with
//! the full re-simulation; rows containing hangs (the no-GT variant on
//! exception-dense programs) agree on the hang verdict but report the
//! replay's launch-grained cut-off cycles (see `fpx_trace::replay`).

use fpx_bench::{print_table, MetricsSink};
use fpx_suite::runner::{self, geomean, hang_budget, RunnerConfig, Tool};
use fpx_trace::{record, TraceReplayer};
use gpu_fpx::detector::{Detector, DetectorConfig};
use std::sync::Arc;

fn main() {
    let replay_mode = std::env::args().any(|a| a == "--replay");
    let mut sink = MetricsSink::from_args();
    let cfg = RunnerConfig {
        obs: sink.obs(),
        ..RunnerConfig::default()
    };
    // A representative slice: exception-dense, FP-dense clean, integer
    // bound, launch-heavy, and tiny.
    let programs = [
        "myocyte",
        "S3D",
        "GRAMSCHM",
        "COVAR",
        "BFS",
        "Sort",
        "CuMF-Movielens",
        "vectorAdd",
        "simpleAWBarrier",
    ];
    let variants: [(&str, DetectorConfig); 4] = [
        ("full GPU-FPX", DetectorConfig::default()),
        (
            "(1) no GT dedup",
            DetectorConfig {
                use_gt: false,
                ..DetectorConfig::default()
            },
        ),
        (
            "(2) host-side checking",
            DetectorConfig {
                device_checking: false,
                ..DetectorConfig::default()
            },
        ),
        (
            "(3) + sampling k=64",
            DetectorConfig {
                freq_redn_factor: 64,
                ..DetectorConfig::default()
            },
        ),
    ];

    // results[variant] accumulates (slowdowns, hangs, sites).
    let mut slows: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut hangs = [0u32; 4];
    let mut sites = [0u32; 4];
    if replay_mode {
        for name in programs {
            let p = fpx_suite::find(name).expect(name);
            let base = runner::run_baseline(&p, &cfg);
            let trace = record(&p.name, cfg.arch, cfg.opts.fast_math, |gpu| {
                p.prepare(&cfg.opts, &mut gpu.mem)
                    .launches
                    .into_iter()
                    .map(|l| (l.kernel, l.cfg))
                    .collect()
            })
            .unwrap_or_else(|e| panic!("{name}: record failed: {e:?}"));
            let mut gpu = fpx_sim::gpu::Gpu::new(cfg.arch);
            let kernels: Vec<Arc<_>> = p
                .prepare(&cfg.opts, &mut gpu.mem)
                .launches
                .into_iter()
                .map(|l| l.kernel)
                .collect();
            let rep = TraceReplayer::new(trace, &kernels).unwrap_or_else(|e| panic!("{name}: {e}"));
            let wd = hang_budget(base, cfg.hang_slowdown_limit);
            for (vi, (_, dc)) in variants.iter().enumerate() {
                let out = rep.replay_observed(Detector::new(dc.clone()), Some(wd), sink.obs());
                slows[vi].push(out.cycles as f64 / base as f64);
                hangs[vi] += out.hung as u32;
                sites[vi] += out.tool.report().counts.total();
                sink.absorb_gt(out.tool.gt_snapshot());
            }
        }
    } else {
        for (vi, (_, dc)) in variants.iter().enumerate() {
            for name in programs {
                let p = fpx_suite::find(name).expect(name);
                let base = runner::run_baseline(&p, &cfg);
                let r = runner::run_with_tool(&p, &cfg, &Tool::Detector(dc.clone()), base);
                slows[vi].push(r.cycles as f64 / base as f64);
                hangs[vi] += r.hung as u32;
                sites[vi] += r.detector_report.unwrap().counts.total();
                sink.absorb(r.metrics.as_ref());
            }
        }
    }

    println!(
        "Ablation of the §1 optimizations (geomean slowdown; hang = >{}x)\n",
        cfg.hang_slowdown_limit
    );
    let mut rows = Vec::new();
    for (vi, (label, _)) in variants.iter().enumerate() {
        rows.push(vec![
            label.to_string(),
            format!("{:.2}x", geomean(slows[vi].iter().copied())),
            hangs[vi].to_string(),
            sites[vi].to_string(),
        ]);
    }
    print_table(
        &["configuration", "geomean slowdown", "hangs", "sites found"],
        &rows,
    );
    println!(
        "\nReading: dropping GT floods the channel on exception-dense programs (hangs);\n\
         moving the check to the host multiplies traffic by the destination-value volume;\n\
         sampling wins on launch-heavy programs at a small detection cost (Table 5)."
    );
    sink.write();
}
