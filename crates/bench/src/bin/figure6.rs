//! Regenerate the paper's Figure 6: the impact of `FREQ-REDN-FACTOR` on
//! performance (geometric-mean slowdown, the blue bars) and on exception
//! detection (total exception count, the red line).
//!
//! With `--replay`, each program is simulated **once** (baseline plus one
//! trace recording) and every k point is replayed from the trace through
//! a fresh detector. Replay is bit-exact, so the table is identical to
//! the full re-simulation — only the wall-clock cost changes.

use fpx_bench::{bar, MetricsSink};
use fpx_suite::registry;
use fpx_suite::runner::{self, geomean, hang_budget, RunnerConfig, Tool};
use fpx_trace::{record, TraceReplayer};
use gpu_fpx::detector::{Detector, DetectorConfig};
use std::sync::Arc;

const KS: [u32; 5] = [0, 4, 16, 64, 256];

fn main() {
    let replay_mode = std::env::args().any(|a| a == "--replay");
    let mut sink = MetricsSink::from_args();
    let cfg = RunnerConfig {
        obs: sink.obs(),
        ..RunnerConfig::default()
    };
    // The sweep uses every program that launches kernels repeatedly plus
    // the exception-bearing set (the population where sampling matters);
    // exception counts sum over all of them.
    let programs = registry();

    let mut slowdowns: Vec<Vec<f64>> = vec![Vec::new(); KS.len()];
    let mut exceptions = [0u32; KS.len()];
    if replay_mode {
        for p in &programs {
            let base = runner::run_baseline(p, &cfg);
            let trace = record(&p.name, cfg.arch, cfg.opts.fast_math, |gpu| {
                p.prepare(&cfg.opts, &mut gpu.mem)
                    .launches
                    .into_iter()
                    .map(|l| (l.kernel, l.cfg))
                    .collect()
            })
            .unwrap_or_else(|e| panic!("{}: record failed: {e:?}", p.name));
            let mut gpu = fpx_sim::gpu::Gpu::new(cfg.arch);
            let kernels: Vec<Arc<_>> = p
                .prepare(&cfg.opts, &mut gpu.mem)
                .launches
                .into_iter()
                .map(|l| l.kernel)
                .collect();
            let rep =
                TraceReplayer::new(trace, &kernels).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let wd = hang_budget(base, cfg.hang_slowdown_limit);
            for (ki, &k) in KS.iter().enumerate() {
                let out = rep.replay_observed(
                    Detector::new(DetectorConfig {
                        freq_redn_factor: k,
                        ..DetectorConfig::default()
                    }),
                    Some(wd),
                    sink.obs(),
                );
                slowdowns[ki].push(out.cycles as f64 / base as f64);
                exceptions[ki] += out.tool.report().counts.total();
                sink.absorb_gt(out.tool.gt_snapshot());
            }
        }
    } else {
        for (ki, &k) in KS.iter().enumerate() {
            for p in &programs {
                let base = runner::run_baseline(p, &cfg);
                let r = runner::run_with_tool(
                    p,
                    &cfg,
                    &Tool::Detector(DetectorConfig {
                        freq_redn_factor: k,
                        ..DetectorConfig::default()
                    }),
                    base,
                );
                slowdowns[ki].push(r.cycles as f64 / base as f64);
                exceptions[ki] += r.detector_report.unwrap().counts.total();
                sink.absorb(r.metrics.as_ref());
            }
        }
    }

    println!("Figure 6: FREQ-REDN-FACTOR sweep (bars: geomean slowdown; line: exceptions)\n");
    println!("{:>6} | {:>9} | {:>10} |", "k", "slowdown", "exceptions");
    println!("{}", "-".repeat(46));
    for (ki, &k) in KS.iter().enumerate() {
        let gm = geomean(slowdowns[ki].iter().copied());
        let exceptions = exceptions[ki];
        let label = if k == 0 {
            "full".to_string()
        } else {
            k.to_string()
        };
        println!(
            "{label:>6} | {gm:>8.2}x | {exceptions:>10} | {}",
            bar(gm.round() as usize, 1)
        );
    }
    println!(
        "\nAs in the paper: higher k keeps amortizing the per-launch JIT cost while\n\
         only the invocation-dependent exceptions (myocyte, Laghos, Sw4lite) drop out;\n\
         every program stays diagnosable."
    );
    sink.write();
}
