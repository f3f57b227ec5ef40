//! Replay-equivalence: a recorded trace replayed through a tool must be
//! bit-exact with a live serial simulation of the same configuration —
//! same deduplicated record sets, same flow states, and same modeled
//! cycle totals. (The cross-crate property tests in the workspace root
//! extend this over every exception-bearing suite program.)

use fpx_binfpe::BinFpe;
use fpx_suite::runner::{self, hang_budget, RunnerConfig, Tool};
use fpx_suite::Program;
use fpx_trace::{record, Trace, TraceReplayer};
use gpu_fpx::analyzer::{Analyzer, AnalyzerConfig};
use gpu_fpx::detector::{Detector, DetectorConfig};
use std::sync::Arc;

fn record_and_bind(p: &Program, cfg: &RunnerConfig) -> TraceReplayer {
    let trace: Trace = record(&p.name, cfg.arch, cfg.opts.fast_math, |gpu| {
        p.prepare(&cfg.opts, &mut gpu.mem)
            .launches
            .into_iter()
            .map(|l| (l.kernel, l.cfg))
            .collect()
    })
    .expect("record");
    let mut gpu = fpx_sim::gpu::Gpu::new(cfg.arch);
    let kernels: Vec<Arc<_>> = p
        .prepare(&cfg.opts, &mut gpu.mem)
        .launches
        .into_iter()
        .map(|l| l.kernel)
        .collect();
    TraceReplayer::new(trace, &kernels).expect("bind kernels")
}

/// Live-vs-replay comparison of the detector under one configuration.
fn assert_detector_equivalent(name: &str, dc: DetectorConfig) {
    let cfg = RunnerConfig::default();
    let p = fpx_suite::find(name).expect(name);
    let base = runner::run_baseline(&p, &cfg);
    let live = runner::run_with_tool(&p, &cfg, &Tool::Detector(dc.clone()), base);

    let rep = record_and_bind(&p, &cfg);
    let wd = hang_budget(base, cfg.hang_slowdown_limit);
    let replayed = rep.replay(Detector::new(dc), Some(wd));

    assert_eq!(live.hung, replayed.hung, "{name}: hang classification");
    let lrep = live.detector_report.expect("live report");
    let rrep = replayed.tool.report();
    if live.hung {
        return; // cut-off granularity differs; only the verdict must match
    }
    assert_eq!(
        lrep.sites.keys().collect::<Vec<_>>(),
        rrep.sites.keys().collect::<Vec<_>>(),
        "{name}: deduplicated record sets"
    );
    assert_eq!(lrep.messages, rrep.messages, "{name}: report lines");
    assert_eq!(lrep.counts.row(), rrep.counts.row(), "{name}: Table 4 row");
    assert_eq!(lrep.counts.row16(), rrep.counts.row16(), "{name}: FP16 row");
    assert_eq!(lrep.occurrences, rrep.occurrences, "{name}: occurrences");
    assert_eq!(live.records, replayed.records, "{name}: channel records");
    assert_eq!(
        live.instrumented_launches, replayed.instrumented_launches,
        "{name}: instrumented launches"
    );
    assert_eq!(live.cycles, replayed.cycles, "{name}: modeled cycles");
}

#[test]
fn detector_default_is_bit_exact() {
    for name in ["GRAMSCHM", "LU", "interval", "vectorAdd"] {
        assert_detector_equivalent(name, DetectorConfig::default());
    }
}

#[test]
fn detector_on_dense_multiformat_program_is_bit_exact() {
    assert_detector_equivalent("myocyte", DetectorConfig::default());
}

#[test]
fn detector_sampling_sweep_is_bit_exact() {
    // One recording serves every k: the tool's own on_kernel_launch
    // decides which launches to skip during replay.
    for k in [2, 4, 64] {
        assert_detector_equivalent(
            "myocyte",
            DetectorConfig {
                freq_redn_factor: k,
                ..DetectorConfig::default()
            },
        );
    }
}

#[test]
fn detector_without_gt_is_bit_exact() {
    assert_detector_equivalent(
        "GRAMSCHM",
        DetectorConfig {
            use_gt: false,
            ..DetectorConfig::default()
        },
    );
}

#[test]
fn detector_host_check_ablation_is_bit_exact() {
    assert_detector_equivalent(
        "LU",
        DetectorConfig {
            device_checking: false,
            ..DetectorConfig::default()
        },
    );
}

#[test]
fn analyzer_flow_states_are_bit_exact() {
    let cfg = RunnerConfig::default();
    for name in ["GRAMSCHM", "interval", "S3D"] {
        let p = fpx_suite::find(name).expect(name);
        let base = runner::run_baseline(&p, &cfg);
        let ac = AnalyzerConfig::default();
        let live = runner::run_with_tool(&p, &cfg, &Tool::Analyzer(ac.clone()), base);

        let rep = record_and_bind(&p, &cfg);
        let wd = hang_budget(base, cfg.hang_slowdown_limit);
        let replayed = rep.replay(Analyzer::new(ac), Some(wd));

        assert_eq!(live.hung, replayed.hung, "{name}: hang classification");
        let lrep = live.analyzer_report.expect("live report");
        let rrep = replayed.tool.report();
        assert_eq!(lrep.events, rrep.events, "{name}: flow events");
        assert_eq!(lrep.dropped, rrep.dropped, "{name}: dropped");
        assert_eq!(
            lrep.state_counts(),
            rrep.state_counts(),
            "{name}: flow-state counts"
        );
        assert_eq!(live.cycles, replayed.cycles, "{name}: modeled cycles");
    }
}

#[test]
fn binfpe_is_bit_exact_on_a_mild_program() {
    let cfg = RunnerConfig::default();
    let name = "LU";
    let p = fpx_suite::find(name).expect(name);
    let base = runner::run_baseline(&p, &cfg);
    let live = runner::run_with_tool(&p, &cfg, &Tool::BinFpe, base);

    let rep = record_and_bind(&p, &cfg);
    let wd = hang_budget(base, cfg.hang_slowdown_limit);
    let replayed = rep.replay(BinFpe::new(), Some(wd));

    assert_eq!(live.hung, replayed.hung, "{name}: hang classification");
    if !live.hung {
        let lrep = live.detector_report.expect("live report");
        let rrep = replayed.tool.report();
        assert_eq!(lrep.messages, rrep.messages, "{name}: report lines");
        assert_eq!(lrep.counts.row(), rrep.counts.row(), "{name}: counts");
        assert_eq!(live.records, replayed.records, "{name}: channel records");
        assert_eq!(live.cycles, replayed.cycles, "{name}: modeled cycles");
    }
}

#[test]
fn one_recording_replays_many_configs() {
    // The headline use case: simulate once, replay N configurations.
    let cfg = RunnerConfig::default();
    let p = fpx_suite::find("GRAMSCHM").unwrap();
    let base = runner::run_baseline(&p, &cfg);
    let rep = record_and_bind(&p, &cfg);
    let wd = hang_budget(base, cfg.hang_slowdown_limit);
    let mut rows = Vec::new();
    for k in [0u32, 4, 16, 64] {
        let dc = DetectorConfig {
            freq_redn_factor: k,
            ..DetectorConfig::default()
        };
        let out = rep.replay(Detector::new(dc.clone()), Some(wd));
        let live = runner::run_with_tool(&p, &cfg, &Tool::Detector(dc), base);
        assert_eq!(live.cycles, out.cycles, "k={k}");
        assert_eq!(
            live.detector_report.unwrap().counts.row(),
            out.tool.report().counts.row(),
            "k={k}"
        );
        rows.push(out.cycles);
    }
    // Sampling must actually change the replayed cost profile.
    assert!(rows[0] > rows[3], "k=64 should be cheaper than k=0");
}

#[test]
fn replay_rejects_metadata_mismatch_even_when_checksum_matches() {
    // Regression for the checksum-only identity bug: a trace whose kernel
    // metadata carries the *correct* disassembly checksum but a tampered
    // register count simulates an FNV-1a collision between two kernels.
    // Binding must fail with a typed mismatch, never silently accept.
    let cfg = RunnerConfig::default();
    let p = fpx_suite::find("LU").expect("LU");
    let mut trace: Trace = record(&p.name, cfg.arch, cfg.opts.fast_math, |gpu| {
        p.prepare(&cfg.opts, &mut gpu.mem)
            .launches
            .into_iter()
            .map(|l| (l.kernel, l.cfg))
            .collect()
    })
    .expect("record");
    let mut gpu = fpx_sim::gpu::Gpu::new(cfg.arch);
    let kernels: Vec<Arc<_>> = p
        .prepare(&cfg.opts, &mut gpu.mem)
        .launches
        .into_iter()
        .map(|l| l.kernel)
        .collect();
    trace.kernels[0].num_regs += 1;
    match TraceReplayer::new(trace, &kernels) {
        Err(fpx_trace::TraceError::KernelMismatch { reason, .. }) => {
            assert!(reason.contains("register count"), "{reason}");
        }
        Ok(_) => panic!("replayer accepted a kernel with mismatched metadata"),
        Err(e) => panic!("wrong error: {e}"),
    }
}
