//! Shared run-once cache for the integration tests.
//!
//! Most tier-1 assertions drive the *same* program through the same tool
//! configuration (the Table 4 satellites re-detect programs the sweep
//! already covered; the §4.2 shape tests re-run baselines per
//! comparison). Each (program, tool, arch) combination is simulated once
//! per test binary and every later assertion reads the cached
//! `RunResult`, so no binary pays for a simulation twice.
//!
//! A record/replay variant of this harness (one `fpx-trace` recording
//! per program, every config replayed) was measured and rejected: the
//! recorder's per-visit register capture makes a single record+replay
//! pass *slower* than two live runs on this suite, and the traces of
//! exception-flood programs are allocation-heavy. Live sharing wins.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use fpx_sim::gpu::Arch;
use fpx_suite::expected::TABLE4;
use fpx_suite::runner::{self, hang_budget, RunResult, RunnerConfig, Tool};
use fpx_trace::{record, TraceReplayer};
use gpu_fpx::detector::{Detector, DetectorConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

fn cfg_for(arch: Arch) -> RunnerConfig {
    let mut cfg = RunnerConfig {
        arch,
        ..RunnerConfig::default()
    };
    cfg.opts.arch = arch;
    cfg
}

fn results() -> &'static Mutex<HashMap<String, Arc<RunResult>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<RunResult>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn baselines() -> &'static Mutex<HashMap<String, u64>> {
    static CACHE: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn cached_run(key: String, run: impl FnOnce() -> RunResult) -> Arc<RunResult> {
    if let Some(hit) = results().lock().unwrap().get(&key) {
        return Arc::clone(hit);
    }
    let r = Arc::new(run());
    results().lock().unwrap().insert(key, Arc::clone(&r));
    r
}

/// Baseline (uninstrumented) cycles, simulated once per binary.
pub fn baseline(name: &str) -> u64 {
    if let Some(&hit) = baselines().lock().unwrap().get(name) {
        return hit;
    }
    let p = fpx_suite::find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
    let b = runner::run_baseline(&p, &cfg_for(Arch::Ampere));
    baselines().lock().unwrap().insert(name.to_string(), b);
    b
}

/// Default-detector run with the hang budget anchored on the real
/// baseline (cached), for assertions where the hang verdict or the
/// slowdown matters.
pub fn detect(name: &str) -> Arc<RunResult> {
    cached_run(format!("detect/{name}"), || {
        let p = fpx_suite::find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
        runner::run_with_tool(
            &p,
            &cfg_for(Arch::Ampere),
            &Tool::Detector(DetectorConfig::default()),
            baseline(name),
        )
    })
}

/// Default-detector run through the runner's single pass — one
/// simulation per program, with the baseline taken from the instrumented
/// run and the real hang budget. Cached per (program, arch), apart from
/// [`detect`]'s cache.
pub fn detect_anchored(name: &str, arch: Arch) -> Arc<RunResult> {
    cached_run(format!("detect-anchored/{name}/{arch:?}"), || {
        let p = fpx_suite::find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
        runner::run(
            &p,
            &cfg_for(arch),
            &Tool::Detector(DetectorConfig::default()),
        )
        .1
    })
}

/// Detector run at invocation-sampling factor `k` (Algorithm 3's
/// freq-redn-factor), anchored on the real baseline, cached per
/// (program, k) — the Table 5 and Figure 6 assertions revisit the same
/// sampling points.
pub fn detect_k(name: &str, k: u32) -> Arc<RunResult> {
    cached_run(format!("detect-k/{name}/{k}"), || {
        let p = fpx_suite::find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
        runner::run_with_tool(
            &p,
            &cfg_for(Arch::Ampere),
            &Tool::Detector(DetectorConfig {
                freq_redn_factor: k,
                ..DetectorConfig::default()
            }),
            baseline(name),
        )
    })
}

/// Detector run with a non-default configuration (uncached — variant
/// configs are used once each).
pub fn detect_cfg(name: &str, dc: DetectorConfig) -> RunResult {
    let p = fpx_suite::find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
    runner::run_with_tool(
        &p,
        &cfg_for(Arch::Ampere),
        &Tool::Detector(dc),
        baseline(name),
    )
}

/// BinFPE run anchored on the real baseline, cached.
pub fn binfpe(name: &str) -> Arc<RunResult> {
    cached_run(format!("binfpe/{name}"), || {
        let p = fpx_suite::find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
        runner::run_with_tool(&p, &cfg_for(Arch::Ampere), &Tool::BinFpe, baseline(name))
    })
}

/// Tool-over-baseline slowdown of a cached run.
pub fn slowdown(name: &str, r: &RunResult) -> f64 {
    r.cycles as f64 / baseline(name).max(1) as f64
}

fn traces() -> &'static Mutex<HashMap<String, Arc<Vec<u8>>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Vec<u8>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Serialized `fpx-trace` recording of `name` under the default runner
/// config, recorded once per binary — a trace captures the execution,
/// not the tool, so every replayed detector configuration shares it.
pub fn trace_bytes(name: &str) -> Result<Arc<Vec<u8>>, String> {
    if let Some(hit) = traces().lock().unwrap().get(name) {
        return Ok(Arc::clone(hit));
    }
    let cfg = RunnerConfig::default();
    let p = fpx_suite::find(name).ok_or_else(|| format!("unknown program {name}"))?;
    let trace = record(name, cfg.arch, cfg.opts.fast_math, |gpu| {
        p.prepare(&cfg.opts, &mut gpu.mem)
            .launches
            .into_iter()
            .map(|l| (l.kernel, l.cfg))
            .collect()
    })
    .map_err(|e| format!("{name}: record failed: {e:?}"))?;
    let bytes = Arc::new(trace.to_bytes());
    traces()
        .lock()
        .unwrap()
        .insert(name.to_string(), Arc::clone(&bytes));
    Ok(bytes)
}

/// Record `name` (cached), round-trip through bytes, replay with `dc`,
/// and compare against a live run of the same configuration: identical
/// deduplicated record sets (report lines, Table 4 rows, occurrence
/// totals) and identical modeled cycles. Runs that trip the hang
/// watchdog need only agree on the hang verdict — the replay cut-off is
/// launch-grained, not warp-slice-grained (see `fpx_trace::replay`).
/// Returns an error string on mismatch so proptest callers report the
/// failing configuration.
pub fn replay_check(name: &str, dc: DetectorConfig) -> Result<(), String> {
    let cfg = cfg_for(Arch::Ampere);
    let p = fpx_suite::find(name).ok_or_else(|| format!("unknown program {name}"))?;
    let base = baseline(name);
    let live = runner::run_with_tool(&p, &cfg, &Tool::Detector(dc.clone()), base);

    let bytes = trace_bytes(name)?;

    let mut gpu = fpx_sim::gpu::Gpu::new(cfg.arch);
    let kernels: Vec<Arc<_>> = p
        .prepare(&cfg.opts, &mut gpu.mem)
        .launches
        .into_iter()
        .map(|l| l.kernel)
        .collect();
    let rep = TraceReplayer::from_bytes(&bytes, &kernels)
        .map_err(|e| format!("{name}: bind failed: {e}"))?;

    let wd = hang_budget(base, cfg.hang_slowdown_limit);
    let out = rep.replay(Detector::new(dc.clone()), Some(wd));

    if live.hung != out.hung {
        return Err(format!(
            "{name} {dc:?}: hang verdict live={} replay={}",
            live.hung, out.hung
        ));
    }
    if live.hung {
        return Ok(());
    }
    let lrep = live.detector_report.expect("live detector report");
    let rrep = out.tool.report();
    if lrep.messages != rrep.messages {
        return Err(format!("{name} {dc:?}: report lines differ"));
    }
    if lrep.counts.row() != rrep.counts.row() || lrep.counts.row16() != rrep.counts.row16() {
        return Err(format!("{name} {dc:?}: exception counts differ"));
    }
    if lrep.occurrences != rrep.occurrences {
        return Err(format!(
            "{name} {dc:?}: occurrences live={} replay={}",
            lrep.occurrences, rrep.occurrences
        ));
    }
    if live.records != out.records {
        return Err(format!(
            "{name} {dc:?}: records live={} replay={}",
            live.records, out.records
        ));
    }
    if live.cycles != out.cycles {
        return Err(format!(
            "{name} {dc:?}: cycles live={} replay={}",
            live.cycles, out.cycles
        ));
    }
    Ok(())
}

/// One slice of the deterministic replay-equivalence sweep: every
/// exception-bearing Table 4 program in `chunk` (of `of` interleaved
/// chunks) replays bit-exact under the paper's default detector
/// configuration.
pub fn assert_replay_chunk(chunk: usize, of: usize) {
    let mut failures = Vec::new();
    for (i, e) in TABLE4.iter().enumerate() {
        if i % of != chunk {
            continue;
        }
        if let Err(msg) = replay_check(e.name, DetectorConfig::default()) {
            failures.push(msg);
        }
    }
    assert!(
        failures.is_empty(),
        "replay mismatches:\n{}",
        failures.join("\n")
    );
}

/// Table 4 sweep over one slice of the registry: every program in
/// `chunk` (of `of` interleaved chunks) must reproduce its Table 4 row
/// exactly — the expected per-format site counts for the 26
/// exception-bearing programs, all-zero rows everywhere else. Each
/// chunk cross-checks its detected-exception count against the number
/// of `expected::` rows in its slice, so together with the table-size
/// assertion in `table4_c` the three chunks pin the paper's 26.
pub fn assert_table4_chunk(chunk: usize, of: usize) {
    let mut exception_programs = 0;
    let mut expected_in_chunk = 0;
    for (i, p) in fpx_suite::registry().iter().enumerate() {
        if i % of != chunk {
            continue;
        }
        let want = fpx_suite::expected::expected_row(&p.name);
        expected_in_chunk += usize::from(want.is_some());
        let r = detect_anchored(&p.name, Arch::Ampere);
        let report = r.detector_report.as_ref().expect("detector report");
        let got = report.counts.row();
        assert_eq!(
            got,
            want.unwrap_or([0; 8]),
            "{}: detector row {:?} != Table 4 row {:?}",
            p.name,
            got,
            want
        );
        assert!(!r.hung, "{}: detector run must terminate", p.name);
        if report.counts.any() {
            exception_programs += 1;
        }
    }
    assert_eq!(
        exception_programs, expected_in_chunk,
        "chunk {chunk}/{of}: every expected:: row must come from a detected exception"
    );
}
