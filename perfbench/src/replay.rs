//! `replay`: the record-once, analyse-many flow of `figure6 --replay`
//! and `trace replay`. Set-up records each sampled Table-4 program's
//! trace to a file; each job reads one file, decodes it, binds it to the
//! rebuilt kernels, and replays it under the whole analysis matrix. No
//! interpretation happens in the timed phase, which makes this the
//! control workload for interpreter changes.

use crate::jobs::{self, FIGURE6_K, KNOWN_ANSWER};
use crate::phase::{self, Phase};
use crate::report::{peak_rss_mib, Digest, Report};
use crate::spans::{Layers, Tracer, MIN_COVERAGE};
use crate::{check, stats, Ctx, Setups};
use fpx_binfpe::BinFpe;
use fpx_coach::{Coach, CoachConfig};
use fpx_compiler::CompileOpts;
use fpx_shadow::{Shadow, ShadowConfig};
use fpx_sim::gpu::{Arch, Gpu};
use fpx_suite::runner::RunnerConfig;
use fpx_trace::{Trace, TraceReplayer};
use gpu_fpx::analyzer::{Analyzer, AnalyzerConfig};
use gpu_fpx::detector::{Detector, DetectorConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The tools of the analysis matrix, as span tags.
pub const TOOLS: [&str; 5] = ["detector", "analyzer", "binfpe", "shadow", "coach"];

/// GRAMSCHM's known shadow findings and coach timelines.
const KNOWN_FINDINGS: usize = 64;
const KNOWN_TIMELINES: usize = 64;

struct Recorded {
    path: PathBuf,
}

#[derive(Default)]
struct Recording {
    record_s: f64,
    encode_s: f64,
    bytes: u64,
    /// Record, encode and write time of each program, in ms.
    ms: Vec<f64>,
}

/// Work counts of one replay job; all repeat exactly.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    read_bytes: u64,
    visits: u64,
    channel_pushes: u64,
    gt_hits: u64,
    gt_probes: u64,
    comparisons: u64,
    timelines: u64,
}

struct Out {
    summary: String,
    slowdowns: Vec<f64>,
    counts: Counts,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let mut setups = Setups::default();
    let (files, rec) = match setups.time(|| record(ctx, "replay")) {
        Ok(x) => x,
        Err(e) => {
            rep.gate("set-up records every trace", false, e);
            return rep;
        }
    };
    let mut record_ms = rec.ms.clone();
    rep.info.push(format!(
        "{} traces, {:.2} MB: {}",
        files.len(),
        rec.bytes as f64 / 1e6,
        jobs::replay_programs(&jobs::census()).join(", ")
    ));

    let mut off = Tracer::disabled();
    let mut setup_err = None;
    // Repeated set-ups write their own files: the jobs read the first's.
    let untraced = timed(ctx, &files, ctx.seconds, &mut off, || {
        if setups.due() {
            match setups.time(|| record(ctx, "replay-again")) {
                Ok((_, r)) => record_ms.extend_from_slice(&r.ms),
                Err(e) => setup_err = Some(e),
            }
        }
    });
    if let Some(e) = setup_err {
        rep.gate("set-up records every trace", false, e);
    }
    let digest = outputs(&mut rep, &untraced, "untraced");
    rep.digest = digest;
    if !ctx.trace {
        rep.metric("setup_s", setups.median(), "s");
        // Every replay job starts from a stored trace (a hit); recording
        // a trace is the simulation a miss pays.
        untraced.report_e2e(&mut rep, &untraced.ok_ms(None), &record_ms);
        rep.metric("peak_rss_mb", peak_rss_mib("self").unwrap_or(0.0), "MiB");
        let xs: Vec<f64> = untraced
            .first_pass()
            .iter()
            .filter_map(|(_, o)| o.as_ref().ok())
            .flat_map(|o| o.slowdowns.iter().copied())
            .collect();
        rep.metric(
            "modeled_slowdown_geomean",
            stats::geomean(&xs).unwrap_or(0.0),
            "x",
        );
        return rep;
    }

    let mut tr = Tracer::new(Instant::now());
    let traced = timed(ctx, &files, 0.0, &mut tr, || {});
    let traced_digest = outputs(&mut rep, &traced, "traced");
    rep.gate(
        "traced replays equal untraced",
        traced_digest == digest,
        format!("{traced_digest:016x} vs {digest:016x}"),
    );
    ctx.write_spans("replay", &tr);
    rep.attempted = (untraced.done.len() + traced.done.len()) as u64;
    rep.failed = untraced.failed() + traced.failed();
    let layers = Layers::from_spans(tr.spans());
    rep.gate(
        "spans cover at least 95% of job time",
        layers.coverage() >= MIN_COVERAGE,
        format!("{:.4}", layers.coverage()),
    );
    let mut c = Counts::default();
    for (_, o) in traced.first_pass() {
        if let Ok(o) = o {
            let x = o.counts;
            c.read_bytes += x.read_bytes;
            c.visits += x.visits;
            c.channel_pushes += x.channel_pushes;
            c.gt_hits += x.gt_hits;
            c.gt_probes += x.gt_probes;
            c.comparisons += x.comparisons;
            c.timelines += x.timelines;
        }
    }
    let n = traced.done.len().max(1) as f64;
    rep.metric(
        "suite.prepare_ms",
        layers.self_s("suite.prepare") * 1e3 / n,
        "ms",
    );
    for (name, unit) in [
        ("sim.plain_s", "s"),
        ("sim.mwinstr_per_s", "Mwinstr/s"),
        ("sim.warp_instrs", "count"),
    ] {
        rep.idle(name, unit);
    }
    for t in jobs::SWEEP_TOOLS {
        rep.idle(format!("nvbit.launch_s.{}", t.label()), "s");
        rep.idle(format!("nvbit.overhead_ratio.{}", t.label()), "ratio");
        rep.idle(format!("nvbit.records.{}", t.label()), "count");
    }
    rep.idle("nvbit.context_ms", "ms");
    rep.idle("nvbit.injected_calls", "count");
    rep.idle("serve.render_ms", "ms");
    rep.idle("telemetry.enabled_ratio", "ratio");
    rep.metric("trace.record_s", rec.record_s, "s");
    rep.metric(
        "trace.encode_mb_per_s",
        rec.bytes as f64 / rec.encode_s.max(1e-9) / 1e6,
        "MB/s",
    );
    rep.metric("trace.mb", rec.bytes as f64 / 1e6, "MB");
    let decode_s = layers.self_s("trace.decode");
    rep.metric("trace.read_ms", layers.self_s("trace.read") * 1e3 / n, "ms");
    rep.metric("trace.decode_s", decode_s, "s");
    rep.metric(
        "trace.decode_mb_per_s",
        c.read_bytes as f64 / decode_s.max(1e-9) / 1e6,
        "MB/s",
    );
    let bind =
        layers.self_s("trace.bind") + layers.self_s("suite.prepare") + layers.self_s("suite.find");
    rep.metric("trace.bind_ms", bind * 1e3 / n, "ms");
    for t in TOOLS {
        rep.metric(
            format!("trace.replay_s.{t}"),
            layers.self_s_tagged("trace.replay", t),
            "s",
        );
    }
    rep.metric(
        "trace.mvisits_per_s",
        c.visits as f64 / layers.self_s("trace.replay").max(1e-9) / 1e6,
        "Mvisits/s",
    );
    rep.metric(
        "tools.gt_hit_ratio",
        c.gt_hits as f64 / c.gt_probes.max(1) as f64,
        "ratio",
    );
    rep.metric("tools.channel_pushes", c.channel_pushes as f64, "count");
    rep.metric("shadow.comparisons", c.comparisons as f64, "count");
    rep.metric("coach.timelines", c.timelines as f64, "count");
    crate::serve::probe_layers(ctx, &mut rep);
    rep.metric("coverage_ratio", layers.coverage(), "ratio");
    rep.metric(
        "tracing_overhead_ratio",
        untraced.first_pass_s / traced.first_pass_s.max(1e-9),
        "ratio",
    );
    rep
}

/// Record every sampled program's trace and write it to its file in the
/// work directory's `subdir`.
fn record(ctx: &Ctx, subdir: &str) -> Result<(Vec<Recorded>, Recording), String> {
    let programs = jobs::replay_programs(&jobs::census());
    let dir = ctx.work.join(subdir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = Vec::new();
    let mut r = Recording::default();
    let opts = CompileOpts::default();
    for (i, name) in programs.iter().enumerate() {
        let p = fpx_suite::find(name).ok_or_else(|| format!("unknown program {name:?}"))?;
        let start = Instant::now();
        let t = Instant::now();
        let trace = fpx_trace::record(&p.name, Arch::Ampere, false, |gpu| {
            p.prepare(&opts, &mut gpu.mem)
                .launches
                .into_iter()
                .map(|l| (l.kernel, l.cfg))
                .collect()
        })
        .map_err(|e| format!("{name}: {e:?}"))?;
        r.record_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bytes = trace.to_bytes();
        r.encode_s += t.elapsed().as_secs_f64();
        r.bytes += bytes.len() as u64;
        let path = dir.join(format!("{i}.fpxtrace"));
        std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(Recorded { path });
        r.ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok((files, r))
}

/// Replay every file for about `min_s` seconds (one pass when zero),
/// each pass in its own seeded order, with `between` after every job.
fn timed(
    ctx: &Ctx,
    files: &[Recorded],
    min_s: f64,
    tr: &mut Tracer,
    between: impl FnMut(),
) -> Phase<Out> {
    let mut next_job = 0u64;
    phase::run(
        files.len(),
        min_s,
        |pass| jobs::replay_order(files.len(), ctx.seed, pass),
        |i, _| {
            tr.set_job(next_job);
            next_job += 1;
            let id = tr.open("job", "");
            let out = job(&files[i], tr);
            tr.close(id);
            out
        },
        between,
    )
}

fn job(file: &Recorded, tr: &mut Tracer) -> Result<Out, String> {
    let where_ = file.path.display();
    let bytes = tr
        .time("trace.read", "", || std::fs::read(&file.path))
        .map_err(|e| format!("{where_}: {e}"))?;
    let trace = tr
        .time("trace.decode", "", || Trace::from_bytes(&bytes))
        .map_err(|e| format!("{where_}: {e}"))?;
    let mut c = Counts {
        read_bytes: bytes.len() as u64,
        ..Counts::default()
    };
    drop(bytes);
    let program = tr
        .time("suite.find", "", || fpx_suite::find(&trace.program))
        .ok_or_else(|| format!("{where_}: unknown program {:?}", trace.program))?;
    let opts = CompileOpts {
        fast_math: trace.fast_math,
        arch: trace.arch,
        ..CompileOpts::default()
    };
    let mut gpu = Gpu::new(trace.arch);
    let kernels: Vec<_> = tr
        .time("suite.prepare", "", || program.prepare(&opts, &mut gpu.mem))
        .launches
        .into_iter()
        .map(|l| l.kernel)
        .collect();
    let base: u64 = trace.launches.iter().map(|l| l.plain_cycles).sum();
    let rep = tr
        .time("trace.bind", "", || TraceReplayer::new(trace, &kernels))
        .map_err(|e| format!("{where_}: {e}"))?;
    let wd = Some(fpx_trace::hang_budget(
        base,
        RunnerConfig::default().hang_slowdown_limit,
    ));
    let name = program.name.as_str();
    let mut s = format!("{name}: baseline {base} cycles\n");
    let mut slowdowns = Vec::new();
    let mut step = |label: String, cycles: u64, pushes: u64, visits: u64, line: String| {
        writeln!(s, "{label}: {cycles} cycles, {pushes} pushes, {line}").expect("write to String");
        slowdowns.push(cycles as f64 / base.max(1) as f64);
        c.channel_pushes += pushes;
        c.visits += visits;
    };
    for k in FIGURE6_K {
        let tool = Detector::new(DetectorConfig {
            freq_redn_factor: k,
            ..DetectorConfig::default()
        });
        let out = tr.time("trace.replay", "detector", || rep.replay(tool, wd));
        let row = out.tool.report().counts.row();
        if k == 0 {
            check::table4_row(name, row)?;
        }
        if let Some((hits, misses)) = out.tool.gt_stats() {
            c.gt_hits += hits;
            c.gt_probes += hits + misses;
        }
        let line = format!("row {row:?}");
        step(
            format!("detector k={k}"),
            out.cycles,
            out.channel_pushes,
            out.visits_replayed,
            line,
        );
    }
    let out = tr.time("trace.replay", "analyzer", || {
        rep.replay(Analyzer::new(AnalyzerConfig::default()), wd)
    });
    let line = format!("flow states {:?}", out.tool.report().state_counts());
    step(
        "analyzer".into(),
        out.cycles,
        out.channel_pushes,
        out.visits_replayed,
        line,
    );
    let out = tr.time("trace.replay", "binfpe", || rep.replay(BinFpe::new(), wd));
    let line = format!("row {:?}", out.tool.report().counts.row());
    step(
        "binfpe".into(),
        out.cycles,
        out.channel_pushes,
        out.visits_replayed,
        line,
    );
    let out = tr.time("trace.replay", "shadow", || {
        rep.replay(Shadow::new(ShadowConfig::default()), wd)
    });
    let (findings, comparisons) = (
        out.tool.report().findings.len(),
        out.tool.report().comparisons,
    );
    let line = format!("{findings} findings / {comparisons} comparisons");
    step(
        "shadow".into(),
        out.cycles,
        out.channel_pushes,
        out.visits_replayed,
        line,
    );
    let out = tr.time("trace.replay", "coach", || {
        rep.replay(Coach::new(CoachConfig::default()), wd)
    });
    let timelines = out.tool.report().timelines.len();
    let line = format!("{timelines} timelines");
    step(
        "coach".into(),
        out.cycles,
        out.channel_pushes,
        out.visits_replayed,
        line,
    );
    c.comparisons = comparisons;
    c.timelines = timelines as u64;
    if name == KNOWN_ANSWER && (findings != KNOWN_FINDINGS || timelines != KNOWN_TIMELINES) {
        return Err(format!(
            "{name}: {findings} shadow findings and {timelines} coach timelines, \
             expected {KNOWN_FINDINGS} and {KNOWN_TIMELINES}"
        ));
    }
    Ok(Out {
        summary: s,
        slowdowns,
        counts: c,
    })
}

/// Gate the phase's outputs and return the digest of its first pass.
fn outputs(rep: &mut Report, p: &Phase<Out>, label: &str) -> u64 {
    let mut d = Digest::default();
    let mut first: Vec<Option<&str>> = vec![None; p.first_pass().len()];
    for (i, o) in p.first_pass() {
        if let Ok(o) = o {
            d.bytes(o.summary.as_bytes());
            first[i] = Some(&o.summary);
        }
    }
    let repeats_differ = p
        .done
        .iter()
        .filter(|x| x.pass > 0)
        .filter(|x| matches!(&x.out, Ok(o) if first[x.idx] != Some(o.summary.as_str())))
        .count();
    let failed = p.failed();
    rep.gate(
        format!("{label} replays match the known answers"),
        failed == 0,
        format!("{failed} of {} jobs failed or disagreed", p.done.len()),
    );
    rep.gate(
        format!("{label} repeated replays are identical"),
        repeats_differ == 0,
        format!("{repeats_differ} repeats differ"),
    );
    d.0
}
