//! `sweep`: in-process live runs through `fpx_serve::job::run_rendered`,
//! the function behind `gpu-fpx suite run`, the table and figure
//! binaries, and every serve miss. The interpreter and the live
//! hook/channel/drain path do nearly all the work.

use crate::jobs;
use crate::live::{self, Counts, Rendered};
use crate::phase::{self, Done, Phase};
use crate::report::{peak_rss_mib, Digest, Report};
use crate::spans::{Layers, Tracer, MIN_COVERAGE};
use crate::{check, stats, Ctx, Setups};
use fpx_obs::Obs;
use fpx_prof::Prof;
use fpx_serve::job::JobSpec;
use fpx_suite::runner::RunnerConfig;
use std::time::Instant;

/// Jobs run once with telemetry enabled and once disabled for
/// `telemetry.enabled_ratio`.
const TELEMETRY_JOBS: usize = 6;

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let setup = || jobs::sweep_jobs(&jobs::census(), ctx.seed);
    let mut setups = Setups::default();
    let jobs = setups.time(setup);
    rep.info.push(format!(
        "{} jobs per pass: {}",
        jobs.len(),
        jobs.iter()
            .step_by(jobs::SWEEP_TOOLS.len())
            .map(|j| j.program.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let rc = RunnerConfig {
        threads: ctx.nproc,
        ..RunnerConfig::default()
    };
    let untraced = timed(
        &jobs,
        ctx.seconds,
        |_, spec| live::untraced(spec, &rc),
        || {
            if setups.due() {
                setups.time(setup);
            }
        },
    );
    let digest = outputs(ctx, &mut rep, &jobs, &untraced, "untraced");
    rep.digest = digest;

    if !ctx.trace {
        rep.metric("setup_s", setups.median(), "s");
        // A job of a later pass repeats a key, ⟨program, tool⟩, that
        // already ran: a hit, though nothing here reuses its result.
        untraced.report_e2e(
            &mut rep,
            &untraced.ok_ms(Some(true)),
            &untraced.ok_ms(Some(false)),
        );
        rep.metric("peak_rss_mb", peak_rss_mib("self").unwrap_or(0.0), "MiB");
        rep.metric("modeled_slowdown_geomean", slowdown(&untraced), "x");
        return rep;
    }

    // The traced pass: the same jobs, layer by layer.
    let mut tr = Tracer::new(Instant::now());
    let mut counts: Vec<Counts> = vec![Counts::default(); jobs.len()];
    let mut next_job = 0u64;
    let traced = timed(
        &jobs,
        0.0,
        |i, spec| {
            tr.set_job(next_job);
            next_job += 1;
            let (r, c) = live::traced(spec, &rc, &mut tr)?;
            counts[i] = c;
            Ok(r)
        },
        || {},
    );
    let traced_digest = outputs(ctx, &mut rep, &jobs, &traced, "traced");
    rep.gate(
        "traced render equals run_rendered",
        traced_digest == digest,
        format!("{traced_digest:016x} vs {digest:016x}"),
    );
    let mut total = Counts::default();
    for c in &counts {
        total.add(c);
    }
    rep.gate(
        "plain and instrumented runs execute the same warp instructions",
        total.plain_warp_instrs == total.tool_warp_instrs,
        format!("{} vs {}", total.plain_warp_instrs, total.tool_warp_instrs),
    );
    let records_untraced: u64 = untraced
        .first_pass()
        .iter()
        .filter_map(|(_, o)| o.as_ref().ok().map(|r| r.records))
        .sum();
    rep.gate(
        "traced channel records equal untraced",
        records_untraced == total.records,
        format!("{} vs {records_untraced}", total.records),
    );
    ctx.write_spans("sweep", &tr);
    rep.attempted = (untraced.done.len() + traced.done.len()) as u64;
    rep.failed = untraced.failed() + traced.failed();

    let layers = Layers::from_spans(tr.spans());
    rep.gate(
        "spans cover at least 95% of job time",
        layers.coverage() >= MIN_COVERAGE,
        format!("{:.4}", layers.coverage()),
    );
    let n = jobs.len() as f64;
    live_layers(&mut rep, &layers, &counts, &jobs, n);
    rep.metric(
        "telemetry.enabled_ratio",
        telemetry_ratio(&jobs, &rc),
        "ratio",
    );
    idle_trace_layers(&mut rep);
    idle_serve_layers(&mut rep);
    rep.metric("coverage_ratio", layers.coverage(), "ratio");
    rep.metric(
        "tracing_overhead_ratio",
        untraced.first_pass_s / traced.first_pass_s.max(1e-9),
        "ratio",
    );
    rep
}

/// Run the sweep job list for about `min_s` seconds (one pass when
/// zero), with `between` after every job.
fn timed(
    jobs: &[JobSpec],
    min_s: f64,
    mut f: impl FnMut(usize, &JobSpec) -> Result<Rendered, String>,
    between: impl FnMut(),
) -> Phase<Rendered> {
    phase::run(
        jobs.len(),
        min_s,
        |_| (0..jobs.len()).collect(),
        |i, _| {
            let r = f(i, &jobs[i])?;
            check::rendered(&jobs[i], &r.text)?;
            Ok(r)
        },
        between,
    )
}

/// Gate the phase's outputs and return the digest of its first pass.
/// Later passes must render what the first pass rendered, compared in
/// the schedule-free form of [`live::canonical`].
fn outputs(ctx: &Ctx, rep: &mut Report, jobs: &[JobSpec], p: &Phase<Rendered>, label: &str) -> u64 {
    let first = p.first_pass();
    let mut d = Digest::default();
    let mut texts = vec![None; jobs.len()];
    for (i, out) in &first {
        if let Ok(r) = out {
            d.bytes(jobs[*i].program.as_bytes())
                .bytes(jobs[*i].fingerprint().as_bytes())
                .bytes(r.canonical.as_bytes())
                .u64(r.base_cycles)
                .u64(r.cycles);
            texts[*i] = Some(&r.canonical);
        }
    }
    let differ: Vec<&Done<Rendered>> = p
        .done
        .iter()
        .filter(|x| x.pass > 0)
        .filter(|x| matches!(&x.out, Ok(r) if texts[x.idx] != Some(&r.canonical)))
        .collect();
    let failed = p.failed();
    rep.gate(
        format!("{label} outputs match the known answers"),
        failed == 0,
        format!("{failed} of {} jobs failed or disagreed", p.done.len()),
    );
    let detail = match differ.first() {
        Some(x) => {
            let j = &jobs[x.idx];
            // Keep both renderings for diffing.
            let stem = ctx
                .work
                .join(format!("differ-{}-{}", j.program, j.tool.label()));
            if let (Some(first), Ok(again)) = (texts[x.idx], &x.out) {
                let _ = std::fs::write(stem.with_extension("first.txt"), first);
                let _ = std::fs::write(stem.with_extension("again.txt"), &again.canonical);
            }
            format!(
                "{} repeats differ, first {} under {} (both renderings in {})",
                differ.len(),
                j.program,
                j.tool.label(),
                ctx.work.display()
            )
        }
        None => "0 repeats differ".to_string(),
    };
    rep.gate(
        format!("{label} repeats render the same report"),
        differ.is_empty(),
        detail,
    );
    d.0
}

/// Geomean of tool over baseline cycles across the first pass.
fn slowdown(p: &Phase<Rendered>) -> f64 {
    let xs: Vec<f64> = p
        .first_pass()
        .iter()
        .filter_map(|(_, o)| o.as_ref().ok())
        .map(|r| r.cycles as f64 / r.base_cycles.max(1) as f64)
        .collect();
    stats::geomean(&xs).unwrap_or(0.0)
}

/// The per-layer metrics of the live path, from one traced pass over
/// `jobs` (`n` jobs) and each job's work counts.
pub fn live_layers(rep: &mut Report, layers: &Layers, counts: &[Counts], jobs: &[JobSpec], n: f64) {
    let mut total = Counts::default();
    for c in counts {
        total.add(c);
    }
    let plain_s = layers.self_s("sim.launch");
    rep.metric(
        "suite.prepare_ms",
        layers.self_s("suite.prepare") * 1e3 / n,
        "ms",
    );
    rep.metric("sim.plain_s", plain_s, "s");
    rep.metric(
        "sim.mwinstr_per_s",
        total.plain_warp_instrs as f64 / plain_s.max(1e-9) / 1e6,
        "Mwinstr/s",
    );
    rep.metric("sim.warp_instrs", total.plain_warp_instrs as f64, "count");
    for tool in jobs::SWEEP_TOOLS {
        let t = tool.label();
        let launch = layers.self_s_tagged("nvbit.launch", t);
        let plain = layers.self_s_tagged("sim.launch", t);
        rep.metric(format!("nvbit.launch_s.{t}"), launch, "s");
        rep.metric(
            format!("nvbit.overhead_ratio.{t}"),
            if plain > 0.0 { launch / plain } else { 0.0 },
            "ratio",
        );
    }
    rep.metric(
        "nvbit.context_ms",
        (layers.self_s("nvbit.new") + layers.self_s("nvbit.terminate")) * 1e3 / n,
        "ms",
    );
    for tool in jobs::SWEEP_TOOLS {
        let records: u64 = jobs
            .iter()
            .zip(counts)
            .filter(|(j, _)| j.tool == tool)
            .map(|(_, c)| c.records)
            .sum();
        rep.metric(
            format!("nvbit.records.{}", tool.label()),
            records as f64,
            "count",
        );
    }
    rep.metric("nvbit.injected_calls", total.injected_calls as f64, "count");
    rep.metric(
        "serve.render_ms",
        layers.self_s("serve.render") * 1e3 / n,
        "ms",
    );
    rep.metric(
        "tools.gt_hit_ratio",
        total.gt_hits as f64 / total.gt_probes.max(1) as f64,
        "ratio",
    );
    rep.metric("tools.channel_pushes", total.channel_pushes as f64, "count");
    rep.idle("shadow.comparisons", "count");
    rep.idle("coach.timelines", "count");
}

/// Enabled over disabled telemetry (`Obs` and `Prof`, as serve workers
/// run with them) on the first [`TELEMETRY_JOBS`] jobs, alternating
/// which runs first.
pub fn telemetry_ratio(jobs: &[JobSpec], rc: &RunnerConfig) -> f64 {
    let on = RunnerConfig {
        obs: Obs::with_sms(8),
        prof: Prof::enabled(),
        ..rc.clone()
    };
    let (mut t_on, mut t_off) = (0.0, 0.0);
    for (i, spec) in jobs.iter().take(TELEMETRY_JOBS).enumerate() {
        let time = |c: &RunnerConfig| {
            let t = Instant::now();
            let _ = live::untraced(spec, c);
            t.elapsed().as_secs_f64()
        };
        if i % 2 == 0 {
            t_on += time(&on);
            t_off += time(rc);
        } else {
            t_off += time(rc);
            t_on += time(&on);
        }
    }
    t_on / t_off.max(1e-9)
}

pub fn idle_trace_layers(rep: &mut Report) {
    for (name, unit) in [
        ("trace.record_s", "s"),
        ("trace.encode_mb_per_s", "MB/s"),
        ("trace.mb", "MB"),
        ("trace.read_ms", "ms"),
        ("trace.decode_s", "s"),
        ("trace.decode_mb_per_s", "MB/s"),
        ("trace.bind_ms", "ms"),
    ] {
        rep.idle(name, unit);
    }
    for t in crate::replay::TOOLS {
        rep.idle(format!("trace.replay_s.{t}"), "s");
    }
    rep.idle("trace.mvisits_per_s", "Mvisits/s");
}

fn idle_serve_layers(rep: &mut Report) {
    for (name, unit) in [
        ("cache.lookup_us", "us"),
        ("cache.insert_us", "us"),
        ("serve.engine_hit_us", "us"),
        ("serve.metas_ms", "ms"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.rejected", "count"),
        ("serve.cpu_ms_per_job", "ms"),
        ("http.connect_ms", "ms"),
        ("http.head_ms", "ms"),
        ("http.overhead_us", "us"),
    ] {
        rep.idle(name, unit);
    }
}
