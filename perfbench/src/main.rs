//! perfbench: the gpu-fpx workspace benchmark.
//!
//! `perfbench --workload {sweep,replay,serve} --seed N --seconds S
//! --trace {0,1} --gpu-fpx PATH --work-dir DIR` runs one workload and
//! prints its metrics; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured with tracing off; with `--trace 1` they
//! are the per-layer ones, from a traced run. `run.py` builds the
//! workspace CLI and this package, then calls it. The workloads and
//! metrics are described in README.md.

mod check;
mod jobs;
mod live;
mod phase;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;

use report::{Host, Report};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per `serve` run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Seconds between the set-ups repeated during a timed phase.
pub const SETUP_EVERY_S: f64 = 4.0;

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "jobs_per_s",
    "job_p50_ms",
    "job_tail_ms",
    "hit_p50_ms",
    "hit_tail_ms",
    "miss_p50_ms",
    "miss_tail_ms",
    "peak_rss_mb",
    "modeled_slowdown_geomean",
];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 46] = [
    "suite.prepare_ms",
    "sim.plain_s",
    "sim.mwinstr_per_s",
    "sim.warp_instrs",
    "nvbit.launch_s.detector",
    "nvbit.launch_s.analyzer",
    "nvbit.launch_s.binfpe",
    "nvbit.overhead_ratio.detector",
    "nvbit.overhead_ratio.analyzer",
    "nvbit.overhead_ratio.binfpe",
    "nvbit.context_ms",
    "nvbit.records.detector",
    "nvbit.records.analyzer",
    "nvbit.records.binfpe",
    "nvbit.injected_calls",
    "serve.render_ms",
    "telemetry.enabled_ratio",
    "trace.record_s",
    "trace.encode_mb_per_s",
    "trace.mb",
    "trace.read_ms",
    "trace.decode_s",
    "trace.decode_mb_per_s",
    "trace.bind_ms",
    "trace.replay_s.detector",
    "trace.replay_s.analyzer",
    "trace.replay_s.binfpe",
    "trace.replay_s.shadow",
    "trace.replay_s.coach",
    "trace.mvisits_per_s",
    "tools.gt_hit_ratio",
    "tools.channel_pushes",
    "shadow.comparisons",
    "coach.timelines",
    "cache.lookup_us",
    "cache.insert_us",
    "serve.engine_hit_us",
    "serve.metas_ms",
    "serve.cache_hit_ratio",
    "serve.rejected",
    "serve.cpu_ms_per_job",
    "http.connect_ms",
    "http.head_ms",
    "http.overhead_us",
    "coverage_ratio",
    "tracing_overhead_ratio",
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// The `gpu-fpx` binary the `serve` workload starts.
    pub gpu_fpx: PathBuf,
    /// Scratch space for trace files, logs and span dumps.
    pub work: PathBuf,
}

/// The set-up times of a `sweep` or `replay` run. The set-up runs once
/// before the timed phase and again every [`SETUP_EVERY_S`] during it,
/// between jobs and off the phase's clock. A shared host's speed can
/// shift by half for seconds at a time, so a median of set-ups taken back
/// to back reads whichever speed those seconds had; spread over the run,
/// it samples the host as the timed metrics do.
pub struct Setups {
    times: Vec<f64>,
    last: Instant,
}

impl Default for Setups {
    fn default() -> Setups {
        Setups {
            times: Vec::new(),
            last: Instant::now(),
        }
    }
}

impl Setups {
    /// Run and time one set-up.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.times.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
        r
    }

    /// Whether the next set-up of the timed phase is due.
    pub fn due(&self) -> bool {
        self.last.elapsed().as_secs_f64() >= SETUP_EVERY_S
    }

    /// The median set-up time.
    pub fn median(&self) -> f64 {
        stats::median(&self.times).unwrap_or(0.0)
    }
}

impl Ctx {
    /// Write a traced run's spans, once, at the end.
    pub fn write_spans(&self, workload: &str, tr: &spans::Tracer) {
        let path = self
            .work
            .join(format!("spans-{workload}-seed{}.jsonl", self.seed));
        if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
            eprintln!("perfbench: {}: {e}", path.display());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    gpu_fpx: PathBuf,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        gpu_fpx: PathBuf::from("target/release/gpu-fpx"),
        work: PathBuf::from("target/perfbench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--gpu-fpx" => a.gpu_fpx = PathBuf::from(val()?),
            "--work-dir" => a.work = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !["sweep", "replay", "serve"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be sweep, replay or serve, not {:?}",
            a.workload
        ));
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.work) {
        eprintln!("perfbench: {}: {e}", a.work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        nproc: report::nproc(),
        gpu_fpx: a.gpu_fpx,
        work: a.work,
    };
    let mut rep = match a.workload.as_str() {
        "sweep" => sweep::run(&ctx),
        "replay" => replay::run(&ctx),
        _ => serve::run(&ctx),
    };
    check_metric_names(&mut rep, ctx.trace);
    let host = Host::probe(Path::new("."));
    rep.print(&host, &a.workload, ctx.seed, ctx.trace);
    if !rep.correct() {
        std::process::exit(1);
    }
}

/// Gate: the run reports exactly the metrics its kind promises.
fn check_metric_names(rep: &mut Report, trace: bool) {
    let want: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<&str> = rep.metrics.iter().map(|m| m.name.as_str()).collect();
    got.sort_unstable();
    let mut w = want.to_vec();
    w.sort_unstable();
    let ok = got == w;
    let detail = if ok {
        String::new()
    } else {
        let missing: Vec<&str> = w.iter().filter(|n| !got.contains(n)).copied().collect();
        let extra: Vec<&str> = got.iter().filter(|n| !w.contains(n)).copied().collect();
        format!("missing {missing:?}, unexpected {extra:?}")
    };
    rep.gate("every promised metric is reported once", ok, detail);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names in `BENCHMARK.json` at the repository root.
    fn declared(section: &str) -> Vec<String> {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the package");
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
        assert_eq!(declared("workloads"), ["sweep", "replay"]);
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&[
            "--workload",
            "replay",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("replay", 7, 3.0, true)
        );
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--workload", "sweep", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "sweep", "--seed"])).is_err());
    }
}
