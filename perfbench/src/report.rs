//! A run's result: correctness gates, metrics, output digest, and the
//! lines that print them.

use crate::stats::{self, Tail};
use std::fmt::Write as _;
use std::path::Path;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Percentile and sample count of a tail metric.
    pub tail: Option<Tail>,
    /// Why the value is what it is when the workload does not exercise
    /// the layer.
    pub note: &'static str,
}

pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    pub metrics: Vec<Metric>,
    /// Digest of every rendered output and modeled cycle count of the
    /// run's fixed job set.
    pub digest: u64,
    /// Free-form lines printed before the metrics.
    pub info: Vec<String>,
}

impl Report {
    pub fn gate(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            tail: None,
            note: "",
        });
    }

    /// A metric of a layer this workload does not exercise: zero work,
    /// zero time.
    pub fn idle(&mut self, name: impl Into<String>, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: 0.0,
            unit,
            tail: None,
            note: "layer not exercised by this workload",
        });
    }

    /// Median of `xs` as `name`.
    pub fn p50(&mut self, name: &str, xs: &[f64], unit: &'static str) {
        self.metric(name, stats::median(xs).unwrap_or(0.0), unit);
    }

    /// The tail rule of [`stats::tail`] over `xs` as `name`.
    pub fn tail(&mut self, name: &str, xs: &[f64], unit: &'static str) {
        let t = stats::tail(xs);
        self.metrics.push(Metric {
            name: name.to_string(),
            value: t.map_or(0.0, |t| t.value),
            unit,
            tail: t,
            note: "",
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }

    /// Print the human-readable lines, a detailed JSON line, and last the
    /// one-line result object.
    pub fn print(&self, host: &Host, workload: &str, seed: u64, trace: bool) {
        println!(
            "perfbench {workload} seed={seed} trace={} nproc={} cpu=\"{}\" commit={} source={:016x}",
            trace as u8, host.nproc, host.cpu, host.commit, host.source
        );
        for l in &self.info {
            println!("  {l}");
        }
        for g in &self.gates {
            println!(
                "gate {:<44} {} {}",
                g.name,
                if g.ok { "ok  " } else { "FAIL" },
                g.detail
            );
        }
        for m in &self.metrics {
            let mut extra = String::new();
            if let Some(t) = m.tail {
                write!(extra, "  (p{:.1} of {} samples)", t.percentile, t.samples).unwrap();
            }
            if !m.note.is_empty() {
                write!(extra, "  ({})", m.note).unwrap();
            }
            println!(
                "metric {:<34} {:>16} {}{extra}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        println!("digest {:016x}", self.digest);
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        println!("detail {}", self.detail_json(host, workload, seed, trace));
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            )
            .unwrap();
        }
        out.push_str("}}");
        println!("{out}");
    }

    /// Everything above as one JSON object: the run's context, every
    /// gate, and tail percentiles beside their metrics.
    fn detail_json(&self, host: &Host, workload: &str, seed: u64, trace: bool) -> String {
        let mut s = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"nproc\":{},\
             \"cpu\":\"{}\",\"commit\":\"{}\",\"source\":\"{:016x}\",\"digest\":\"{:016x}\",\"gates\":{{",
            host.nproc,
            json_escape(&host.cpu),
            host.commit,
            host.source,
            self.digest
        );
        for (i, g) in self.gates.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write!(s, "\"{}\":{}", json_escape(&g.name), g.ok).unwrap();
        }
        s.push_str("},\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                fmt_num(m.value),
                m.unit
            )
            .unwrap();
            if let Some(t) = m.tail {
                write!(
                    s,
                    ",\"percentile\":{:.2},\"samples\":{}",
                    t.percentile, t.samples
                )
                .unwrap();
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

/// A number with all its digits, in a form JSON accepts.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// FNV-1a, folded over everything a digest covers.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit so ("ab","c") and ("a","bc") differ.
        for x in (b.len() as u64).to_le_bytes() {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// Where a result was measured.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    /// The checked-out commit, or `none` outside a git checkout.
    pub commit: String,
    /// Digest of the workspace sources the benchmark built.
    pub source: u64,
}

impl Host {
    pub fn probe(root: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: nproc(),
            cpu,
            commit: git_head(root).unwrap_or_else(|| "none".to_string()),
            source: source_digest(root),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Digest of the workspace manifests and every file under `crates/`,
/// in path order: identifies the code measured when no commit does.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        if let Ok(b) = std::fs::read(&f) {
            d.bytes(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            d.bytes(&b);
        }
    }
    d.0
}

/// Peak resident set of a process (`VmHWM`), in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let s = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = s
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
