//! Spans recorded around the benchmark's calls into each layer: name,
//! start, end and parent, plus the job they belong to. Spans stay in
//! memory and are written out once, when the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Tool (or other qualifier) the span's layer metric is split by;
    /// empty when unsplit.
    pub tag: &'static str,
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// One thread's span recorder. A disabled recorder records nothing:
/// untraced runs pay one branch per call.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    job: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `t0` (share one `t0`
    /// between threads so their spans line up).
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            enabled: true,
            t0,
            job: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start job `job`: every span opened until the next call belongs
    /// to it.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, tag: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            job: self.job,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, tag);
        let r = f();
        self.close(id);
        r
    }

    /// Append another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"job\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.job, s.name, s.tag, s.start_ns, s.end_ns, parent
            )
            .expect("write to String");
        }
        out
    }
}

/// Share of job time child spans must cover on the in-process
/// workloads, where every call into a layer gets a span.
pub const MIN_COVERAGE: f64 = 0.95;

/// Self time and call count per ⟨span name, tag⟩.
#[derive(Debug, Default)]
pub struct Layers {
    by_key: BTreeMap<(&'static str, &'static str), (u64, u64)>,
    /// Time of root spans covered by their direct children, and the
    /// roots' total duration.
    covered_ns: u64,
    root_ns: u64,
}

impl Layers {
    pub fn from_spans(spans: &[Span]) -> Layers {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut l = Layers::default();
        for (i, s) in spans.iter().enumerate() {
            let own = stats::self_time(s.start_ns, s.end_ns, &children[i]);
            let e = l.by_key.entry((s.name, s.tag)).or_default();
            e.0 += 1;
            e.1 += own;
            if s.parent.is_none() {
                l.covered_ns += stats::covered(s.start_ns, s.end_ns, &children[i]);
                l.root_ns += s.end_ns - s.start_ns;
            }
        }
        l
    }

    /// Total self time of `name` across all tags, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.sum(name, None).1 as f64 / 1e9
    }

    /// Self time of `name` with tag `tag`, in seconds.
    pub fn self_s_tagged(&self, name: &str, tag: &str) -> f64 {
        self.sum(name, Some(tag)).1 as f64 / 1e9
    }

    fn sum(&self, name: &str, tag: Option<&str>) -> (u64, u64) {
        self.by_key
            .iter()
            .filter(|((n, t), _)| *n == name && tag.is_none_or(|want| *t == want))
            .fold((0, 0), |acc, (_, v)| (acc.0 + v.0, acc.1 + v.1))
    }

    /// Share of root-span (job) time covered by child spans.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.covered_ns as f64 / self.root_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tag: &'static str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tag,
            job: 0,
            start_ns: s,
            end_ns: e,
            parent,
        }
    }

    #[test]
    fn layers_split_self_time_by_name_and_tag() {
        // job [0,100) ⊃ a [0,40) ⊃ b [10,30); job ⊃ c:x [50,90), c:y [90,98).
        let spans = vec![
            span("job", "", 0, 100, None),
            span("a", "", 0, 40, Some(0)),
            span("b", "", 10, 30, Some(1)),
            span("c", "x", 50, 90, Some(0)),
            span("c", "y", 90, 98, Some(0)),
        ];
        let l = Layers::from_spans(&spans);
        assert_eq!(l.self_s("job"), 12e-9);
        assert_eq!(l.self_s("a"), 20e-9);
        assert_eq!(l.self_s("b"), 20e-9);
        assert_eq!(l.self_s("c"), 48e-9);
        assert_eq!(l.self_s_tagged("c", "y"), 8e-9);
        assert!((l.coverage() - 0.88).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.set_job(7);
        let outer = a.open("job", "");
        a.time("inner", "t", || ());
        a.close(outer);
        let mut b = Tracer::new(t0);
        b.time("job", "", || ());
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        let mut off = Tracer::disabled();
        let id = off.open("job", "");
        off.time("inner", "", || ());
        off.close(id);
        assert!(off.spans().is_empty());
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].job, 7);
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(a.to_jsonl().lines().count(), 3);
    }
}
