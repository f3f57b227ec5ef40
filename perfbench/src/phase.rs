//! A timed phase: passes over a fixed job list until the run's time is
//! up, plus the end-to-end metrics every workload reports from it.

use crate::report::Report;
use std::time::Instant;

/// One completed job.
pub struct Done<T> {
    /// Position in the job list.
    pub idx: usize,
    pub pass: u64,
    pub ms: f64,
    pub out: Result<T, String>,
}

pub struct Phase<T> {
    pub done: Vec<Done<T>>,
    /// Time spent in jobs: the phase's time less the time `between` took.
    pub elapsed_s: f64,
    pub first_pass_s: f64,
}

/// Run `f(idx, pass)` over `n` jobs, each pass in the order
/// `order(pass)`, for the number of whole passes whose time comes
/// closest to `min_s` seconds, and at least two, so every job also runs
/// as a repeat; `min_s = 0` runs exactly one pass. Only whole passes run:
/// every statistic then covers the same jobs in the same proportions,
/// whatever the seed's order. Stopping at the closest pass count rather
/// than the first one past `min_s` keeps the pass count, and with it the
/// sample count the tail percentiles are read at, from flipping between
/// runs when a pass takes about `min_s` over a whole number. `between`
/// runs after every job, off the phase's clock.
pub fn run<T>(
    n: usize,
    min_s: f64,
    order: impl Fn(u64) -> Vec<usize>,
    mut f: impl FnMut(usize, u64) -> Result<T, String>,
    mut between: impl FnMut(),
) -> Phase<T> {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut first_pass_s = 0.0;
    let mut off_clock_s = 0.0;
    let elapsed = |off: f64| start.elapsed().as_secs_f64() - off;
    for pass in 0.. {
        for idx in order(pass) {
            let t = Instant::now();
            let out = f(idx, pass);
            done.push(Done {
                idx,
                pass,
                ms: t.elapsed().as_secs_f64() * 1e3,
                out,
            });
            let t = Instant::now();
            between();
            off_clock_s += t.elapsed().as_secs_f64();
        }
        if pass == 0 {
            first_pass_s = elapsed(off_clock_s);
        }
        // Stop when one more pass of the average length would overshoot
        // `min_s` by more than stopping now falls short of it.
        let spent = elapsed(off_clock_s);
        let half_pass = spent / (pass + 1) as f64 / 2.0;
        let enough = min_s == 0.0 || (pass >= 1 && spent + half_pass >= min_s);
        if enough || n == 0 {
            break;
        }
    }
    Phase {
        done,
        elapsed_s: elapsed(off_clock_s),
        first_pass_s,
    }
}

impl<T> Phase<T> {
    /// Latencies of the jobs that succeeded; with `Some(repeat)`, only
    /// those of later passes (`true`) or of the first (`false`).
    pub fn ok_ms(&self, repeat: Option<bool>) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.out.is_ok() && repeat.is_none_or(|r| (d.pass > 0) == r))
            .map(|d| d.ms)
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.done.iter().filter(|d| d.out.is_err()).count() as u64
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.ok_ms(None).len() as f64 / self.elapsed_s.max(1e-9)
    }

    /// Outputs of the first pass, in list order: the fixed job set the
    /// digest and the exact counts cover.
    pub fn first_pass(&self) -> Vec<(usize, &Result<T, String>)> {
        let mut v: Vec<(usize, &Result<T, String>)> = self
            .done
            .iter()
            .filter(|d| d.pass == 0)
            .map(|d| (d.idx, &d.out))
            .collect();
        v.sort_by_key(|(i, _)| *i);
        v
    }

    /// Record attempts and failures, and the latency and throughput
    /// metrics every workload reports; `hits` and `misses` are the
    /// latencies the workload counts as each.
    pub fn report_e2e(&self, rep: &mut Report, hits: &[f64], misses: &[f64]) {
        rep.attempted += self.done.len() as u64;
        rep.failed += self.failed();
        for d in self.done.iter().filter(|d| d.out.is_err()) {
            if let Err(e) = &d.out {
                rep.info
                    .push(format!("job {} pass {} failed: {e}", d.idx, d.pass));
            }
        }
        rep.metric("jobs_per_s", self.jobs_per_s(), "jobs/s");
        rep.p50("job_p50_ms", &self.ok_ms(None), "ms");
        rep.tail("job_tail_ms", &self.ok_ms(None), "ms");
        rep.p50("hit_p50_ms", hits, "ms");
        rep.tail("hit_tail_ms", hits, "ms");
        rep.p50("miss_p50_ms", misses, "ms");
        rep.tail("miss_tail_ms", misses, "ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_when_no_time_is_asked_for() {
        let p = run(
            4,
            0.0,
            |_| vec![3, 1, 2, 0],
            |i, _| Ok::<_, String>(i),
            || {},
        );
        assert_eq!(p.done.len(), 4);
        assert_eq!(p.ok_ms(Some(true)).len(), 0);
        let first: Vec<usize> = p.first_pass().iter().map(|(i, _)| *i).collect();
        assert_eq!(first, [0, 1, 2, 3]);
    }

    #[test]
    fn passes_repeat_until_time_is_up_and_failures_count() {
        let wall = Instant::now();
        let mut between = 0;
        let p = run(
            2,
            0.02,
            |pass| {
                if pass % 2 == 0 {
                    vec![0, 1]
                } else {
                    vec![1, 0]
                }
            },
            |i, _| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                if i == 1 {
                    Err("boom".to_string())
                } else {
                    Ok(())
                }
            },
            || {
                between += 1;
                std::thread::sleep(std::time::Duration::from_millis(3));
            },
        );
        // Passes of at least 4 ms: it stops no more than half a pass
        // short of 20 ms of jobs, whatever `between` took.
        let passes = (p.done.len() / 2) as f64;
        assert!(p.elapsed_s + p.elapsed_s / passes / 2.0 >= 0.02);
        assert_eq!(between, p.done.len());
        let wall = wall.elapsed().as_secs_f64();
        assert!(p.elapsed_s <= wall - 0.003 * between as f64);
        assert!(p.done.len() > 2);
        assert_eq!(p.done.len() % 2, 0, "only whole passes run");
        assert_eq!(
            p.failed(),
            p.done.iter().filter(|d| d.idx == 1).count() as u64
        );
        assert_eq!(p.first_pass().len(), 2);
        // Job 1 always fails: only job 0 of each pass has a latency.
        assert_eq!(p.ok_ms(Some(false)).len(), 1);
        assert_eq!(p.ok_ms(None).len(), p.done.len() / 2);
    }

    #[test]
    fn a_timed_phase_runs_at_least_two_passes() {
        let p = run(3, 1e-9, |_| vec![0, 1, 2], |i, _| Ok::<_, String>(i), || {});
        assert_eq!(p.done.len(), 6);
        assert_eq!(p.ok_ms(Some(true)).len(), 3);
    }
}
