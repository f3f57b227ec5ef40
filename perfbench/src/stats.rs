//! Order statistics and span arithmetic shared by every workload.

/// Median of `xs` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency with the percentile it sits at and the sample count
/// it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile that still has at least [`TAIL_BEYOND`]
/// samples beyond it: the `(n - 10)`-th smallest of `n` samples, at
/// percentile `100 (n - 10) / n`. With `2 × TAIL_BEYOND` samples or
/// fewer that percentile is the median or below it, which is no tail:
/// the maximum is reported instead, at percentile 100, so the printed
/// percentile shows the rule was not met.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let (idx, percentile) = if n > 2 * TAIL_BEYOND {
        let at_or_below = n - TAIL_BEYOND;
        (at_or_below - 1, 100.0 * at_or_below as f64 / n as f64)
    } else {
        (n - 1, 100.0)
    };
    Some(Tail {
        value: s[idx],
        percentile,
        samples: n,
    })
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let logs: f64 = xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum();
    Some((logs / xs.len() as f64).exp())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Length of the part of `[lo, hi)` covered by the union of
/// `intervals`, each clipped to `[lo, hi)`. Overlapping intervals count
/// once.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Self time of a span: its duration minus the part of its interval
/// that its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        // 1..=100: the 90th smallest value has exactly ten above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // 1..=40, shuffled: the 30th smallest, at the 75th percentile.
        let mut ys: Vec<f64> = (1..=40).map(f64::from).collect();
        ys.reverse();
        ys.swap(3, 17);
        let t = tail(&ys).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (30.0, 75.0, 40));

        // 21 samples: the rule lands just above the median.
        let zs: Vec<f64> = (1..=21).map(f64::from).collect();
        let t = tail(&zs).unwrap();
        assert_eq!(t.value, 11.0);
        assert!((t.percentile - 100.0 * 11.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn tail_with_too_few_samples_reports_the_maximum_at_p100() {
        let xs = [5.0, 1.0, 9.0];
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
        // Twenty samples would put the rule below the median.
        let ys: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&ys).unwrap().value, 20.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn geomean_matches_closed_form() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100): children [10, 30) and [20, 50) overlap into
        // [10, 50), plus [60, 70) and one spilling past the end.
        let kids = [(10, 30), (20, 50), (60, 70), (95, 120)];
        assert_eq!(covered(0, 100, &kids), 40 + 10 + 5);
        assert_eq!(self_time(0, 100, &kids), 45);
        // No children: all self time. A child covering everything: none.
        assert_eq!(self_time(5, 25, &[]), 20);
        assert_eq!(self_time(5, 25, &[(0, 30)]), 0);
        // Nested grandchildren are the children's business, not ours:
        // a parent only subtracts its direct children's intervals.
        assert_eq!(self_time(0, 10, &[(2, 4), (4, 6)]), 6);
    }
}
