//! Order statistics the benchmark reports: medians, quartiles and the
//! tail percentile rule.

/// The percentiles a tail may be reported at, lowest first. A fixed
/// ladder keeps the reported percentile the same across runs whose
/// sample counts differ a little, where a continuous rule would drift.
/// It stops at p99: beyond that, a closed loop that ran faster would
/// report a higher percentile and so look slower.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon absorbs binary rounding of ladder values like 99.95.
    let k = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Median of the samples (mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` of the samples; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len())]
}

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples strictly after its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples considered.
    pub samples: usize,
    /// Samples ranked beyond the reported one.
    pub beyond: usize,
}

impl Tail {
    /// `job_tail_ms` with its percentile and sample count, for people.
    pub fn line(&self) -> String {
        format!(
            "job_tail_ms = {:.4} ms: p{} of {} jobs, {} beyond it",
            self.value, self.pct, self.samples, self.beyond
        )
    }
}

/// Chooses the tail percentile of `xs`. With fewer samples than even
/// the median needs, the median is reported and `beyond` shows the
/// shortfall.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail { pct: 50.0, value: f64::NAN, samples: 0, beyond: 0 };
    }
    let mut best = TAIL_LADDER[0];
    for &p in &TAIL_LADDER {
        if n - 1 - rank(p, n) >= TAIL_MIN_BEYOND {
            best = p;
        }
    }
    let k = rank(best, n);
    Tail { pct: best, value: v[k], samples: n, beyond: n - 1 - k }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=1000: p99 sits at rank 989 (value 990) with 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_steps_down_the_ladder_for_small_counts() {
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&xs);
        // p90 → rank 53, 6 beyond: too few. p75 → rank 44, 15 beyond.
        assert_eq!(t.pct, 75.0);
        assert_eq!(t.value, 45.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);
    }

    #[test]
    fn tail_is_order_independent_and_reports_shortfall() {
        let mut xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        xs.reverse();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 9900.0, 100));
        assert_eq!(tail(&xs[..999]).pct, 95.0);
        let few = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(few.pct, 50.0);
        assert_eq!(few.value, 3.0);
        assert!(few.beyond < TAIL_MIN_BEYOND);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
    }
}
