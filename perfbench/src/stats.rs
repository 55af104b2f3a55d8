//! The benchmark's own arithmetic: quantiles, the tail-percentile rule,
//! distribution summaries and ratios that keep their base.

/// Linear-interpolated quantile of an ascending-sorted slice
/// (`q` in 0..=1; the "inclusive" method of Python's
/// `statistics.quantiles`). An empty slice gives 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorted copy of `samples` (total order, so NaN never panics).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Mean of samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value at the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, `100 * (n - beyond) / n`.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
}

/// The tail rule. With nearest-rank percentiles the `p`-th percentile
/// of `n` sorted samples is the sample at rank `ceil(p * n / 100)`, and
/// `n - rank` samples lie beyond it; the highest `p` leaving
/// [`TAIL_BEYOND`] beyond is therefore rank `n - 10`. With fewer than
/// 11 samples no percentile qualifies, and the maximum is reported with
/// the count of samples actually beyond it (0).
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return Tail {
            pct: 100.0,
            value: 0.0,
            n,
            beyond: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            pct: 100.0,
            value: s[n - 1],
            n,
            beyond: 0,
        };
    }
    let rank = n - TAIL_BEYOND;
    Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        n,
        beyond: TAIL_BEYOND,
    }
}

/// min / quartiles / median / max of a sample set, as recorded next to
/// every metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Dist {
    pub fn of(samples: &[f64]) -> Dist {
        let s = sorted(samples);
        Dist {
            n: s.len(),
            min: s.first().copied().unwrap_or(0.0),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s.last().copied().unwrap_or(0.0),
        }
    }
}

/// A ratio that keeps its numerator and denominator, so every rate the
/// benchmark prints can be given with its base.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`, or 0 when the base is empty (nothing was attempted,
    /// so nothing was achieved).
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// Sum of two ratios over disjoint bases.
    pub fn add(self, other: Ratio) -> Ratio {
        Ratio::new(self.num + other.num, self.den + other.den)
    }

    /// The base, for printing: `"num/den"`.
    pub fn base(self) -> String {
        format!("{}/{}", trim(self.num), trim(self.den))
    }
}

fn trim(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inclusively() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 100 samples 1..=100: rank 90 is the 90th percentile and ten
        // samples (91..=100) lie beyond it.
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!((t.n, t.beyond), (100, 10));
        // 1000 samples: the 99th percentile.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.pct), (990.0, 99.0));
        // 18 samples: only the 8th value keeps ten beyond it.
        let s: Vec<f64> = (1..=18).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 8.0);
        assert!((t.pct - 100.0 * 8.0 / 18.0).abs() < 1e-12);
        // Exactly 11 samples: the smallest one.
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&s).value, 1.0);
    }

    #[test]
    fn tail_with_too_few_samples_reports_max_and_zero_beyond() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.pct, t.beyond), (10.0, 100.0, 0));
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn dist_records_quartiles() {
        let d = Dist::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (d.n, d.min, d.q1, d.median, d.q3, d.max),
            (5, 1.0, 2.0, 3.0, 4.0, 5.0)
        );
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(21.0, 50.0);
        assert_eq!(r.value(), 0.42);
        assert_eq!(r.base(), "21/50");
        assert_eq!(Ratio::new(3.0, 0.0).value(), 0.0);
        let sum = r.add(Ratio::new(4.0, 50.0));
        assert_eq!((sum.value(), sum.base()), (0.25, "25/100".to_owned()));
        assert_eq!(Ratio::new(1.5, 2.0).base(), "1.500/2");
    }
}
