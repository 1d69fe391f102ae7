//! Statistics helpers: medians, upper deciles, tail percentiles that
//! refuse to report a tail they cannot see, quartile spreads, and
//! failure accounting.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The reading at rank floor(0.9 (n - 1)) of `n` in ascending order:
/// the upper decile without interpolation, so for every `n` above one
/// it ignores at least the slowest reading. `None` for no samples.
pub fn upper_decile(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    v.get((v.len().checked_sub(1)?) * 9 / 10).copied()
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), reported only when
/// at least `min_tail` samples lie beyond it; otherwise an error that
/// names how many samples the percentile needs.
pub fn tail_percentile(samples: &[f64], p: f64, min_tail: usize) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let v = sorted(samples);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || n - rank.max(1) < min_tail {
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; at least {min_tail} are required",
            n.saturating_sub(rank.max(1)),
        ));
    }
    Ok(v[rank.max(1) - 1])
}

/// The three cut points that split `samples` into quarters, by the
/// same rule as Python's `statistics.quantiles(samples, n=4)` (the
/// default "exclusive" method). `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; `None` for fewer than two samples or a zero median.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(samples)?;
    let mid = median(samples)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Jobs or chunks attempted and failed. Each unit is recorded once,
/// after all of its checks, so it counts once however many fail.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Units of work attempted.
    pub attempted: u64,
    /// Units that failed at least one correctness check.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted unit, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed units as a percentage of those attempted (0 when none
    /// were attempted).
    pub fn fail_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 * 100.0 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: 1..=n in a scrambled order.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn upper_decile_skips_the_slowest_tenth() {
        assert_eq!(upper_decile(&[]), None);
        assert_eq!(upper_decile(&[3.0]), Some(3.0));
        // Five readings: rank 3 of 0..=4, the second-slowest.
        assert_eq!(upper_decile(&ramp(5)), Some(4.0));
        // Ten: rank 8, still the second-slowest.
        assert_eq!(upper_decile(&ramp(10)), Some(9.0));
        // Thirty: rank 26, the fourth-slowest.
        assert_eq!(upper_decile(&ramp(30)), Some(27.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is the 90th value and 10 lie beyond it.
        assert_eq!(tail_percentile(&ramp(100), 90.0, MIN_TAIL), Ok(90.0));
        // 99 samples: the 90th-percentile rank is 90, leaving 9.
        let err = tail_percentile(&ramp(99), 90.0, MIN_TAIL).unwrap_err();
        assert!(err.contains("leaves 9 beyond"), "{err}");
        assert!(tail_percentile(&[], 90.0, MIN_TAIL).is_err());
        // p99 needs a thousand.
        assert!(tail_percentile(&ramp(999), 99.0, MIN_TAIL).is_err());
        assert_eq!(tail_percentile(&ramp(1000), 99.0, MIN_TAIL), Ok(990.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // outer cuts extrapolate past the data.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = quartile_spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0; 10]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_pct(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_pct(), 25.0);
        t.record(false);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.fail_pct(), 40.0);
    }
}
