//! Order statistics over the ledger's samples.
//!
//! Every reported number is a median; quartiles travel with it so that
//! `ledger diff` can tell a change from spread. Quantiles use linear
//! interpolation between order statistics (the same rule as numpy's
//! default), which also keeps integer-nanosecond samples from reading
//! identically across runs.

/// `q`-quantile (`0.0..=1.0`) of an ascending slice. Panics on an empty
/// slice: a metric with no samples is a harness bug, not a value.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted_copy(values), 0.5)
}

/// A median with the quartiles around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted_copy(values);
        Summary {
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            n: s.len(),
        }
    }

    /// A value that was computed once, not sampled.
    pub fn point(v: f64) -> Summary {
        Summary {
            q1: v,
            median: v,
            q3: v,
            n: 1,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, with its value; `None` below 20 samples, where not
/// even the median has ten on each side.
pub fn highest_supported_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    // Per-ten-thousand, so the "ten beyond" test is exact integer maths.
    [9999usize, 9990, 9900, 9500, 9000, 7500, 5000]
        .into_iter()
        .find(|p| sorted.len() * (10_000 - p) >= 10 * 10_000)
        .map(|p| p as f64 / 10_000.0)
        .map(|p| (p, quantile_sorted(sorted, p)))
}

/// The metric- and workload-name grammar of `BENCHMARK.json`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 15.0, 17.5));
        assert_eq!(Summary::point(7.0).spread(), 0.0);
    }

    #[test]
    fn quantile_endpoints_and_single_sample() {
        let v = [5.0, 7.0, 9.0];
        assert_eq!(quantile_sorted(&v, 0.0), 5.0);
        assert_eq!(quantile_sorted(&v, 1.0), 9.0);
        assert_eq!(quantile_sorted(&[42.0], 0.99), 42.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(highest_supported_percentile(&ramp(19)), None);
        assert_eq!(highest_supported_percentile(&ramp(20)).unwrap().0, 0.5);
        assert_eq!(highest_supported_percentile(&ramp(100)).unwrap().0, 0.9);
        assert_eq!(highest_supported_percentile(&ramp(999)).unwrap().0, 0.95);
        assert_eq!(highest_supported_percentile(&ramp(1000)).unwrap().0, 0.99);
        assert_eq!(
            highest_supported_percentile(&ramp(10_000)).unwrap().0,
            0.999
        );
        let (p, v) = highest_supported_percentile(&ramp(100_001)).unwrap();
        assert_eq!(p, 0.9999);
        assert!((v - 99_990.0).abs() < 1.0);
    }

    #[test]
    fn name_grammar() {
        for ok in ["tx_per_s.rinval-v2", "a", "9lives", "svc.hop_in_us.norec"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
