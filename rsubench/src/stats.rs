//! Order statistics over timing samples.

/// Samples a percentile must have beyond it before the benchmark reports
/// it: a tail estimate resting on fewer is noise.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-quantile (`0 < p < 1`) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile needs 0 < p < 1, got {p}");
    let n = samples.len();
    // Nearest rank, 1-based: the smallest sample with at least p·n samples
    // at or below it.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// [`percentile`] at 0.5.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The median of a handful of per-repetition values (such as each
/// repetition's set-up time), without the tail rule: each value is one whole
/// repetition, and there are only a few.
pub fn median_of_reps(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_a_percentile_without_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90 with exactly 10 beyond it.
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        // p99 would rest on one sample beyond it.
        assert_eq!(percentile(&samples, 0.99), None);
        assert_eq!(percentile(&samples[..99], 0.9), None);
        // The median needs 20 samples.
        assert_eq!(median(&samples[..20]), Some(10.0));
        assert_eq!(median(&samples[..19]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&samples, 0.9);
        samples.reverse();
        assert_eq!(percentile(&samples, 0.9), p);
        assert_eq!(p, Some(179.0));
    }
}
