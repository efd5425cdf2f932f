//! Metric arithmetic: medians, the tail percentile, geometric means over
//! cells, and the failure tally.

/// A tail percentile must leave at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median with linear interpolation between the two middle samples.
/// Returns `None` for an empty sample set.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The tail of a sample set: the highest nearest-rank percentile, at most
/// p99, that still has at least [`MIN_BEYOND`] samples strictly above its
/// rank. Returns `(level, value)`, or `None` when there are too few
/// samples for any such percentile.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // 1-based nearest rank of the p99, capped so that n - rank >= MIN_BEYOND.
    let rank = (99 * n).div_ceil(100).min(n - MIN_BEYOND);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// Geometric mean of strictly positive values; `None` when `values` is
/// empty or holds a value that is not strictly positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Smallest sample; `None` for an empty sample set.
pub fn minimum(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// Geometric mean over cells of `stat` (median or minimum) of each cell's
/// samples. Cells without samples are skipped.
pub fn geomean_over_cells<'a>(
    cells: impl IntoIterator<Item = &'a [f64]>,
    stat: fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let per_cell: Vec<f64> = cells.into_iter().filter_map(stat).collect();
    geomean(&per_cell)
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The call succeeded and its output matched the reference.
    Correct,
    /// The call succeeded but its output differs from the reference.
    WrongOutput,
    /// The call returned an error, exited non-zero, was refused or served
    /// by a fallback path instead of the one under test.
    Error,
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted, whatever their outcome.
    pub attempted: u64,
    /// Operations that did not end [`Outcome::Correct`].
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Correct {
            self.failed += 1;
        }
    }

    /// Add the operations of another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed divided by attempted; 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_p99_when_enough_samples_lie_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (level, value) = tail(&samples).unwrap();
        assert_eq!(level, 0.99);
        assert_eq!(value, 990.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);

        let samples: Vec<f64> = (1..=5000).map(f64::from).collect();
        let (level, value) = tail(&samples).unwrap();
        assert_eq!(level, 0.99);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 50);
    }

    #[test]
    fn tail_drops_below_p99_to_keep_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (level, value) = tail(&samples).unwrap();
        assert_eq!(level, 0.9);
        assert_eq!(value, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);

        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((1.0 / 11.0, 1.0)));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&samples), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn geomean_weights_every_cell_equally() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn geomean_over_cells_applies_the_statistic_per_cell() {
        let fast = [1.0, 2.0, 100.0];
        let slow = [800.0, 8.0, 80.0, 9000.0];
        let empty: [f64; 0] = [];
        let cells: Vec<&[f64]> = vec![&fast, &slow, &empty];
        // medians 2 and 440; the empty cell is skipped
        let g = geomean_over_cells(cells.clone(), median).unwrap();
        assert!((g - (2.0f64 * 440.0).sqrt()).abs() < 1e-9);
        // minima 1 and 8
        let g = geomean_over_cells(cells, minimum).unwrap();
        assert!((g - 8.0f64.sqrt()).abs() < 1e-9);
        assert_eq!(minimum(&[]), None);
    }

    #[test]
    fn failed_frac_counts_every_attempt_in_the_denominator() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_frac(), 0.0);
        for _ in 0..7 {
            tally.record(Outcome::Correct);
        }
        // a refused or fallback-served request is an error
        tally.record(Outcome::Error);
        // a successful call with a wrong digest still fails
        tally.record(Outcome::WrongOutput);
        tally.record(Outcome::Correct);
        assert_eq!(
            tally,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert!((tally.failed_frac() - 0.2).abs() < 1e-12);

        let mut total = Tally::default();
        total.merge(tally);
        total.merge(Tally {
            attempted: 10,
            failed: 0,
        });
        assert!((total.failed_frac() - 0.1).abs() < 1e-12);
    }
}
