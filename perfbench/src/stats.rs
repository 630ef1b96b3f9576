//! Summaries of repeated measurements: median, quartiles, and a tail
//! percentile chosen by how many samples the run actually has.

/// Tail percentiles a summary may report, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a tail percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;

/// Linearly interpolated quantile `q` in `[0, 1]` of ascending `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest tail percentile with at least ten of `n` samples beyond it,
/// or 100 (the maximum) when `n` is too small for any of them.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9)
        .unwrap_or(100.0)
}

/// Median, quartiles and tail of one metric's samples within a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    /// The value at [`Summary::tail_pct`].
    pub tail: f64,
    pub tail_pct: f64,
}

impl Summary {
    /// Summary of `values`; every figure is NaN when there are none.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                median: f64::NAN,
                p25: f64::NAN,
                p75: f64::NAN,
                tail: f64::NAN,
                tail_pct: f64::NAN,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len());
        Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            p25: quantile(&sorted, 0.25),
            p75: quantile(&sorted, 0.75),
            tail: quantile(&sorted, tail_pct / 100.0),
            tail_pct,
        }
    }
}

/// Host CPU stolen, in percentage points above the calmest window's, that
/// still counts as calm.
const CALM_MARGIN_PCT: f64 = 1.0;

/// Indices, ascending, of a run's calm measurement windows: those with at
/// most [`CALM_MARGIN_PCT`] more host CPU stolen during them than the
/// calmest, and at least the calmer half (rounded up; ties by position).
/// All of them when any window's share is unknown.
///
/// The host lends its cores to other machines in episodes of minutes; a
/// window inside one measures the host, and a run's figures then depend on
/// how many of its windows such an episode hit.
pub fn calm_windows(steal_pct: &[Option<f64>]) -> Vec<usize> {
    let Some(steal) = steal_pct.iter().copied().collect::<Option<Vec<f64>>>() else {
        return (0..steal_pct.len()).collect();
    };
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let calmest = order.first().map_or(0.0, |&w| steal[w]);
    let within = order
        .iter()
        .take_while(|&&w| steal[w] <= calmest + CALM_MARGIN_PCT)
        .count();
    order.truncate(within.max(steal.len().div_ceil(2)));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 100.0);
        assert_eq!(tail_percentile(99), 100.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        for n in [100, 200, 1000, 10_000, 54_321] {
            let p = tail_percentile(n);
            assert!(n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_the_sample_count_and_its_tail() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail_pct, 99.0);
        assert!((s.tail - 990.01).abs() < 1e-9);
        let small = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (small.median, small.tail, small.tail_pct),
            (2.0, 3.0, 100.0)
        );
    }

    #[test]
    fn calm_windows_drop_stolen_ones_but_keep_half() {
        let steal = [Some(9.0), Some(0.5), Some(0.0), Some(20.0), Some(3.5)];
        assert_eq!(calm_windows(&steal), vec![1, 2, 4]);
        assert_eq!(calm_windows(&steal[..4]), vec![1, 2]);
        // A quiet run keeps every window.
        let quiet = [Some(0.5), Some(0.0), Some(1.0), Some(0.4)];
        assert_eq!(calm_windows(&quiet), vec![0, 1, 2, 3]);
        assert_eq!(calm_windows(&[Some(3.0)]), vec![0]);
        assert_eq!(calm_windows(&[Some(1.0), None, Some(9.0)]), vec![0, 1, 2]);
        assert!(calm_windows(&[]).is_empty());
    }
}
