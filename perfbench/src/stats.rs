//! Sample statistics the benchmark reports: nearest-rank percentiles, the
//! "at least ten samples beyond" rule for tail percentiles, medians of
//! repeated measurements, and the traced run's reconciliation arithmetic.

pub use cmr_bench::serving::percentile;

/// Fewest samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples of an `n`-sample set that lie beyond its nearest-rank `q`
/// quantile (the quantile itself sits at rank `ceil(q·n)`).
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The nearest-rank `q` quantile of an ascending sample, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (the tail is too thin
/// to report).
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile(sorted, q))
}

/// Sorts a sample ascending (NaNs last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted sample (nearest-rank), 0.0 when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean, 0.0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Most windows a measured run is split into.
pub const MAX_WINDOWS: usize = 10;
/// Samples a window needs for its p99 to have [`MIN_BEYOND`] beyond it.
pub const WINDOW_SAMPLES: usize = 100 * MIN_BEYOND;

/// A run's figures as medians over its quiet time windows.
///
/// The run is cut into equal windows; the half with the least host CPU
/// steal are kept, and each figure is the median over the kept windows of
/// that window's own figure. On a shared host the hypervisor takes the
/// CPUs away for seconds at a time; a window it hit measured the host,
/// not the code, and one bad stretch would otherwise move the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Windows the run was cut into.
    pub windows: usize,
    /// Indices of the kept windows, ascending.
    pub kept: Vec<usize>,
    /// Median over kept windows of each window's median.
    pub p50: f64,
    /// Median over kept windows of each window's p90.
    pub p90: f64,
    /// Median over kept windows of each window's p99; `None` when a kept
    /// window has fewer than [`MIN_BEYOND`] samples beyond its p99.
    pub p99: Option<f64>,
    /// Median over kept windows of samples per second.
    pub rate: f64,
    /// Samples in the thinnest kept window.
    pub min_count: usize,
    /// Host steal (ms of CPU) in each window.
    pub window_steal: Vec<f64>,
}

/// Host steal accrued between offsets `a` and `b` of a cumulative
/// `(offset_s, steal_ms)` series sampled over the run (0 without samples).
pub fn steal_between(series: &[(f64, f64)], a: f64, b: f64) -> f64 {
    let at = |t: f64| {
        series
            .iter()
            .take_while(|s| s.0 <= t)
            .last()
            .or(series.first())
            .map_or(0.0, |s| s.1)
    };
    at(b) - at(a)
}

/// Cuts `(offset_s, value)` samples of a `secs`-long run into as many
/// equal windows (at most [`MAX_WINDOWS`]) as leave [`WINDOW_SAMPLES`]
/// per window on average (samples past the end count in the last one),
/// and keeps the half with the least steal according to `steal`, a
/// cumulative host-steal series (ties keep the earlier window).
pub fn windowed(samples: &[(f64, f64)], secs: f64, steal: &[(f64, f64)]) -> Windowed {
    let n = (samples.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let width = secs / n as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, v) in samples {
        buckets[((t.max(0.0) / width) as usize).min(n - 1)].push(v);
    }
    let window_steal: Vec<f64> = (0..n)
        .map(|w| steal_between(steal, w as f64 * width, (w + 1) as f64 * width))
        .collect();
    let mut kept: Vec<usize> = (0..n).collect();
    kept.sort_by(|&a, &b| window_steal[a].total_cmp(&window_steal[b]).then(a.cmp(&b)));
    kept.truncate(n.div_ceil(2));
    kept.sort_unstable();
    let quiet: Vec<Vec<f64>> = kept.iter().map(|&w| sorted(buckets[w].clone())).collect();
    let over = |f: &dyn Fn(&[f64]) -> f64| median(&quiet.iter().map(|b| f(b)).collect::<Vec<_>>());
    let p99s: Option<Vec<f64>> = quiet.iter().map(|b| tail(b, 0.99)).collect();
    Windowed {
        windows: n,
        p50: over(&|b| percentile(b, 0.5)),
        p90: over(&|b| percentile(b, 0.9)),
        p99: p99s.as_deref().map(median),
        rate: over(&|b| b.len() as f64 / width),
        min_count: quiet.iter().map(Vec::len).min().unwrap_or(0),
        kept,
        window_steal,
    }
}

/// The blocking-path sum of per-layer times set beside an end-to-end time.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconciliation {
    /// Sum of the layer parts.
    pub explained: f64,
    /// The end-to-end figure the parts should add up to.
    pub total: f64,
}

impl Reconciliation {
    /// Adds up weighted parts: each `(weight, time)` contributes
    /// `weight × time` (a weight below one is a part only some operations
    /// pay, e.g. the miss path at the miss ratio).
    pub fn of(parts: &[(f64, f64)], total: f64) -> Reconciliation {
        Reconciliation {
            explained: parts.iter().map(|(w, t)| w * t).sum(),
            total,
        }
    }

    /// What the parts leave unexplained (negative when they over-explain).
    pub fn residual(&self) -> f64 {
        self.total - self.explained
    }

    /// The residual as a share of the total (0.0 for a zero total).
    pub fn residual_share(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.residual() / self.total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 500.0);
        assert_eq!(percentile(&s, 0.99), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            2.0,
            "nearest rank takes the lower middle"
        );
    }

    #[test]
    fn ten_beyond_rule() {
        // 1000 samples: p99 sits at rank 990, ten samples beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), Some(990.0));
        // 999 samples: rank ceil(989.01) = 990 leaves only nine beyond.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&s[..999], 0.99), None);
        // p50 of 21 samples: rank 11, ten beyond.
        assert_eq!(beyond(21, 0.5), 10);
        assert_eq!(beyond(0, 0.99), 0);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn windows_take_medians_over_the_quiet_half() {
        // 5000 samples over 10 s: five 2-s windows of 1000 (not ten of
        // 500), each p99 with exactly ten samples beyond it.
        let mut s: Vec<(f64, f64)> = (0..5000).map(|i| (i as f64 * 0.002, 1.0)).collect();
        // A stall confined to the first window moves its p99, not the
        // median over windows.
        for x in s.iter_mut().take(50) {
            x.1 = 100.0;
        }
        let w = windowed(&s, 10.0, &[]);
        assert_eq!(w.windows, 5);
        assert_eq!(
            w.kept,
            vec![0, 1, 2],
            "no steal: the earlier windows are kept"
        );
        assert_eq!(w.min_count, 1000);
        assert_eq!(w.p99, Some(1.0));
        assert_eq!(w.p50, 1.0);
        assert!((w.rate - 500.0).abs() < 1e-9);
        // Windows 0, 1 and 3 lost CPU to the host and ran slow: the quiet
        // half (2, 4 and the least-stolen of the rest) decides.
        let mut slow = s.clone();
        for x in slow
            .iter_mut()
            .filter(|x| x.0 < 4.0 || (6.0..8.0).contains(&x.0))
        {
            x.1 = 50.0;
        }
        let steal = [
            (0.0, 0.0),
            (1.0, 300.0),
            (4.0, 600.0),
            (6.0, 600.0),
            (7.0, 900.0),
            (8.0, 900.0),
        ];
        assert_eq!(steal_between(&steal, 0.0, 2.0), 300.0);
        assert_eq!(steal_between(&steal, 8.0, 10.0), 0.0);
        let w = windowed(&slow, 10.0, &steal);
        assert_eq!(w.window_steal, vec![300.0, 300.0, 0.0, 300.0, 0.0]);
        assert_eq!(w.kept, vec![0, 2, 4]);
        assert_eq!(w.p50, 1.0, "two of three kept windows were quiet");
        // 999 samples: one window, too thin for a p99.
        let thin = windowed(&s[..999], 2.0, &[]);
        assert_eq!(thin.windows, 1);
        assert_eq!(thin.p99, None);
    }

    #[test]
    fn reconciliation_arithmetic() {
        let r = Reconciliation::of(&[(1.0, 0.2), (1.0, 0.5), (0.5, 0.4)], 1.0);
        assert!((r.explained - 0.9).abs() < 1e-12);
        assert!((r.residual() - 0.1).abs() < 1e-12);
        assert!((r.residual_share() - 0.1).abs() < 1e-12);
        let over = Reconciliation::of(&[(1.0, 2.0)], 1.5);
        assert!(
            (over.residual() + 0.5).abs() < 1e-12,
            "over-explained residual is negative"
        );
        assert_eq!(Reconciliation::of(&[], 0.0).residual_share(), 0.0);
    }
}
