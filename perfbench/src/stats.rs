//! The benchmark's summary statistics.

/// The percentile rule used for every reported timing: linear interpolation
/// between the two closest ranks of the sorted sample (`h = (n - 1) * q`),
/// so a percentile is not quantised to one sample's value. `q` is in
/// `[0, 1]`. Returns 0 for an empty sample; callers report the sample count
/// next to every percentile, so an empty one is visible.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// A sorted copy of `values`, ready for [`percentile`].
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = sorted([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        // h = 3 * 0.5 = 1.5: halfway between 2 and 3.
        assert_eq!(percentile(&xs, 0.5), 2.5);
        // h = 3 * 0.99 = 2.97: 3 + 0.97 * (4 - 3).
        assert!((percentile(&xs, 0.99) - 3.97).abs() < 1e-9);
    }

    #[test]
    fn percentile_of_tiny_samples() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median([5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn p99_of_hundred_ones_and_one_outlier_stays_low() {
        // 100 samples of 1 and one of 1000: h = 100 * 0.99 = 99, which is
        // still a 1, so a single outlier does not set the p99.
        let mut xs = vec![1.0; 100];
        xs.push(1000.0);
        let xs = sorted(xs);
        assert_eq!(percentile(&xs, 0.99), 1.0);
        assert_eq!(percentile(&xs, 1.0), 1000.0);
    }
}
