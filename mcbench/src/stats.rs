//! Summary statistics, process memory and the host reference loop.

use std::hint::black_box;
use std::time::Instant;

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples; the
/// same definition as NumPy's default and `statistics.quantiles(...,
/// method="inclusive")`. Panics on an empty slice: every caller measures
/// at least one sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean. Panics on an empty slice, like [`quantile`].
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Smallest sample. Panics on an empty slice, like [`quantile`].
pub fn min(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "min of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The process's peak resident set since the last [`reset_peak_rss`], in
/// MiB (`VmHWM` from `/proc/self/status`); 0 where procfs is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak-RSS watermark to the current resident set (Linux
/// `clear_refs` code 5), so [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    // Best effort: without procfs the watermark simply spans the process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Time a fixed integer workload, in ms. It runs beside every pass so a
/// noisy verdict can be traced to the host; it never scales a metric.
pub fn cpu_reference_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.9), 3.7);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(min(&v), 1.0);
    }
}
