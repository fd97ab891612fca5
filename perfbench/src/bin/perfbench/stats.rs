//! The benchmark's own arithmetic: medians, quartiles, percentile
//! selection, ratios with a stated base, metric-name validity, and the
//! result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method:
/// position `p·(n+1)` with linear interpolation, clamped to the ends).
/// Needs at least two values; `None` otherwise.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        let m = p * (n + 1) as f64;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(0.25), at(0.75)))
}

/// Candidate percentiles, lowest first, for [`supported_percentile`].
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Number of samples strictly above the nearest-rank `p`-th percentile
/// of `n` samples.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples
/// (`⌈p·n/100⌉`, with the product's rounding error kept from bumping an
/// exact rank up by one).
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`PERCENTILES`] that still has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    PERCENTILES.iter().rev().copied().find(|&p| samples_beyond(n, p) >= 10)
}

/// Nearest-rank `p`-th percentile of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// `part / base`, or 0 when the base is 0. Every ratio the benchmark
/// prints names its base next to it; this is the one place that divides.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Operations attempted and failed in one run. A failure is a backend
/// error or a failed output check; modeled admission drops are neither.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `ops` attempted operations of which `failed` failed (at
    /// most `ops`), printing `what` to stderr when any did.
    pub fn record(&mut self, ops: u64, failed: u64, what: &str) {
        self.attempted += ops;
        self.failed += failed.min(ops);
        if failed > 0 {
            eprintln!("perfbench: {failed}/{ops} failed: {what}");
        }
    }

    /// Records `ops` operations that all pass or all fail together.
    pub fn check(&mut self, ok: bool, ops: u64, what: &str) {
        self.record(ops, if ok { 0 } else { ops }, what);
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (`{"name": {"value": v, "unit": u}}`, in the given
/// order).
///
/// # Panics
///
/// Panics on an invalid name or unit, or a non-finite value — a bug in
/// the benchmark itself, never in the measured program.
pub fn result_line(tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_selection_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        for n in [20, 100, 1000, 10_000, 12_345] {
            let p = supported_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn ratios_divide_by_their_base() {
        assert_eq!(ratio(77.0, 100.0), 0.77);
        assert_eq!(ratio(5.0, 0.0), 0.0, "an empty base reads as 0, never NaN");
        // Evictions per iteration, not per session: the base matters.
        let (evictions, iterations, sessions) = (30.0, 120.0, 30.0);
        assert_eq!(ratio(evictions, iterations), 0.25);
        assert_eq!(ratio(evictions, sessions), 1.0);
    }

    #[test]
    fn metric_names_and_units_are_validated() {
        for ok in ["setup_s", "runtime.event_pop_ns_per_call", "pruned.prune.pap_ns", "9x", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".lead", "_lead", "has space", "slash/name", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "ns/call", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "n s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            Tally { attempted: 3, failed: 0 },
            &[("latency_ms", 1.25, "ms"), ("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let failed = result_line(Tally { attempted: 3, failed: 1 }, &[]);
        assert!(failed.starts_with("{\"correct\": false"));
    }

    #[test]
    fn tally_counts_failed_checks() {
        let mut t = Tally::default();
        t.check(true, 10, "fine");
        t.check(false, 4, "deliberately failed in a test");
        assert_eq!((t.attempted, t.failed), (14, 4));
        t.record(5, 9, "more failures than operations clamp");
        assert_eq!((t.attempted, t.failed), (19, 9));
    }
}
