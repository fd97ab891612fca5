//! Minimal, API-compatible stand-in for the `criterion` benchmark harness.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the small slice of criterion's API its benches use: [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`], [`criterion_group!`] and
//! [`criterion_main!`]. Benches compile unchanged against the real crate —
//! replace the `criterion` path dependency with the registry version when
//! network access exists.
//!
//! Measurement model: per benchmark, a short calibration pass sizes a
//! batch to ~`BATCH_TARGET`, a warm-up runs for `WARMUP`, then batches
//! are timed until `MEASURE` elapses. The mean, best and worst batch
//! averages are printed in a criterion-like `time: [lo mean hi]` line.

use std::hint::black_box;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(300);
const MEASURE: Duration = Duration::from_millis(1500);
const BATCH_TARGET: Duration = Duration::from_millis(20);

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    /// Smoke mode (the real criterion's `cargo bench -- --test`): run
    /// every benchmark body exactly once, skipping calibration, warm-up
    /// and measurement, so CI can verify benches still *run* in seconds.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { test_mode: std::env::args().any(|a| a == "--test") }
    }
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, f, self.test_mode);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup { criterion: self, group: name.to_string() }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    group: String,
}

impl BenchmarkGroup<'_> {
    /// Runs a benchmark within the group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{name}", self.group), f, self.criterion.test_mode);
        self
    }

    /// Ends the group (retained for criterion API compatibility).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; call [`Bencher::iter`] with the body.
#[derive(Debug)]
pub struct Bencher {
    /// Mean nanoseconds per iteration over all measured batches.
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    total_iters: u64,
    test_mode: bool,
}

impl Bencher {
    /// Times `body`, keeping the returned value alive via `black_box`.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut body: F) {
        // Reset accumulators: the real criterion allows multiple iter
        // calls per benchmark closure, and stale state would corrupt the
        // reported statistics.
        self.mean_ns = 0.0;
        self.min_ns = f64::INFINITY;
        self.max_ns = 0.0;
        self.total_iters = 0;
        if self.test_mode {
            // Smoke mode: one untimed-quality run proves the bench body
            // still executes; no warm-up, no measurement loop.
            let t0 = Instant::now();
            black_box(body());
            let ns = t0.elapsed().as_nanos() as f64;
            self.mean_ns = ns;
            self.min_ns = ns;
            self.max_ns = ns;
            self.total_iters = 1;
            return;
        }
        // Calibrate batch size so one batch lasts ~BATCH_TARGET.
        let t0 = Instant::now();
        black_box(body());
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let batch = (BATCH_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let warm_until = Instant::now() + WARMUP;
        while Instant::now() < warm_until {
            for _ in 0..batch {
                black_box(body());
            }
        }

        let mut batches = 0u64;
        let measure_start = Instant::now();
        while measure_start.elapsed() < MEASURE || batches == 0 {
            let b0 = Instant::now();
            for _ in 0..batch {
                black_box(body());
            }
            let ns = b0.elapsed().as_nanos() as f64 / batch as f64;
            self.mean_ns += ns;
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
            batches += 1;
        }
        self.mean_ns /= batches as f64;
        self.total_iters = batches * batch;
    }
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, mut f: F, test_mode: bool) {
    let mut b =
        Bencher { mean_ns: 0.0, min_ns: f64::INFINITY, max_ns: 0.0, total_iters: 0, test_mode };
    f(&mut b);
    if test_mode {
        println!("{name:<40} ok (test mode, 1 iter, {})", fmt_ns(b.mean_ns));
    } else {
        println!(
            "{name:<40} time: [{} {} {}]  ({} iters)",
            fmt_ns(b.min_ns),
            fmt_ns(b.mean_ns),
            fmt_ns(b.max_ns),
            b.total_iters
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "-".into()
    } else if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Declares a function that runs the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` to run the listed benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        // Smoke mode: the full warm-up + measurement windows would add
        // seconds of busy-spin to every workspace test run.
        let mut c = Criterion { test_mode: true };
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("g");
        g.bench_function("noop2", |b| b.iter(|| 2 + 2));
        g.finish();
    }

    #[test]
    fn test_mode_runs_the_body_exactly_once() {
        let mut c = Criterion { test_mode: true };
        let calls = std::cell::Cell::new(0u32);
        c.bench_function("smoke", |b| b.iter(|| calls.set(calls.get() + 1)));
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn ns_formatting_scales() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(2e9).ends_with('s'));
    }
}
