//! Offline shim for the subset of `criterion` this workspace uses.
//!
//! Provides the same surface API (`Criterion`, `benchmark_group`,
//! `bench_function`, `Throughput`, `black_box`, `criterion_group!`,
//! `criterion_main!`) over a deliberately simple harness: per bench, a
//! short warmup followed by `sample_size` timed samples, reporting the
//! median per-iteration wall time (and derived throughput). No
//! statistical analysis, outlier detection, or HTML reports. Passing
//! `--test` (as `cargo test --benches` does) runs each closure once. The
//! first argument that does not start with `-` filters, as criterion's
//! does: only benches whose `group/name` contains it run, in test mode
//! too. See `shims/README.md`.

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting a
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Units for reporting derived throughput.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Top-level harness handle.
pub struct Criterion {
    sample_size: usize,
    test_mode: bool,
    /// Substring a bench's `group/name` must contain to run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let test_mode = args.iter().any(|a| a == "--test");
        let filter = args.into_iter().find(|a| !a.starts_with('-'));
        Criterion { sample_size: 100, test_mode, filter }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            throughput: None,
        }
    }

    /// Run a standalone benchmark (group of one).
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group(name);
        g.bench_function("bench", f);
        g.finish();
        self
    }

    /// Final-summary hook (no-op in the shim).
    pub fn final_summary(&mut self) {}
}

/// A named group of benchmarks sharing sample-size/throughput settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Declare per-iteration work so the report includes throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, name);
        if self.criterion.filter.as_ref().is_some_and(|f| !label.contains(f.as_str())) {
            return self;
        }
        if self.criterion.test_mode {
            let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
            f(&mut b);
            println!("{label:<40} ... test mode ok");
            return self;
        }
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);

        // Warmup + calibration: find an iteration count that takes
        // roughly 10ms per sample, capped so total time stays bounded.
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        let per_iter = b.elapsed.max(Duration::from_nanos(1));
        let iters = (Duration::from_millis(10).as_nanos() / per_iter.as_nanos()).clamp(1, 10_000);

        let mut times: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher { iters: iters as u64, elapsed: Duration::ZERO };
            f(&mut b);
            times.push(b.elapsed.as_secs_f64() / iters as f64);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        let median = times[times.len() / 2];
        let mut line = format!("{label:<40} {:>12}/iter", fmt_time(median));
        match self.throughput {
            Some(Throughput::Elements(n)) => {
                line.push_str(&format!("  {:.3e} elem/s", n as f64 / median));
            }
            Some(Throughput::Bytes(n)) => {
                line.push_str(&format!("  {:.3} GiB/s", n as f64 / median / (1u64 << 30) as f64));
            }
            None => {}
        }
        println!("{line}");
        self
    }

    /// Close the group (no-op; kept for API parity).
    pub fn finish(&mut self) {}
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Passed to each benchmark closure; times the supplied routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` over this sample's iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declare a group of benchmark entry points.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emit `main` running the listed groups.
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

    fn quick_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.throughput(Throughput::Elements(64));
        g.bench_function("sum", |b| b.iter(|| (0..64u64).sum::<u64>()));
        g.finish();
    }

    #[test]
    fn harness_runs_and_reports() {
        // Force test mode so the unit test stays fast.
        let mut c = Criterion { sample_size: 3, test_mode: true, filter: None };
        quick_bench(&mut c);
    }

    #[test]
    fn filter_selects_matching_rows_only() {
        let mut c =
            Criterion { sample_size: 3, test_mode: true, filter: Some("shim/su".to_string()) };
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("shim");
        for name in ["sum", "product"] {
            g.bench_function(name, |b| {
                ran.push(name);
                b.iter(|| 0u64);
            });
        }
        g.finish();
        assert_eq!(ran, ["sum"]);
    }

    #[test]
    fn time_formatting_scales() {
        assert!(fmt_time(5e-9).ends_with("ns"));
        assert!(fmt_time(5e-6).ends_with("µs"));
        assert!(fmt_time(5e-3).ends_with("ms"));
        assert!(fmt_time(5.0).ends_with('s'));
    }
}
