//! Offline stand-in for `criterion`.
//!
//! Provides the benchmark-definition surface this workspace uses
//! (`Criterion`, benchmark groups, `iter`/`iter_batched`, the
//! `criterion_group!`/`criterion_main!` macros) with a simple
//! warmup-then-measure timing loop that reports the mean wall-clock time per
//! iteration.  No statistics, plots or baselines — just honest numbers, so
//! `cargo bench` works offline.  `cargo bench -- <filter>` runs only the
//! benchmarks whose id (`group/name`) contains the filter, as upstream does
//! for a plain string.  Swap the path dependency for upstream
//! criterion to get the full harness back.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-iteration batch sizing hint (accepted, not acted upon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small setup output; batches may share a setup call in upstream.
    SmallInput,
    /// Large setup output.
    LargeInput,
    /// One setup call per iteration.
    PerIteration,
}

/// Measurement settings shared by `Criterion` and benchmark groups.
#[derive(Debug, Clone, Copy)]
struct Settings {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
        }
    }
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    settings: Settings,
    filter: Option<String>,
}

impl Criterion {
    /// Runs only the benchmarks whose id contains `filter`; `None` runs all.
    pub fn with_filter(mut self, filter: Option<&str>) -> Self {
        self.filter = filter.map(str::to_string);
        self
    }

    /// Sets the target number of timed samples.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.settings.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Sets the measurement duration budget.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.settings.measurement_time = d;
        self
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&name.into(), self.settings, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            settings: self.settings,
            criterion: self,
        }
    }

    /// Runs the benchmark `id` unless the filter excludes it.
    fn run<F>(&self, id: &str, settings: Settings, f: &mut F)
    where
        F: FnMut(&mut Bencher),
    {
        if self
            .filter
            .as_deref()
            .is_none_or(|filter| id.contains(filter))
        {
            run_benchmark(id, settings, f);
        }
    }
}

/// The benchmark filter of a bench binary's arguments (program name
/// skipped): the first one that does not start with `-`.
pub fn filter_from_args(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

/// A named group of benchmarks with its own settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up duration for this group.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Sets the measurement duration budget for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.criterion.run(
            &format!("{}/{}", self.name, name.into()),
            self.settings,
            &mut f,
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Passed to every benchmark closure; runs and times the measured routine.
pub struct Bencher {
    settings: Settings,
    total: Duration,
    iterations: u64,
}

impl Bencher {
    /// Times `routine`, called repeatedly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up: run until the warm-up budget elapses (at least once).
        let warm_start = Instant::now();
        loop {
            black_box(routine());
            if warm_start.elapsed() >= self.settings.warm_up_time {
                break;
            }
        }
        // Measure: up to sample_size iterations within the time budget.
        let measure_start = Instant::now();
        for _ in 0..self.settings.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.total += t0.elapsed();
            self.iterations += 1;
            if measure_start.elapsed() >= self.settings.measurement_time {
                break;
            }
        }
    }

    /// Times `routine` over fresh inputs produced by `setup` (setup time is
    /// excluded from the measurement).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        loop {
            black_box(routine(setup()));
            if warm_start.elapsed() >= self.settings.warm_up_time {
                break;
            }
        }
        let measure_start = Instant::now();
        for _ in 0..self.settings.sample_size {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.total += t0.elapsed();
            self.iterations += 1;
            if measure_start.elapsed() >= self.settings.measurement_time {
                break;
            }
        }
    }
}

fn run_benchmark<F>(name: &str, settings: Settings, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        settings,
        total: Duration::ZERO,
        iterations: 0,
    };
    f(&mut bencher);
    if bencher.iterations == 0 {
        println!("{name:<50} (no measured iterations)");
        return;
    }
    let mean = bencher.total.as_secs_f64() / bencher.iterations as f64;
    let (value, unit) = if mean < 1e-6 {
        (mean * 1e9, "ns")
    } else if mean < 1e-3 {
        (mean * 1e6, "µs")
    } else if mean < 1.0 {
        (mean * 1e3, "ms")
    } else {
        (mean, "s")
    };
    println!(
        "{name:<50} time: {value:>10.3} {unit}/iter ({} iterations)",
        bencher.iterations
    );
}

/// Defines a benchmark group function, in both upstream forms.  The
/// function takes the benchmark filter that [`criterion_main!`] read.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name(filter: Option<&str>) {
            let mut criterion = ($config).with_filter(filter);
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name; config = $crate::Criterion::default(); targets = $($target),+
        );
    };
}

/// Defines the benchmark binary entry point, which reads the benchmark
/// filter from the command line ([`filter_from_args`]).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let filter = $crate::filter_from_args(std::env::args().skip(1));
            $($group(filter.as_deref());)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_the_routine() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut count = 0u64;
        c.bench_function("noop", |b| b.iter(|| count += 1));
        assert!(count > 0);
    }

    #[test]
    fn groups_and_batched_iterations_work() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1, 2, 3], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }

    fn quick() -> Criterion {
        Criterion::default()
            .sample_size(1)
            .warm_up_time(Duration::ZERO)
            .measurement_time(Duration::ZERO)
    }

    #[test]
    fn the_filter_is_the_first_argument_that_is_not_a_flag() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_from_args(args(&["--bench"])), None);
        assert_eq!(
            filter_from_args(args(&["--bench", "graph/build", "other"])).as_deref(),
            Some("graph/build")
        );
    }

    #[test]
    fn a_filter_skips_every_id_that_does_not_contain_it() {
        let mut ran = Vec::new();
        let mut c = quick().with_filter(Some("graph/build"));
        let mut g = c.benchmark_group("graph");
        g.bench_function("build_a", |b| b.iter(|| ran.push("graph/build_a")));
        g.bench_function("check", |b| b.iter(|| ran.push("graph/check")));
        g.finish();
        c.bench_function("build", |b| b.iter(|| ran.push("build")));
        ran.dedup();
        assert_eq!(ran, ["graph/build_a"]);

        let mut count = 0;
        quick()
            .with_filter(None)
            .bench_function("any", |b| b.iter(|| count += 1));
        assert!(count > 0);
    }
}
