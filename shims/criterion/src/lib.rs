//! Offline shim of `criterion`.
//!
//! Provides the harness API the workspace's benches use and reports simple
//! wall-clock statistics (mean over samples) to stdout — no plots, no
//! statistical regression analysis, no `target/criterion` reports.

use std::time::Instant;

pub use std::hint::black_box;

const DEFAULT_SAMPLES: usize = 20;

/// Entry point handed to each bench function.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("\n== group: {name} ==");
        BenchmarkGroup {
            name,
            sample_size: DEFAULT_SAMPLES,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        run_one("", &id.into().0, DEFAULT_SAMPLES, |b| f(b));
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets how many timed samples each benchmark in the group collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        run_one(&self.name, &id.into().0, self.sample_size, |b| f(b));
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) {
        run_one(&self.name, &id.into().0, self.sample_size, |b| f(b, input));
    }

    /// Ends the group (upstream flushes reports here; the shim prints live).
    pub fn finish(self) {}
}

/// A benchmark identifier (`function` or `function/parameter`).
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{parameter}", function.into()))
    }

    /// Just the parameter as the name.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Times closures handed to it by the benchmark body.
pub struct Bencher {
    samples_ns: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, `sample_size` times, recording each duration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(group: &str, id: &str, sample_size: usize, mut f: F) {
    let mut b = Bencher {
        samples_ns: Vec::with_capacity(sample_size),
        sample_size,
    };
    f(&mut b);
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    if b.samples_ns.is_empty() {
        println!("{label:<48} (no samples)");
        return;
    }
    let mean = b.samples_ns.iter().sum::<f64>() / b.samples_ns.len() as f64;
    let min = b.samples_ns.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = b.samples_ns.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "{label:<48} mean {:>12}  min {:>12}  max {:>12}  ({} samples)",
        fmt_ns(mean),
        fmt_ns(min),
        fmt_ns(max),
        b.samples_ns.len()
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Declares a benchmark group runner, mirroring upstream's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main`, mirroring upstream's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ids_format_like_upstream() {
        assert_eq!(BenchmarkId::new("f", 32).0, "f/32");
        assert_eq!(BenchmarkId::from_parameter("tcgnn").0, "tcgnn");
    }

    #[test]
    fn bencher_collects_requested_samples() {
        let mut ran = 0usize;
        run_one("g", "id", 5, |b| {
            b.iter(|| {
                ran += 1;
            })
        });
        assert_eq!(ran, 5);
    }
}
