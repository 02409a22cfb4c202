//! A micro-benchmark runner with no dependencies, for kernel-level
//! benches: `earth-bench`'s `eigen` and `primitives` targets. Whole
//! workloads are timed by the `perfbench` workspace instead.
//!
//! Each benchmark runs a warmup, then `sample_size` timed iterations,
//! and reports mean/median/stddev/min/max. Results go to stderr as a
//! human line and to stdout as one JSON object per line, in the same
//! hand-rolled style as `earth-bench`'s `json.rs`.
//!
//! Smoke mode (`TESTKIT_BENCH_SMOKE=1` in the environment, or a
//! `--smoke` argument) runs a single iteration with no warmup so CI can
//! catch bench bit-rot without paying for real measurements.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Summary statistics of one benchmark's samples, in nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    /// Number of timed samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (midpoint average for even `n`).
    pub median_ns: f64,
    /// Population standard deviation.
    pub stddev_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// 50th percentile (nearest-rank; unlike `median_ns` this never
    /// averages two samples, so it is always an observed value).
    pub p50_ns: f64,
    /// 95th percentile (nearest-rank).
    pub p95_ns: f64,
    /// 99th percentile (nearest-rank).
    pub p99_ns: f64,
}

/// Exact summary statistics of a sample list (pure; unit-testable).
pub fn stats(samples: &[f64]) -> Stats {
    assert!(!samples.is_empty(), "stats over no samples");
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Stats {
        n,
        mean_ns: mean,
        median_ns: median,
        stddev_ns: var.sqrt(),
        min_ns: sorted[0],
        max_ns: sorted[n - 1],
        p50_ns: earth_sim::nearest_rank(&sorted, 0.50),
        p95_ns: earth_sim::nearest_rank(&sorted, 0.95),
        p99_ns: earth_sim::nearest_rank(&sorted, 0.99),
    }
}

impl Stats {
    /// One-line JSON record in the `bench/json.rs` style.
    pub fn to_json(&self, id: &str) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bench\":\"{id}\",\"n\":{},\"mean_ns\":{:.3},\"median_ns\":{:.3},\"stddev_ns\":{:.3},\"min_ns\":{:.3},\"max_ns\":{:.3},\"p50_ns\":{:.3},\"p95_ns\":{:.3},\"p99_ns\":{:.3}}}",
            self.n, self.mean_ns, self.median_ns, self.stddev_ns, self.min_ns, self.max_ns, self.p50_ns, self.p95_ns, self.p99_ns
        );
        s
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.3}s", ns / 1_000_000_000.0)
    }
}

/// The top-level bench context handed to every bench function by
/// [`bench_main!`](crate::bench_main).
pub struct Bench {
    smoke: bool,
    default_sample_size: usize,
    warmup_iters: usize,
}

impl Bench {
    /// Configuration from the environment: smoke mode via
    /// `TESTKIT_BENCH_SMOKE` or `--smoke`; other arguments (cargo's
    /// `--bench` etc.) are ignored.
    pub fn from_env() -> Bench {
        let smoke = std::env::var_os("TESTKIT_BENCH_SMOKE").is_some()
            || std::env::args().any(|a| a == "--smoke");
        Bench::new(smoke)
    }

    /// Explicit construction (used by the testkit's own tests).
    pub fn new(smoke: bool) -> Bench {
        Bench {
            smoke,
            default_sample_size: 60,
            warmup_iters: 10,
        }
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> Group<'_> {
        Group {
            owner: self,
            name: name.as_ref().to_string(),
            sample_size: None,
        }
    }

    /// Run one ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> Stats
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.default_sample_size;
        self.run_one(id.as_ref(), sample_size, f)
    }

    fn run_one<F>(&mut self, id: &str, sample_size: usize, mut f: F) -> Stats
    where
        F: FnMut(&mut Bencher),
    {
        let (samples, warmup) = if self.smoke {
            (1, 0)
        } else {
            (sample_size, self.warmup_iters)
        };
        let mut b = Bencher {
            samples_target: samples,
            warmup,
            samples_ns: Vec::with_capacity(samples),
        };
        f(&mut b);
        assert!(
            !b.samples_ns.is_empty(),
            "bench '{id}' never called Bencher::iter"
        );
        let st = stats(&b.samples_ns);
        eprintln!(
            "bench {id:<44} n={:<3} mean={} median={} stddev={}",
            st.n,
            human_time(st.mean_ns),
            human_time(st.median_ns),
            human_time(st.stddev_ns),
        );
        println!("{}", st.to_json(id));
        st
    }
}

/// A named benchmark group (criterion's `benchmark_group` shape).
pub struct Group<'a> {
    owner: &'a mut Bench,
    name: String,
    sample_size: Option<usize>,
}

impl Group<'_> {
    /// Override the per-benchmark sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = Some(n);
        self
    }

    /// Run one benchmark in this group as `group/name`.
    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> Stats
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.as_ref());
        let sample_size = self.sample_size.unwrap_or(self.owner.default_sample_size);
        self.owner.run_one(&full, sample_size, f)
    }

    /// End the group (nothing to flush; kept for call-shape parity).
    pub fn finish(self) {}
}

/// The per-benchmark timing handle.
pub struct Bencher {
    samples_target: usize,
    warmup: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Time `f` over warmup + sample iterations.
    pub fn iter<R, F>(&mut self, mut f: F)
    where
        F: FnMut() -> R,
    {
        for _ in 0..self.warmup {
            black_box(f());
        }
        for _ in 0..self.samples_target {
            let t = Instant::now();
            black_box(f());
            self.samples_ns.push(t.elapsed().as_nanos() as f64);
        }
    }

    /// Time `routine` over fresh `setup` outputs, excluding setup time.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        for _ in 0..self.warmup {
            black_box(routine(setup()));
        }
        for _ in 0..self.samples_target {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_exact_on_constant_samples() {
        let st = stats(&[250.0; 16]);
        assert_eq!(st.n, 16);
        assert_eq!(st.mean_ns, 250.0);
        assert_eq!(st.median_ns, 250.0);
        assert_eq!(st.stddev_ns, 0.0);
        assert_eq!(st.min_ns, 250.0);
        assert_eq!(st.max_ns, 250.0);
    }

    #[test]
    fn stats_median_and_spread() {
        let st = stats(&[1.0, 9.0, 5.0, 3.0]);
        assert_eq!(st.median_ns, 4.0);
        assert_eq!(st.min_ns, 1.0);
        assert_eq!(st.max_ns, 9.0);
        assert_eq!(st.mean_ns, 4.5);
    }

    #[test]
    fn p95_is_nearest_rank() {
        // 1..=100: rank ceil(0.95*100)=95 → the value 95.
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(stats(&samples).p95_ns, 95.0);
        // Small n degenerates to the max.
        assert_eq!(stats(&[3.0, 1.0, 2.0]).p95_ns, 3.0);
        assert_eq!(stats(&[7.0]).p95_ns, 7.0);
    }

    #[test]
    fn p50_p99_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let st = stats(&samples);
        assert_eq!(st.p50_ns, 50.0);
        assert_eq!(st.p99_ns, 99.0);
        // p50 picks an observed sample where median averages.
        let st = stats(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(st.median_ns, 2.5);
        assert_eq!(st.p50_ns, 2.0);
    }

    #[test]
    fn percentiles_single_sample_boundary() {
        let st = stats(&[42.0]);
        assert_eq!(st.p50_ns, 42.0);
        assert_eq!(st.p95_ns, 42.0);
        assert_eq!(st.p99_ns, 42.0);
    }

    #[test]
    fn percentiles_two_sample_boundary() {
        // n=2: rank ceil(0.5*2)=1 → the smaller; ceil(0.95*2)=2 and
        // ceil(0.99*2)=2 → the larger.
        let st = stats(&[10.0, 20.0]);
        assert_eq!(st.p50_ns, 10.0);
        assert_eq!(st.p95_ns, 20.0);
        assert_eq!(st.p99_ns, 20.0);
    }

    #[test]
    fn percentiles_all_equal_samples() {
        let st = stats(&[5.0; 9]);
        assert_eq!(st.p50_ns, 5.0);
        assert_eq!(st.p95_ns, 5.0);
        assert_eq!(st.p99_ns, 5.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn stats_over_empty_sample_panics() {
        let _ = stats(&[]);
    }

    #[test]
    fn json_record_is_wellformed() {
        let st = stats(&[2.0, 4.0]);
        let j = st.to_json("group/case");
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"bench\":\"group/case\""));
        assert!(j.contains("\"n\":2"));
    }

    #[test]
    fn smoke_mode_runs_exactly_one_sample() {
        let mut bench = Bench::new(true);
        let mut calls = 0u32;
        let st = bench.bench_function("smoke_probe", |b| {
            b.iter(|| calls += 1);
        });
        assert_eq!(st.n, 1);
        assert_eq!(calls, 1, "smoke mode must run exactly one iteration");
    }

    #[test]
    fn iter_batched_times_only_the_routine() {
        let mut bench = Bench::new(true);
        let st = bench.bench_function("batched_probe", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len());
        });
        assert_eq!(st.n, 1);
        assert!(st.mean_ns >= 0.0);
    }
}
