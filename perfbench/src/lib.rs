//! The repository benchmark.
//!
//! Two workloads, each a different path through the stack:
//!
//! * `offline_batch` — `Solver::solve_batch` over heavy-tailed MinBusy and
//!   budgeted MaxThroughput batches: dispatch, the offline algorithms and the
//!   pool; no socket, no WAL.
//! * `exact_bound` — branch-and-bound under a fixed node budget: the exact
//!   oracle, on no other workload's path.
//!
//! Every workload reports the same five end-to-end metrics (see
//! [`E2E_METRICS`]); `README.md` beside this crate defines each one per
//! workload.  A traced run (`--trace 1`) measures the workload in alternating
//! untraced and traced slices, and then prices every layer bottom-up on the
//! workload's own inputs ([`layers`]): the online engine, the registry, the
//! write-ahead log and a loopback daemon ([`wire`]) included.

pub mod exact;
pub mod layers;
pub mod offline;
pub mod spans;
pub mod stats;
pub mod wire;

use std::path::Path;

use spans::Spans;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline batch solving.
    OfflineBatch,
    /// Exact bounding under a node budget.
    ExactBound,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::OfflineBatch, Workload::ExactBound];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineBatch => "offline_batch",
            Workload::ExactBound => "exact_bound",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{name}' (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// Input sizes: `Full` for measurement, `Tiny` for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` records.
    Full,
    /// Seconds-scale inputs for tests.
    Tiny,
}

/// The end-to-end metrics every workload reports: `(name, unit)`.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cost_ratio", "ratio"),
];

/// Run `f` on a thread pinned to the `index`-th CPU the process may use.
pub fn on_cpu<R: Send>(index: usize, f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                wire::pin_to_cpu(index);
                f()
            })
            .join()
            .expect("a pinned worker panicked")
    })
}

/// Time `set_up` on each of the first two CPUs and keep the fastest time
/// (for set-ups that are pure computation).  On a shared host one CPU can
/// run at half the other's speed for minutes, so which CPU a run landed on
/// would otherwise decide the figure.  A set-up shorter than
/// [`SETUP_SAMPLE_S`] repeats on its CPU until that much time has gone into
/// it: at a fraction of a millisecond, one cache miss or page fault more or
/// less would otherwise move the figure by tens of percent.
pub fn set_up_on_each_cpu<T: Send>(set_up: impl Fn() -> T + Sync) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for cpu in 0..2 {
        let (value, secs) = on_cpu(cpu, || {
            let mut fastest = f64::INFINITY;
            let mut spent = 0.0;
            loop {
                let started = std::time::Instant::now();
                let value = set_up();
                let secs = started.elapsed().as_secs_f64();
                fastest = fastest.min(secs);
                spent += secs;
                if spent >= SETUP_SAMPLE_S {
                    return (value, fastest);
                }
            }
        });
        best = best.min(secs);
        kept = Some(value);
    }
    (kept.expect("two set-ups ran"), best)
}

/// Time a set-up sample spends on each CPU at least.
pub const SETUP_SAMPLE_S: f64 = 0.002;

/// Set-ups a run times at least (spread over the run by the callers, so the
/// median sees the host's speed across the run, not at one instant).
pub const MIN_SETUPS: usize = 5;

/// What one untraced measurement of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Work completed per second (requests, jobs or instances).
    pub throughput_per_s: f64,
    /// Median operation latency, µs.
    pub p50_us: f64,
    /// 99th-percentile operation latency, µs.
    pub p99_us: f64,
    /// Delivered busy time over a lower bound on it.
    pub cost_ratio: f64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations failed or refused, plus failed checks.
    pub failed: u64,
    /// The first problems found by the checks.
    pub problems: Vec<String>,
    /// Workload-specific figures printed beside the metrics.
    pub notes: Vec<(String, f64, &'static str)>,
}

impl E2e {
    /// The five end-to-end values in [`E2E_METRICS`] order.
    pub fn values(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.throughput_per_s,
            self.p50_us,
            self.p99_us,
            self.cost_ratio,
        ]
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// The workload's configuration as JSON (for provenance).
    pub config: String,
    /// Problems found and workload-specific figures, for the human reader.
    pub report: Vec<String>,
}

/// Derive a per-item seed from the run seed and a path of indices.
pub fn mix_seed(seed: u64, path: &[u64]) -> u64 {
    // SplitMix64 steps keep neighbouring paths independent.
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &p in path {
        x = x.wrapping_add(p.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// The workload's configuration as JSON.
pub fn config_json(workload: Workload, scale: Scale) -> String {
    match workload {
        Workload::OfflineBatch => offline::OfflineConfig::new(scale).json(),
        Workload::ExactBound => exact::ExactConfig::new(scale).json(),
    }
}

/// Measure `workload` end to end for `seconds`.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    spans: Option<&Spans>,
) -> Result<E2e, String> {
    match workload {
        Workload::OfflineBatch => {
            offline::measure(&offline::OfflineConfig::new(scale), seed, seconds, spans)
        }
        Workload::ExactBound => {
            exact::measure(&exact::ExactConfig::new(scale), seed, seconds, spans)
        }
    }
}

/// Slices per side of a traced run's untraced/traced comparison.
const TRACE_SLICES: usize = 2;

/// Each end-to-end metric's best value over `runs` (lowest time, highest
/// throughput), in [`E2E_METRICS`] order.  Host noise only ever makes a
/// figure worse, so comparing best values leaves the cost of tracing.
fn best(runs: &[E2e]) -> [f64; 5] {
    let mut best = runs[0].values();
    for run in &runs[1..] {
        for (i, value) in run.values().into_iter().enumerate() {
            best[i] = if E2E_METRICS[i].0 == "throughput_per_s" {
                best[i].max(value)
            } else {
                best[i].min(value)
            };
        }
    }
    best
}

/// Run the benchmark once.  Untraced, it reports [`E2E_METRICS`].  Traced, it
/// measures the workload in alternating untraced and traced slices (the
/// difference of their best figures is the tracing overhead), prices every
/// layer, writes the spans to `out_dir`, and reports [`layers::per_layer`]
/// (the overheads included).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out_dir: &Path,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut report = Vec::new();
    let mut note = |e2e: &E2e, tag: &str| {
        for (name, value, unit) in &e2e.notes {
            report.push(format!("{tag}{name} = {value} {unit}"));
        }
        for problem in &e2e.problems {
            report.push(format!("{tag}problem: {problem}"));
        }
        report.push(format!(
            "{tag}failed_share = {} ratio",
            e2e.failed as f64 / e2e.attempted.max(1) as f64
        ));
    };
    if !trace {
        let e2e = measure(workload, seed, seconds, scale, None)?;
        note(&e2e, "");
        let metrics = E2E_METRICS
            .iter()
            .zip(e2e.values())
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect();
        return Ok(Outcome {
            correct: e2e.failed == 0 && e2e.problems.is_empty(),
            attempted: e2e.attempted,
            failed: e2e.failed,
            metrics,
            config: config_json(workload, scale),
            report,
        });
    }

    let spans = Spans::new();
    let slice = seconds / (2 * TRACE_SLICES) as f64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for k in 0..TRACE_SLICES {
        plain.push(measure(workload, seed, slice, scale, None)?);
        traced.push(measure(workload, seed, slice, scale, Some(&spans))?);
        note(&plain[k], &format!("untraced.{k}."));
        note(&traced[k], &format!("traced.{k}."));
    }
    let mut metrics = layers::waterfall(workload, seed, scale, &spans, out_dir)?;
    // The cost ratio is deterministic, so its overhead is zero by construction.
    for (&(name, unit), (p, t)) in E2E_METRICS
        .iter()
        .zip(best(&plain).into_iter().zip(best(&traced)))
        .filter(|((name, _), _)| *name != "cost_ratio")
    {
        metrics.push(Metric {
            name: format!("trace.overhead.{name}"),
            value: t - p,
            unit,
        });
    }
    let path = out_dir.join(format!("spans-{}-{seed}.jsonl", workload.name()));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.push(format!(
        "spans = {} written to {}",
        spans.len(),
        path.display()
    ));
    let slices = plain.iter().chain(&traced);
    let failed = slices.clone().map(|e| e.failed).sum();
    Ok(Outcome {
        correct: failed == 0 && slices.clone().all(|e| e.problems.is_empty()),
        attempted: slices.map(|e| e.attempted).sum(),
        failed,
        metrics,
        config: format!(
            "{{\"workload\":{},\"waterfall\":{}}}",
            config_json(workload, scale),
            layers::config_json(scale)
        ),
        report,
    })
}
