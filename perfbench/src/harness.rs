//! What every workload shares: arguments, repeated set-up, the timed loop,
//! and the run's outcome.

use std::time::Instant;

use crate::alloc;
use crate::metrics::{end_to_end, per_layer, Metrics, Tally};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Everything a run reports.
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// An empty outcome for the run's mode.
    pub fn new(args: &Args) -> Self {
        Outcome {
            tally: Tally::default(),
            metrics: Metrics::new(if args.trace { per_layer() } else { end_to_end() }),
            notes: Vec::new(),
            tracer: None,
        }
    }

    /// Add a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Build the inputs [`SETUP_REPEATS`] times, each from scratch, and check
/// every build digests the same. Returns the last build and the median
/// set-up time.
pub fn repeated_setup<T>(
    outcome: &mut Outcome,
    setup: impl Fn(&mut Tracer) -> T,
    digest: impl Fn(&T) -> u64,
) -> (T, f64) {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut digests = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous build first so set-ups do not overlap in memory.
        drop(last.take());
        let started = Instant::now();
        let inputs = setup(&mut Tracer::new(false));
        seconds.push(started.elapsed().as_secs_f64());
        digests.push(digest(&inputs));
        last = Some(inputs);
    }
    let problems = if digests.iter().all(|&d| d == digests[0]) {
        Vec::new()
    } else {
        vec![format!("set-up is not deterministic: input digests {digests:x?}")]
    };
    outcome.tally.record(SETUP_REPEATS as u64, problems);
    let setup_s = median(&seconds).expect("at least one set-up");
    outcome.note(format!("setup: {SETUP_REPEATS} builds, median {setup_s:.3} s (each {seconds:.3?})"));
    (last.expect("at least one set-up"), setup_s)
}

/// One iteration of a timed loop.
pub struct Iteration<T> {
    /// Documents the iteration completed.
    pub docs: usize,
    /// Wall seconds it took.
    pub seconds: f64,
    /// Digest of everything it output.
    pub digest: u64,
    /// Output problems the iteration's own checks found.
    pub problems: Vec<String>,
    /// What it output; the loop keeps only the latest.
    pub output: T,
}

/// Summary of a timed loop.
pub struct Timed {
    /// Throughput of the fastest iteration: documents over the shortest
    /// per-iteration wall time.
    pub docs_per_s: f64,
    /// Peak live heap over the loop.
    pub peak_mb: f64,
}

/// Run `iteration` repeatedly until `seconds` have passed (at least once),
/// check every iteration's outputs and that all iterations output the same
/// digest, and summarize. Returns the summary and the last iteration's
/// output; each earlier output is freed before the next iteration starts,
/// so the peak heap holds one iteration's output, as the program would.
///
/// Every iteration does the same work, so throughput is that of the
/// fastest one. On the shared hosts this benchmark was tuned on, each vCPU
/// slows by 1.4-2x for stretches of one to thirty seconds as neighbouring
/// load comes and goes. Interference only adds time, so the fastest of
/// many short iterations measures the program's own cost, while a median
/// or low quantile measures how much of the run the host was busy. The
/// quantiles and the ratio of totals are printed beside it.
pub fn timed_loop<T>(
    outcome: &mut Outcome,
    seconds: f64,
    mut iteration: impl FnMut() -> Iteration<T>,
) -> (Timed, T) {
    alloc::reset_peak();
    let mut last = None;
    let started = Instant::now();
    let mut rates = Vec::new();
    let (mut total_docs, mut total_seconds) = (0usize, 0.0);
    let mut first_digest = None;
    while rates.is_empty() || started.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        let Iteration { docs, seconds, digest, mut problems, output } = iteration();
        last = Some(output);
        let expected = *first_digest.get_or_insert(digest);
        if digest != expected {
            problems.push(format!("iteration {} output digest {digest:#x} != {expected:#x}", rates.len()));
        }
        outcome.tally.record(docs as u64, problems);
        rates.push(docs as f64 / seconds.max(1e-9));
        total_docs += docs;
        total_seconds += seconds;
    }
    let peak_mb = alloc::mib(alloc::peak_bytes());
    let q = |p: f64| quantile(&rates, p).expect("at least one iteration");
    outcome.note(format!(
        "timed: {} iterations in {:.2} s; per-iteration docs/s p10 {:.4}, p25 {:.4}, median {:.4}, p75 {:.4}, p90 {:.4}, max {:.4}; {:.4} overall; output digest {:#018x}",
        rates.len(),
        started.elapsed().as_secs_f64(),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(1.0),
        total_docs as f64 / total_seconds.max(1e-9),
        first_digest.unwrap_or(0),
    ));
    (Timed { docs_per_s: q(1.0), peak_mb }, last.expect("at least one iteration"))
}

/// Copy a traced run's per-name self times into `<name>_s` metrics.
pub fn record_self_times(tracer: &Tracer, metrics: &mut Metrics) {
    for (name, seconds) in tracer.self_seconds() {
        if name == "pass" {
            metrics.set("trace.unaccounted_s", seconds);
        } else {
            metrics.set(&format!("{name}_s"), seconds);
        }
    }
}

/// The workers a campaign uses: every core the host offers.
pub fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
