//! End-to-end benchmark of the AdaParse reproduction.
//!
//! Three workloads, each a seeded, self-checking run of the library's public
//! API:
//!
//! * `campaign` — a streaming binary campaign over real documents
//!   (extract → route → parse → score → JSONL), then the causal simulated
//!   closed loop over its routed scores;
//! * `cascade` — a k = 4 full-frontier cascade with per-page delegation,
//!   then one executor run of its task graph;
//! * `serve` — the resident three-tenant ingest service (control plane
//!   only).
//!
//! A run with `--trace 0` reports the end-to-end metrics of
//! `BENCHMARK.json`; a run with `--trace 1` reports its per-layer metrics
//! from spans recorded around calls into each layer. `NOTES.md` beside
//! this crate describes every metric.

pub mod alloc;
pub mod campaign;
pub mod harness;
pub mod inputs;
pub mod metrics;
pub mod pass;
pub mod serve;
pub mod stats;
pub mod trace;

use harness::{Args, Outcome};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["campaign", "cascade", "serve"];

/// Usage line for argument errors.
pub const USAGE: &str =
    "usage: perfbench --workload <campaign|cascade|serve> --seed <n> --seconds <n> --trace <0|1>";

/// Parse `--workload`, `--seed`, `--seconds` and `--trace`; all four are
/// required.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run one workload.
pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "campaign" => campaign::run(campaign::Kind::Campaign, args),
        "cascade" => campaign::run(campaign::Kind::Cascade, args),
        "serve" => serve::run(args),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}
