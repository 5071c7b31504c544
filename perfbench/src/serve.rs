//! The `serve` workload: the resident three-tenant ingest service over a
//! long arrival horizon, with the autoscaler on. Control plane only: the
//! arrivals carry router scores measured on a real document sample, and no
//! text is parsed while the service runs.

use std::time::Instant;

use adaparse::{
    run_service, run_service_instrumented, AdaParseConfig, AutoscaleConfig, CampaignBudget, DocArrival,
    ServeConfig, ServeReport, SoakStats, TenantSpec, TenantTrace, WorkloadSpec,
};
use scicorpus::categories::CategoryMix;
use scicorpus::{generate_arrivals, ArrivalConfig, ArrivalPattern};

use crate::campaign::record_executor;
use crate::harness::{record_self_times, repeated_setup, timed_loop, Args, Iteration, Outcome};
use crate::inputs::{
    corpus_digest, describe, record_properties, routed_scores, stratified_corpus, train_router, Corpus,
};
use crate::metrics::Metrics;
use crate::stats::{failed_share, quantile, samples_beyond, tail_percentile, Digest};
use crate::trace::Tracer;

/// Routed documents whose scores the arrivals reuse.
const SAMPLE_DOCS: usize = 128;
/// Arrival volume in `serve_steady`'s `--scale` units of 510 documents:
/// 400 units are 204 000 arrivals.
const SCALE: usize = 400;
/// Volume of each rung of the sustained-rate ladder: 25 500 arrivals.
const LADDER_SCALE: usize = 50;
/// Arrival-rate multipliers of the sustained-rate ladder, wide enough to
/// pass the fleet's capacity.
const LADDER: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 32.0];
/// `serve_steady`'s mean arrival rates of the three tenants, docs/s.
const RATES: [f64; 3] = [0.8, 0.35, 0.25];
/// Documents per burst of the bursty tenant: `serve_steady`'s burst at its
/// default scale of 8. It scales its bursts with its volume; here the
/// volume grows and a burst stays a burst.
const BURST: usize = 32;

struct Inputs {
    sample: Corpus,
    scores: Vec<f64>,
    traces: Vec<TenantTrace>,
    train_digest: u64,
}

/// Arrival times from `scicorpus`, each carrying the next sample score.
fn arrivals(
    n: usize,
    seed: u64,
    rate: f64,
    pattern: ArrivalPattern,
    scores: &[f64],
    offset: usize,
) -> Vec<DocArrival> {
    generate_arrivals(&ArrivalConfig { n_documents: n, seed, mean_rate_per_second: rate, pattern })
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| DocArrival {
            at_seconds: arrival.at_seconds,
            score: scores[(offset + i) % scores.len()],
        })
        .collect()
}

/// `serve_steady`'s three tenants: a steady tenant with most of the volume,
/// a diurnal tenant, and a budgeted bursty tenant, at `factor` times the
/// base rates.
fn tenant_traces(seed: u64, scores: &[f64], scale: usize, factor: f64) -> Vec<TenantTrace> {
    let workload = WorkloadSpec { documents: 0, pages_per_doc: 8, mb_per_doc: 50.0 };
    let spec = |name: &str, alpha: f64, weight: f64, budget: Option<CampaignBudget>| TenantSpec {
        name: name.to_string(),
        alpha,
        budget,
        weight,
        max_pending: 4096,
        workload,
        ..Default::default()
    };
    let third = scores.len() / 3;
    vec![
        TenantTrace {
            spec: spec("steady-volume", 0.25, 2.0, None),
            arrivals: arrivals(300 * scale, seed, RATES[0] * factor, ArrivalPattern::Steady, scores, 0),
        },
        TenantTrace {
            spec: spec("diurnal", 0.15, 1.0, None),
            arrivals: arrivals(
                120 * scale,
                seed ^ 0xD1A1,
                RATES[1] * factor,
                ArrivalPattern::Diurnal { period_seconds: 600.0 },
                scores,
                third,
            ),
        },
        TenantTrace {
            spec: spec("budgeted-bursty", 0.35, 1.0, Some(CampaignBudget::seconds(4_000.0 * scale as f64))),
            arrivals: arrivals(
                90 * scale,
                seed ^ 0xB357,
                RATES[2] * factor,
                ArrivalPattern::Bursty { burst_size: BURST },
                scores,
                2 * third,
            ),
        },
    ]
}

/// `serve_steady`'s service (4 nodes, 10 s epochs, default 60 s p99 SLO)
/// with the default autoscaler (1 to 8 nodes) on.
fn config() -> ServeConfig {
    ServeConfig {
        engine: AdaParseConfig::default(),
        epoch_seconds: 10.0,
        nodes: 4,
        autoscale: Some(AutoscaleConfig::default()),
        ..Default::default()
    }
}

fn setup(seed: u64, tracer: &mut Tracer) -> Inputs {
    let mix = CategoryMix::paper_default();
    let (engine, train_digest) = train_router(AdaParseConfig::default(), &mix, seed, tracer);
    let sample =
        tracer.span("scicorpus.generate", None, |_| stratified_corpus(&mix, SAMPLE_DOCS, 1..=4, seed));
    let scores = routed_scores(&engine, &sample.documents, seed, tracer);
    let traces = tenant_traces(seed, &scores, SCALE, 1.0);
    Inputs { sample, scores, traces, train_digest }
}

fn inputs_digest(inputs: &Inputs) -> u64 {
    let mut digest = Digest::default();
    digest.u64(inputs.train_digest);
    corpus_digest(&inputs.sample, &mut digest);
    for trace in &inputs.traces {
        for arrival in &trace.arrivals {
            digest.f64(arrival.at_seconds).f64(arrival.score);
        }
    }
    digest.value()
}

fn completed(report: &ServeReport) -> usize {
    report.tenants.iter().map(|t| t.completed).sum()
}

fn arrived(report: &ServeReport) -> usize {
    report.tenants.iter().map(|t| t.arrived).sum()
}

/// Every arrival is admitted or rejected, and every admitted document
/// completes or is reported unfinished.
fn check(report: &ServeReport, traces: &[TenantTrace]) -> Vec<String> {
    let mut problems = Vec::new();
    for (tenant, trace) in report.tenants.iter().zip(traces) {
        if tenant.arrived != trace.arrivals.len() || tenant.arrived != tenant.admitted + tenant.rejected {
            problems.push(format!(
                "{}: {} arrivals in the trace, report says arrived {} = admitted {} + rejected {}",
                tenant.name,
                trace.arrivals.len(),
                tenant.arrived,
                tenant.admitted,
                tenant.rejected
            ));
        }
        if tenant.admitted != tenant.completed + tenant.unfinished {
            problems.push(format!(
                "{}: admitted {} != completed {} + unfinished {}",
                tenant.name, tenant.admitted, tenant.completed, tenant.unfinished
            ));
        }
    }
    let admitted: usize = report.tenants.iter().map(|t| t.admitted).sum();
    let rejected: usize = report.tenants.iter().map(|t| t.rejected).sum();
    if report.tenants.len() != traces.len() || admitted != report.admitted || rejected != report.rejected {
        problems.push("per-tenant and service totals disagree".to_string());
    }
    problems
}

fn report_digest(report: &ServeReport) -> u64 {
    let mut digest = Digest::default();
    digest.u64(report.fingerprint).u64(report.epochs as u64).f64(report.makespan_seconds);
    digest.u64(report.admitted as u64).u64(report.rejected as u64).f64(report.mean_active_nodes);
    digest.value()
}

/// Highest ladder rate (docs/s over all tenants) at which every tenant
/// meets its SLO with nothing rejected or left unfinished, 0 when no rung
/// qualifies, and one line per rung.
fn sustained_rate(seed: u64, scores: &[f64]) -> (f64, Vec<String>) {
    let base: f64 = RATES.iter().sum();
    let mut best = 0.0;
    let mut rungs = Vec::new();
    for factor in LADDER {
        let traces = tenant_traces(seed, scores, LADDER_SCALE, factor);
        let report = run_service(&config(), &traces);
        let unfinished: usize = report.tenants.iter().map(|t| t.unfinished).sum();
        let sustained = report.all_slos_met() && report.rejected == 0 && unfinished == 0;
        if sustained {
            best = f64::max(best, base * factor);
        }
        rungs.push(format!(
            "{:.1}/s {} (slo_ratio_worst {:.2}, rejected {}, unfinished {unfinished}, mean fleet {:.2})",
            base * factor,
            if sustained { "ok" } else { "missed" },
            report.worst_slo_ratio(),
            report.rejected,
            report.mean_active_nodes,
        ));
    }
    (best, rungs)
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::new(args);
    if args.trace {
        traced(args, &mut outcome);
        return outcome;
    }
    let (inputs, setup_s) = repeated_setup(&mut outcome, |tracer| setup(args.seed, tracer), inputs_digest);
    outcome.note(format!("routed sample: {}", describe(&inputs.sample)));
    let (timed, report) = timed_loop(&mut outcome, args.seconds, || {
        let started = Instant::now();
        let (report, _) = run_service_instrumented(&config(), &inputs.traces);
        let seconds = started.elapsed().as_secs_f64();
        Iteration {
            docs: completed(&report),
            seconds,
            digest: report_digest(&report),
            problems: check(&report, &inputs.traces),
            output: report,
        }
    });
    note_service(&mut outcome, &report, &inputs.scores, args.seed);
    let m = &mut outcome.metrics;
    m.set("setup_s", setup_s);
    m.set("docs_per_s", timed.docs_per_s);
    m.set("peak_mb", timed.peak_mb);
    m.set("sim_docs_per_s", completed(&report) as f64 / report.makespan_seconds);
    // The service parses no text: its quality figures carry the neutral 1.
    m.set("bleu", 1.0);
    m.set("car", 1.0);
    m.set("success_share", 1.0 - failed_share(report.rejected, arrived(&report)));
    outcome
}

/// Print the service's figures and run the sustained-rate ladder; returns
/// the sustained rate.
fn note_service(outcome: &mut Outcome, report: &ServeReport, scores: &[f64], seed: u64) -> f64 {
    let latency = &report.latency;
    outcome.note(format!(
        "service: {} arrivals, {} completed, {} rejected (failed_share {:.5}), {} epochs; slo_ratio_worst {:.3}; mean fleet {:.2} nodes",
        arrived(report),
        completed(report),
        report.rejected,
        failed_share(report.rejected, arrived(report)),
        report.epochs,
        report.worst_slo_ratio(),
        report.mean_active_nodes,
    ));
    // The library summarizes latencies as p50, p99 and max, so p99 is the
    // highest percentile the benchmark can report.
    let tail = tail_percentile(latency.count).map_or("none".to_string(), |p| format!("p{p}"));
    outcome.note(format!(
        "time-to-parsed over {} samples: p50_ttp_s {:.3} s, p99_ttp_s {:.3} s ({} samples beyond p99), max {:.3} s; highest percentile with >= 10 samples beyond: {tail}",
        latency.count,
        latency.p50_seconds,
        latency.p99_seconds,
        samples_beyond(latency.count, 99.0),
        latency.max_seconds,
    ));
    let (sustained, rungs) = sustained_rate(seed, scores);
    outcome.note(format!(
        "sustained_rate {sustained:.2} docs/s; ladder of {} arrivals per rung:",
        510 * LADDER_SCALE
    ));
    for rung in rungs {
        outcome.note(format!("  {rung}"));
    }
    sustained
}

fn traced(args: &Args, outcome: &mut Outcome) {
    let mut tracer = Tracer::new(true);
    let inputs = setup(args.seed, &mut tracer);
    record_properties(&inputs.sample, &mut outcome.metrics);
    let (report, soak) =
        tracer.span("serve.run", None, |_| run_service_instrumented(&config(), &inputs.traces));
    let problems = check(&report, &inputs.traces);
    outcome.tally.record(arrived(&report) as u64, problems);
    let sustained = note_service(outcome, &report, &inputs.scores, args.seed);
    let bound = 2 * soak.peak_in_flight.max(1);
    outcome.note(format!(
        "retained rows: peak {} vs bound 2 x peak in-flight = {bound} ({} epochs)",
        soak.peak_retained_rows, report.epochs
    ));

    let m = &mut outcome.metrics;
    record_self_times(&tracer, m);
    record_serve(&report, &soak, m);
    m.set("sustained_rate", sustained);
    m.zero_unset();
    outcome.tracer = Some(tracer);
}

fn record_serve(report: &ServeReport, soak: &SoakStats, m: &mut Metrics) {
    m.set("failed_share", failed_share(report.rejected, arrived(report)));
    m.set("p50_ttp_s", report.latency.p50_seconds);
    m.set("p99_ttp_s", report.latency.p99_seconds);
    m.set("ttp_samples", report.latency.count as f64);
    m.set("slo_ratio_worst", report.worst_slo_ratio());
    m.set("serve.epochs", report.epochs as f64);
    let walls = &soak.epoch_wall_seconds;
    m.set("serve.epoch_wall_p50_us", quantile(walls, 0.5).unwrap_or(0.0) * 1e6);
    m.set("serve.epoch_wall_p99_us", quantile(walls, 0.99).unwrap_or(0.0) * 1e6);
    m.set("serve.peak_retained_rows", soak.peak_retained_rows as f64);
    m.set("serve.retained_bound", (2 * soak.peak_in_flight.max(1)) as f64);
    m.set("serve.mean_active_nodes", report.mean_active_nodes);
    record_executor(&report.executor_report, m);
}
