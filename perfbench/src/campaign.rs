//! The `campaign` and `cascade` workloads: real documents parsed, scored
//! and written by the campaign pipeline, then simulated on a cluster.

use std::ops::RangeInclusive;
use std::time::Instant;

use adaparse::{
    run_closed_loop, tasks_for_cascade_with_affinity, AdaParseConfig, AdaParseEngine, CampaignPipeline,
    CascadeConfig, ControllerConfig, NodePlan, PipelineConfig, SimLoopConfig, SimLoopReport, WorkloadSpec,
};
use docmodel::DocCategory;
use hpcsim::{CampaignReport, CausalityMode, ClusterConfig, ExecutorConfig, LustreModel, WorkflowExecutor};
use parsersim::ParserKind;
use scicorpus::categories::CategoryMix;

use crate::harness::{record_self_times, repeated_setup, timed_loop, workers, Args, Iteration, Outcome};
use crate::inputs::{corpus_digest, describe, record_properties, stratified_corpus, train_router, Corpus};
use crate::metrics::Metrics;
use crate::pass::{sequential_pass, PassOutput, RecordingSink, Routing};
use crate::stats::{failed_share, median, Digest};
use crate::trace::{process_cpu_seconds, Tracer};

/// Documents per corpus.
const DOCS: usize = 64;
/// Pages per document. Scoring cost grows with the square of a document's
/// text, so short documents keep an iteration between one and two seconds
/// and a run holds enough iterations for its fast ones to be quiet-host
/// time (see `timed_loop`); half of them still have ground truth above the
/// banded-CAR threshold.
const PAGES: RangeInclusive<usize> = 1..=2;
/// Selection window: well below the corpus, so waves overlap.
pub const WINDOW: usize = 12;
/// Documents per shard inside a wave.
const SHARD: usize = 2;
/// Simulated cluster size.
const NODES: usize = 4;
/// Simulated input size per document.
const MB_PER_DOC: f64 = 20.0;

/// Which of the two campaign workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Binary streaming campaign over the paper's category mix.
    Campaign,
    /// k = 4 full-frontier cascade with per-page delegation over a
    /// scan- and table-heavy mix.
    Cascade,
}

impl Kind {
    fn mix(self) -> CategoryMix {
        match self {
            Kind::Campaign => CategoryMix::paper_default(),
            Kind::Cascade => CategoryMix {
                weights: vec![
                    (DocCategory::Scanned, 0.30),
                    (DocCategory::TablesHeavy, 0.25),
                    (DocCategory::Multilingual, 0.10),
                    (DocCategory::CleanBornDigital, 0.35),
                ],
            },
        }
    }

    /// Workers of the campaign pipeline. The binary campaign uses every
    /// core, as the paper's campaign does. The cascade runs on one: its
    /// stages spread documents over the whole pool, so with two workers an
    /// iteration's time depended on which worker drew the last long
    /// document and on two vCPUs' interference at once, and the fastest
    /// iteration of a run swung between 53 and 74 docs/s over five seeds.
    /// On one worker it measures the cascade's own work.
    fn workers(self) -> usize {
        match self {
            Kind::Campaign => workers(),
            Kind::Cascade => 1,
        }
    }

    fn engine_config(self) -> AdaParseConfig {
        match self {
            Kind::Campaign => AdaParseConfig::default(),
            // Marker at the top of the frontier, as in the cascade ablation.
            Kind::Cascade => AdaParseConfig { high_quality_parser: ParserKind::Marker, ..Default::default() },
        }
    }
}

/// The cascade's configuration: the full frontier over the default parser
/// with per-page delegation, its α rescaled so it buys the same upgrade
/// dollars per document as the binary campaign at the engine's α.
fn cascade_config(config: &AdaParseConfig) -> CascadeConfig {
    let credit_per_doc = config.alpha * parsersim::page_dollars(config.high_quality_parser);
    let mut cascade = CascadeConfig::full(config, WINDOW).by_page();
    let costliest = cascade.frontier.costliest().map_or(1.0, |entry| entry.cost_per_page);
    cascade.alpha = credit_per_doc / costliest;
    cascade
}

struct Inputs {
    corpus: Corpus,
    engine: AdaParseEngine,
    pipeline: CampaignPipeline,
    cascade: Option<CascadeConfig>,
    train_digest: u64,
}

fn setup(kind: Kind, seed: u64, tracer: &mut Tracer) -> Inputs {
    let mix = kind.mix();
    let (engine, train_digest) = train_router(kind.engine_config(), &mix, seed, tracer);
    let corpus =
        tracer.span("scicorpus.generate", None, |_| stratified_corpus(&mix, DOCS, PAGES, seed));
    let pipeline = CampaignPipeline::new(PipelineConfig {
        shard_size: SHARD,
        ..PipelineConfig::streaming(kind.workers(), WINDOW)
    });
    let cascade = (kind == Kind::Cascade).then(|| cascade_config(engine.config()));
    Inputs { corpus, engine, pipeline, cascade, train_digest }
}

fn inputs_digest(inputs: &Inputs) -> u64 {
    let mut digest = Digest::default();
    digest.u64(inputs.train_digest);
    corpus_digest(&inputs.corpus, &mut digest);
    digest.value()
}

fn workload_spec(corpus: &Corpus) -> WorkloadSpec {
    let pages: usize = corpus.documents.iter().map(|doc| doc.page_count()).sum();
    let pages_per_doc = (pages as f64 / corpus.documents.len().max(1) as f64).round().max(1.0) as usize;
    WorkloadSpec { documents: corpus.documents.len(), pages_per_doc, mb_per_doc: MB_PER_DOC }
}

/// The campaign's simulated cluster run.
enum Sim {
    /// Causal closed loop over the campaign's routed scores.
    Loop(Box<SimLoopReport>),
    /// One executor run of the cascade's task graph.
    Executor(Box<CampaignReport>),
}

impl Sim {
    fn executor(&self) -> &CampaignReport {
        match self {
            Sim::Loop(report) => &report.executor_report,
            Sim::Executor(report) => report,
        }
    }

    fn makespan(&self) -> f64 {
        match self {
            Sim::Loop(report) => report.makespan_seconds,
            Sim::Executor(report) => report.makespan_seconds,
        }
    }
}

/// Everything one untraced campaign outputs.
struct Run {
    records: Vec<u64>,
    choices: Vec<adaparse::ParserChoice>,
    parsers: Vec<ParserKind>,
    scores: Vec<f64>,
    quality: adaparse::CampaignQuality,
    failures: usize,
    sink_bytes: u64,
    digest: u64,
    sim: Sim,
}

fn simulate_loop(engine: &AdaParseEngine, corpus: &Corpus, scores: &[f64]) -> SimLoopReport {
    let sim = SimLoopConfig {
        window: WINDOW,
        nodes: NODES,
        controller: ControllerConfig { total_workers: 8, patience: 1, ..Default::default() },
        executor: ExecutorConfig { causality: CausalityMode::Causal, ..Default::default() },
        ..Default::default()
    };
    run_closed_loop(engine.config(), scores, &workload_spec(corpus), &sim)
}

fn simulate_cascade(
    cascade: &CascadeConfig,
    corpus: &Corpus,
    choices: &[adaparse::ParserChoice],
) -> CampaignReport {
    let plan = NodePlan { extract_nodes: NODES / 2, parse_nodes: NODES - NODES / 2 };
    let tasks = tasks_for_cascade_with_affinity(&cascade.frontier, choices, &workload_spec(corpus), &plan);
    WorkflowExecutor::new(ExecutorConfig::default()).run(
        &tasks,
        &ClusterConfig::polaris(NODES),
        &LustreModel::default(),
    )
}

/// One untraced campaign: pipeline, JSONL output, simulation.
fn run_once(inputs: &Inputs, seed: u64) -> Run {
    let Inputs { corpus, engine, pipeline, cascade, .. } = inputs;
    let mut sink = RecordingSink::default();
    let (result, choices) = match cascade {
        None => {
            let result = pipeline.run_with_sink(engine, &corpus.documents, seed, &mut sink);
            (result.expect("a CountingWriter never fails"), Vec::new())
        }
        Some(cascade) => {
            let mut report = pipeline.run_cascade(engine, &corpus.documents, cascade, seed);
            for record in std::mem::take(&mut report.result.records) {
                adaparse::RecordSink::accept(&mut sink, record).expect("a CountingWriter never fails");
            }
            (report.result, report.choices)
        }
    };
    let (records, writer) = sink.finish();
    let scores: Vec<f64> = result.routed.iter().map(|r| r.predicted_improvement).collect();
    let sim = match cascade {
        None => Sim::Loop(Box::new(simulate_loop(engine, corpus, &scores))),
        Some(cascade) => Sim::Executor(Box::new(simulate_cascade(cascade, corpus, &choices))),
    };

    let quality = result.quality;
    let mut digest = Digest::default();
    for value in [quality.bleu, quality.rouge, quality.car, quality.coverage, quality.accepted_tokens] {
        digest.f64(value);
    }
    digest
        .u64(result.failures.total() as u64)
        .f64(result.total_cost.cpu_seconds)
        .f64(result.total_cost.gpu_seconds);
    for routed in &result.routed {
        digest.u64(routed.doc_id).u64(routed.parser.index() as u64).f64(routed.predicted_improvement);
    }
    for choice in &choices {
        digest.u64(choice.upgrade.map_or(0, |u| u as u64 + 1)).u64(choice.upgraded_pages.len() as u64);
    }
    digest.u64(writer.digest.value()).u64(writer.bytes);
    digest.f64(sim.makespan()).u64(sim.executor().tasks_completed as u64);

    Run {
        parsers: result.routed.iter().map(|r| r.parser).collect(),
        scores,
        records,
        choices,
        quality,
        failures: result.failures.total(),
        sink_bytes: writer.bytes,
        digest: digest.value(),
        sim,
    }
}

/// Parser invocations of a run: one extraction and one assigned parse per
/// document, plus the base parse of each document delegated by page.
fn parser_runs(run: &Run) -> usize {
    2 * run.records.len() + run.choices.iter().filter(|choice| !choice.upgraded_pages.is_empty()).count()
}

/// Output checks every campaign run must pass.
fn check_run(run: &Run) -> Vec<String> {
    let mut problems = Vec::new();
    if run.records.len() != DOCS || run.parsers.len() != DOCS || run.quality.documents != DOCS {
        problems.push(format!(
            "expected {DOCS} records and decisions, got {} records / {} decisions / {} scored",
            run.records.len(),
            run.parsers.len(),
            run.quality.documents
        ));
    }
    let q = &run.quality;
    if ![q.bleu, q.rouge, q.car, q.coverage].iter().all(|v| (0.0..=1.0).contains(v)) {
        problems.push(format!("quality outside [0, 1]: {q:?}"));
    }
    if run.sim.makespan().is_nan() || run.sim.makespan() <= 0.0 {
        problems.push(format!("simulated makespan is not positive: {}", run.sim.makespan()));
    }
    problems
}

/// Run the workload.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut outcome = Outcome::new(args);
    outcome.note(format!("workers: {} of {} available", kind.workers(), workers()));
    if args.trace {
        traced(kind, args, &mut outcome);
        return outcome;
    }

    let (inputs, setup_s) =
        repeated_setup(&mut outcome, |tracer| setup(kind, args.seed, tracer), inputs_digest);
    outcome.note(format!("corpus: {}", describe(&inputs.corpus)));
    let (timed, run) = timed_loop(&mut outcome, args.seconds, || {
        let started = Instant::now();
        let run = run_once(&inputs, args.seed);
        let seconds = started.elapsed().as_secs_f64();
        let problems = check_run(&run);
        Iteration { docs: DOCS, seconds, digest: run.digest, problems, output: run }
    });
    let sim_docs_per_s = DOCS as f64 / run.sim.makespan();
    let q = &run.quality;
    let failed = failed_share(run.failures, parser_runs(&run));
    outcome.note(format!(
        "quality: bleu {:.4}, car {:.4}, rouge {:.4} (reference only); failed_share {failed:.4} ({} failed parser runs); output {} bytes",
        q.bleu, q.car, q.rouge, run.failures, run.sink_bytes,
    ));
    let m = &mut outcome.metrics;
    m.set("setup_s", setup_s);
    m.set("docs_per_s", timed.docs_per_s);
    m.set("peak_mb", timed.peak_mb);
    m.set("sim_docs_per_s", sim_docs_per_s);
    m.set("bleu", q.bleu);
    m.set("car", q.car);
    m.set("success_share", 1.0 - failed);
    outcome
}

/// The traced run: traced set-up, one untraced pipeline run as the
/// reference, then the sequential pass untraced and traced, twice each in
/// alternation, checked against the reference.
fn traced(kind: Kind, args: &Args, outcome: &mut Outcome) {
    let seed = args.seed;
    let mut tracer = Tracer::new(true);
    let inputs = setup(kind, seed, &mut tracer);
    record_properties(&inputs.corpus, &mut outcome.metrics);
    outcome.note(format!("corpus: {}", describe(&inputs.corpus)));

    let cpu_before = process_cpu_seconds();
    let started = Instant::now();
    let reference = run_once(&inputs, seed);
    let wall = started.elapsed().as_secs_f64();
    let cpu_util = match (cpu_before, process_cpu_seconds()) {
        (Some(before), Some(after)) => (after - before) / (wall * kind.workers() as f64),
        _ => 0.0,
    };
    let problems = check_run(&reference);
    outcome.tally.record(DOCS as u64, problems);

    let routing = match &inputs.cascade {
        None => Routing::Binary { window: WINDOW },
        Some(cascade) => Routing::Cascade(cascade),
    };
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut recorded: Option<PassOutput> = None;
    for round in 0..2 {
        let started = Instant::now();
        let plain = sequential_pass(
            &inputs.engine,
            &inputs.corpus.documents,
            seed,
            &routing,
            &mut Tracer::new(false),
        );
        untraced_s.push(started.elapsed().as_secs_f64());
        // The first traced pass records into the run's tracer; the second
        // only adds a timing sample.
        let mut scratch = Tracer::new(true);
        let target = if round == 0 { &mut tracer } else { &mut scratch };
        let started = Instant::now();
        let pass = sequential_pass(&inputs.engine, &inputs.corpus.documents, seed, &routing, target);
        traced_s.push(started.elapsed().as_secs_f64());
        let problems = compare_pass(&reference, &plain, &pass, inputs.cascade.is_some());
        outcome.tally.record(DOCS as u64, problems);
        recorded.get_or_insert(pass);
    }
    let pass = recorded.expect("two rounds ran");

    // Re-run the simulation inside a span; it is deterministic, so its
    // report must equal the reference's.
    let sim = match &inputs.cascade {
        None => Sim::Loop(Box::new(tracer.span("simloop.run", None, |_| {
            simulate_loop(&inputs.engine, &inputs.corpus, &reference.scores)
        }))),
        Some(cascade) => Sim::Executor(Box::new(
            tracer
                .span("hpcsim.run", None, |_| simulate_cascade(cascade, &inputs.corpus, &reference.choices)),
        )),
    };
    if sim.makespan().to_bits() != reference.sim.makespan().to_bits() {
        outcome.tally.record(
            1,
            vec![format!("traced simulation makespan {} != {}", sim.makespan(), reference.sim.makespan())],
        );
    }

    let m = &mut outcome.metrics;
    record_self_times(&tracer, m);
    m.set("rouge", reference.quality.rouge);
    m.set("failed_share", failed_share(pass.failures, pass.extractions + pass.parses));
    m.set("parsersim.failures", pass.failures as f64);
    m.set("parsersim.useful_page_ratio", pass.pages_delivered as f64 / pass.pages_parsed.max(1) as f64);
    m.set("cascade.delegated_page_share", pass.pages_delegated as f64 / pass.pages_delivered.max(1) as f64);
    m.set("textmetrics.chars_compared", pass.chars_compared as f64);
    m.set("docmodel.spdf_mb", crate::alloc::mib(pass.spdf_bytes as u64));
    m.set("output.mb", crate::alloc::mib(pass.sink_bytes));
    m.set("campaign.wall_s", wall);
    m.set("campaign.cpu_util", cpu_util);
    record_sim(&sim, m);
    let untraced = median(&untraced_s).expect("two samples");
    let traced = median(&traced_s).expect("two samples");
    m.set("trace.pass_s", traced);
    m.set("trace.untraced_pass_s", untraced);
    m.set("trace.overhead_share", traced / untraced - 1.0);
    outcome.note(format!(
        "trace: pass {traced:.3} s traced vs {untraced:.3} s untraced (samples {traced_s:.3?} / {untraced_s:.3?}); pipeline {wall:.3} s at cpu_util {cpu_util:.3}"
    ));
    outcome.metrics.zero_unset();
    outcome.tracer = Some(tracer);
}

/// The traced and untraced passes must reproduce the pipeline's records
/// and routing decisions document by document.
fn compare_pass(reference: &Run, plain: &PassOutput, traced: &PassOutput, cascade: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for (label, pass) in [("untraced", plain), ("traced", traced)] {
        let differing = (0..reference.records.len().max(pass.records.len()))
            .filter(|&i| pass.records.get(i) != reference.records.get(i))
            .collect::<Vec<_>>();
        if !differing.is_empty() || pass.records.len() != reference.records.len() {
            problems
                .push(format!("{label} pass records differ from the pipeline's at documents {differing:?}"));
        }
        let parsers: Vec<ParserKind> = pass.choices.iter().map(|c| c.parser).collect();
        let choices_differ =
            if cascade { pass.choices != reference.choices } else { parsers != reference.parsers };
        if choices_differ {
            problems.push(format!("{label} pass routing differs from the pipeline's"));
        }
        let q = &reference.quality;
        let means = pass.quality_sums.map(|sum| (sum / reference.records.len() as f64).to_bits());
        if means != [q.bleu, q.rouge, q.car].map(f64::to_bits) {
            problems.push(format!("{label} pass mean bleu/rouge/car differ from the pipeline's"));
        }
    }
    problems
}

/// Counts from a simulation report.
fn record_sim(sim: &Sim, m: &mut Metrics) {
    match sim {
        Sim::Loop(report) => record_loop(report, m),
        Sim::Executor(report) => record_executor(report, m),
    }
}

/// Epoch and queue-wait counts of a closed loop, plus its executor's.
fn record_loop(report: &SimLoopReport, m: &mut Metrics) {
    m.set("simloop.epochs", report.waves.len() as f64);
    m.set("simloop.queue_wait_p99_s", report.queue_wait.p99_seconds);
    record_executor(&report.executor_report, m);
}

/// Task, cold-start, warm-hit and waiting counts of an executor report.
pub fn record_executor(executor: &CampaignReport, m: &mut Metrics) {
    m.set("hpcsim.tasks", executor.tasks_completed as f64);
    m.set("hpcsim.cold_starts", executor.cold_starts as f64);
    m.set("hpcsim.warm_hits", executor.warm_hits as f64);
    m.set("hpcsim.herd_queue_s", executor.herd_queue_seconds);
    m.set("hpcsim.queue_wait_s", executor.queue_wait_seconds);
}
