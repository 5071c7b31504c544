//! The staged, parallel campaign pipeline.
//!
//! This module is the execution spine of the reproduction. A campaign runs
//! in four explicit stages:
//!
//! 1. [`ExtractStage`] — serialize each document to SPDF, decode it, and run
//!    the cheap default parser over the first page to produce the
//!    [`RoutingInput`] the router consumes (no ground truth involved).
//! 2. [`RouteStage`] — score every document's expected improvement under the
//!    high-quality parser (CLS I → II/III) and apply the Appendix C per-batch
//!    budget optimizer to pick the α-fraction that gets it.
//! 3. [`ParseStage`] — parse each document with its assigned parser from the
//!    shared [`ParserPool`].
//! 4. [`ScoreStage`] — score output against ground truth and account
//!    resource costs.
//!
//! Stages 1 and 3–4 are per-document pure functions and run data-parallel
//! over shards of the input on a `rayon` thread pool ([`PipelineConfig`]
//! controls worker count and shard size); stage 2 is a cheap sequential pass
//! because the paper's batch optimizer ranks documents *within consecutive
//! batches* of the input order. Per-document RNG streams are keyed by
//! `seed ^ doc_id`, and the final reduction folds per-document outcomes in
//! input order, so a campaign's [`CampaignResult`] is **bitwise identical for
//! every worker count and shard size**.
//!
//! The streaming mode and the k-parser cascade share one wave loop: each
//! window is extracted and scored on the whole pool, selected, then parsed
//! and scored on the whole pool and folded before the next window starts.
//! Only selection differs between them. No stage fleets and no wall-clock
//! controller are involved: the streaming mode is the *real-execution* half
//! of the closed loop, and its simulated twin is
//! [`crate::scaling::simloop::run_closed_loop`], which runs the same
//! window-by-window circuit wavelessly inside a persistent
//! [`hpcsim::ExecutorSession`] — dependency edges, warm-pool residency, and
//! slot state carried across decision epochs — for deterministic what-if
//! planning of the campaigns this pipeline executes for real.

use docmodel::document::Document;
use docmodel::spdf::{write_document, SpdfFile};
use parsersim::cost::{CostModel, ResourceCost};
use parsersim::registry::ParserPool;
use parsersim::ParserKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selector::dataset::AccuracySample;
use serde::{Deserialize, Serialize};
use textmetrics::accepted::{AcceptedTokens, DEFAULT_ACCEPTANCE_THRESHOLD};
use textmetrics::QualityReport;

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

use crate::cascade::{
    cascade_gains, delegated_pages, CascadeConfig, CascadeFeatures, CascadeSelector, ParserChoice,
    RoutingGranularity,
};
use crate::config::AdaParseConfig;
use crate::engine::{AdaParseEngine, CampaignQuality, CampaignResult, RoutedDocument};
use crate::output::{MemorySink, ParsedRecord, RecordSink};
use crate::scaling::simloop::planned_costs;
use crate::scaling::{BudgetLedger, ClassLedger, WaveCosts, WindowedSelector};

/// How routing decisions are produced and interleaved with parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingMode {
    /// Classic two-phase execution: extract and score the *whole* corpus,
    /// run the Appendix C per-batch optimizer over it, then parse. Simple,
    /// but no parse work can start until the last document is scored.
    GlobalBatch,
    /// Streaming execution: documents are routed per window of `window`
    /// documents by a [`crate::scaling::WindowedSelector`] holding a running
    /// budget ledger (fed back with *observed* per-document costs when a
    /// [`CampaignBudget`] with feedback is attached), and each window is
    /// parsed and folded on the whole pool before the next is extracted —
    /// so parse work starts after the first window, not after the whole
    /// corpus. Routing differs from [`RoutingMode::GlobalBatch`] (windowed
    /// vs per-batch selection) but is still bitwise identical across worker
    /// counts.
    Streaming {
        /// Selection window size k (also the wave size). The paper's batch
        /// size (k = 256) is a good default; larger windows shrink the
        /// optimality gap, smaller ones start parse work sooner.
        window: usize,
    },
}

/// Seconds-denominated compute budget of a streaming campaign (the
/// observed-cost feedback knobs).
///
/// Attached to a [`PipelineConfig`], it gives the streaming runner's
/// [`WindowedSelector`] a [`crate::scaling::BudgetLedger`] over the planned
/// per-document parser costs. With `observed_feedback` on, each parsed
/// wave's measured per-document costs are fed back into the ledger
/// ([`crate::scaling::WaveCosts`]): reservations are reconciled against
/// actual spend and the affordable α is re-derived from blended
/// [`crate::scaling::ObservedCosts`] estimates — selection tightens when
/// documents run more expensive than planned and loosens when they run
/// cheaper. Ignored by [`RoutingMode::GlobalBatch`], whose whole-corpus
/// optimizer has no stream to meter.
///
/// The cost trace is derived from the deterministic parser cost models, so
/// campaigns stay bitwise identical across worker counts and shard sizes
/// with the ledger enabled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignBudget {
    /// Total compute budget in seconds (CPU + GPU) for the whole campaign.
    pub total_seconds: f64,
    /// Feed measured per-document costs back into the ledger (`false`
    /// plans with a-priori costs only, the PR 2 behavior).
    pub observed_feedback: bool,
    /// Pseudo-document weight of the planned-cost prior when feedback is
    /// on; see [`crate::scaling::ObservedCosts`].
    pub prior_weight: f64,
}

impl CampaignBudget {
    /// A budget of `total_seconds` with observed-cost feedback on and the
    /// default prior weight.
    pub fn seconds(total_seconds: f64) -> Self {
        CampaignBudget {
            total_seconds,
            observed_feedback: true,
            prior_weight: crate::scaling::DEFAULT_PRIOR_WEIGHT,
        }
    }
}

/// Parallel-execution knobs of a campaign run.
///
/// `workers` and `shard_size` never affect the campaign's *result* — only
/// its wall-clock time. `mode` selects the routing strategy; each
/// mode is individually bitwise-deterministic across worker counts, but the
/// two modes route (deliberately) slightly differently. `budget` meters
/// streaming campaigns against a compute budget (and, with feedback on,
/// against *observed* costs); it too is deterministic across worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Worker threads for the data-parallel stages (`0` = all available
    /// cores).
    pub workers: usize,
    /// Documents per shard handed to a worker at a time.
    pub shard_size: usize,
    /// Routing strategy.
    pub mode: RoutingMode,
    /// Optional compute budget for streaming campaigns.
    pub budget: Option<CampaignBudget>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { workers: 0, shard_size: 32, mode: RoutingMode::GlobalBatch, budget: None }
    }
}

impl PipelineConfig {
    /// A streaming-mode configuration with the given worker count and
    /// selection window.
    pub fn streaming(workers: usize, window: usize) -> Self {
        PipelineConfig { workers, mode: RoutingMode::Streaming { window }, ..Default::default() }
    }

    /// Attach a compute budget (streaming mode only; see
    /// [`CampaignBudget`]).
    pub fn with_budget(mut self, budget: CampaignBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Clamp degenerate values (a zero shard size or window would spin
    /// forever; a negative budget is an empty one).
    pub fn normalized(mut self) -> Self {
        if self.shard_size == 0 {
            self.shard_size = 1;
        }
        if let RoutingMode::Streaming { window: 0 } = self.mode {
            self.mode = RoutingMode::Streaming { window: 1 };
        }
        if let Some(budget) = &mut self.budget {
            budget.total_seconds = budget.total_seconds.max(0.0);
            // prior_weight is sanitized at the point of use
            // (ObservedCosts::with_prior_weight) — one policy, one place.
        }
        self
    }
}

/// Per-document failure counts of a campaign (paper §5 failure analysis).
///
/// The simulated parsers can fail outright (malformed container, zero-page
/// document); previously those errors were silently swallowed into empty
/// strings. They still degrade into empty output — a campaign never aborts —
/// but the counts are surfaced here so failure rates are observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CampaignFailures {
    /// First-page extractions (stage 1) that returned a parser error.
    pub extraction: usize,
    /// Assigned-parser runs (stage 3) that returned a parser error.
    pub parsing: usize,
}

impl CampaignFailures {
    /// Total number of failed parser invocations.
    pub fn total(&self) -> usize {
        self.extraction + self.parsing
    }
}

/// Everything the router needs for one document (no ground truth involved).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingInput {
    /// Document identifier.
    pub doc_id: u64,
    /// Cheap first-page extraction feeding CLS I–III.
    pub first_page_text: String,
    /// Metadata feature vector.
    pub metadata_features: Vec<f64>,
    /// Document title.
    pub title: String,
    /// Page count.
    pub pages: usize,
}

impl RoutingInput {
    pub(crate) fn as_sample(&self) -> AccuracySample {
        AccuracySample {
            doc_id: self.doc_id,
            first_page_text: self.first_page_text.clone(),
            title: self.title.clone(),
            metadata_features: self.metadata_features.clone(),
            targets: vec![0.0; ParserKind::ALL.len()],
            pages: self.pages,
        }
    }
}

/// Stage 1 output for one document.
///
/// The decoded SPDF container is *not* retained: each stage re-derives it
/// from the document (the stand-in for re-reading the PDF from storage), so
/// campaign memory stays bounded by the input corpus plus one wave of
/// output.
pub struct Extracted {
    /// Router inputs.
    pub input: RoutingInput,
    /// Whether the first-page extraction failed (empty text was substituted).
    pub failed: bool,
}

/// Stage 1: SPDF round-trip plus cheap first-page extraction.
pub struct ExtractStage<'a> {
    config: &'a AdaParseConfig,
    pool: &'a ParserPool,
}

impl<'a> ExtractStage<'a> {
    /// Create the stage over a shared parser pool.
    pub fn new(config: &'a AdaParseConfig, pool: &'a ParserPool) -> Self {
        ExtractStage { config, pool }
    }

    /// Run the stage for one document.
    pub fn run(&self, doc: &Document, seed: u64) -> Extracted {
        let bytes = write_document(doc);
        let file = SpdfFile::parse(&bytes).expect("generated documents serialize cleanly");
        let parser = self.pool.get(self.config.default_parser);
        let mut rng = StdRng::seed_from_u64(seed ^ doc.id.0 ^ 0xEAF1);
        let (first_page_text, failed) = match parser.parse_file(&file, &mut rng) {
            Ok(out) => (out.text.split('\u{c}').next().unwrap_or("").to_string(), false),
            Err(_) => (String::new(), true),
        };
        Extracted {
            input: RoutingInput {
                doc_id: doc.id.0,
                first_page_text,
                metadata_features: doc.metadata.feature_vector(),
                title: doc.metadata.title.clone(),
                pages: doc.page_count(),
            },
            failed,
        }
    }
}

/// Stage 2: hierarchical routing (CLS I → II/III) plus the per-batch budget
/// optimizer.
pub struct RouteStage<'a> {
    engine: &'a AdaParseEngine,
}

impl<'a> RouteStage<'a> {
    /// Create the stage over a trained (or untrained) engine.
    pub fn new(engine: &'a AdaParseEngine) -> Self {
        RouteStage { engine }
    }

    /// Score one document's expected improvement (parallel-safe).
    pub fn improvement(&self, input: &RoutingInput) -> (f64, bool) {
        self.engine.routing_improvement(input)
    }

    /// Apply the batch budget optimizer over all scored documents. Must see
    /// the whole campaign in input order (the optimizer's batches are
    /// consecutive runs of the input), hence sequential.
    pub fn select(&self, inputs: &[RoutingInput], scores: &[(f64, bool)]) -> Vec<RoutedDocument> {
        self.engine.assemble_routes(inputs, scores)
    }
}

/// Stage 3 output for one document.
pub struct Parsed {
    /// The assigned parser's output (empty text on failure).
    pub output: parsersim::ParseOutput,
    /// Whether the assigned parser failed.
    pub failed: bool,
}

/// Stage 3: parse with the assigned parser from the shared pool.
pub struct ParseStage<'a> {
    config: &'a AdaParseConfig,
    pool: &'a ParserPool,
}

impl<'a> ParseStage<'a> {
    /// Create the stage over a shared parser pool.
    pub fn new(config: &'a AdaParseConfig, pool: &'a ParserPool) -> Self {
        ParseStage { config, pool }
    }

    /// Run the stage for one document. The SPDF container is re-derived
    /// from the document (modelling a re-read from storage) rather than
    /// carried over from extraction, keeping campaign memory wave-bounded.
    pub fn run(&self, doc: &Document, decision: &RoutedDocument, seed: u64) -> Parsed {
        self.run_parser(doc, decision.parser, seed)
    }

    /// Run one named parser over the document (the body of [`run`](Self::run),
    /// shared with the cascade's per-page delegation path). The per-document
    /// RNG stream is keyed by the document id alone, so every parser sees the
    /// same stream regardless of how the document was routed.
    fn run_parser(&self, doc: &Document, kind: ParserKind, seed: u64) -> Parsed {
        let bytes = write_document(doc);
        let file = SpdfFile::parse(&bytes).expect("generated documents serialize cleanly");
        let parser = self.pool.get(kind);
        let mut rng = StdRng::seed_from_u64(seed ^ doc.id.0.wrapping_mul(0x2545F491));
        match parser.parse_file(&file, &mut rng) {
            Ok(output) => Parsed { output, failed: false },
            Err(_) => Parsed {
                output: parsersim::ParseOutput {
                    parser: parser.kind(),
                    text: String::new(),
                    pages_parsed: 0,
                    pages_total: doc.page_count(),
                    cost: ResourceCost::default(),
                },
                failed: true,
            },
        }
    }

    /// Run the stage for one cascade-routed document. With an empty
    /// delegation set this is exactly [`run`](Self::run) with the choice's
    /// parser — the pinned whole-document path. With
    /// [`crate::cascade::RoutingGranularity::ByPage`] delegation the upgrade
    /// parser and the frontier's `base` parser both run, and the output is
    /// stitched page by page: delegated pages come from the upgrade, the
    /// rest from the base. The stitched cost is the upgrade's cost scaled by
    /// the delegated page fraction — the base pass models re-reading the
    /// extraction the document already paid for, so only the delegated
    /// fraction is billed on top (the campaign's extraction cost covers the
    /// rest), which is the whole point of per-page delegation.
    pub fn run_choice(&self, doc: &Document, choice: &ParserChoice, base: ParserKind, seed: u64) -> Parsed {
        if choice.upgraded_pages.is_empty() {
            return self.run_parser(doc, choice.parser, seed);
        }
        let upgraded = self.run_parser(doc, choice.parser, seed);
        if upgraded.failed {
            return upgraded;
        }
        let base_parse = self.run_parser(doc, base, seed);
        let total = doc.page_count();
        let upgrade_pages: Vec<&str> = upgraded.output.text.split('\u{c}').collect();
        let base_pages: Vec<&str> = base_parse.output.text.split('\u{c}').collect();
        let mut stitched: Vec<&str> = Vec::with_capacity(total);
        for page in 0..total {
            let text = if choice.upgraded_pages.contains(&page) {
                upgrade_pages.get(page).copied().unwrap_or("")
            } else {
                base_pages.get(page).copied().unwrap_or("")
            };
            stitched.push(text);
        }
        let pages_parsed = stitched.iter().filter(|text| !text.is_empty()).count();
        let fraction = choice.upgraded_pages.len() as f64 / total.max(1) as f64;
        Parsed {
            output: parsersim::ParseOutput {
                parser: choice.parser,
                text: stitched.join("\u{c}"),
                pages_parsed,
                pages_total: total,
                cost: upgraded.output.cost.scaled(fraction),
            },
            failed: false,
        }
    }

    /// The cheap extraction every document pays regardless of routing.
    fn extraction_cost(&self, pages: usize) -> ResourceCost {
        CostModel::for_parser(self.config.default_parser).document_cost(pages, 0.3)
    }
}

/// Per-document outcome produced by stage 4 and folded into the campaign
/// aggregate.
pub struct DocOutcome {
    /// JSONL-ready record.
    pub record: ParsedRecord,
    /// Quality against ground truth.
    pub report: QualityReport,
    /// Word tokens in the output (feeds accepted-token accounting).
    pub tokens: usize,
    /// Resources consumed by this document (extraction + assigned parser).
    pub cost: ResourceCost,
    /// Whether the document went to the high-quality parser.
    pub high_quality: bool,
    /// Whether the assigned parser failed.
    pub parse_failed: bool,
}

/// Stage 4: score parsed output against ground truth and account costs.
pub struct ScoreStage<'a> {
    config: &'a AdaParseConfig,
}

impl<'a> ScoreStage<'a> {
    /// Create the stage.
    pub fn new(config: &'a AdaParseConfig) -> Self {
        ScoreStage { config }
    }

    /// Run the stage for one document.
    pub fn run(
        &self,
        doc: &Document,
        decision: &RoutedDocument,
        parsed: Parsed,
        extraction_cost: ResourceCost,
    ) -> DocOutcome {
        let output = parsed.output;
        // The cheap extraction is always paid (it feeds the router); the
        // assigned parser is paid on top unless it *is* the extraction.
        let mut cost = extraction_cost;
        if decision.parser != self.config.default_parser {
            cost = cost + output.cost;
        }
        let report = QualityReport::compute(&output.text, &doc.ground_truth(), output.coverage());
        let tokens = output.token_count();
        DocOutcome {
            record: ParsedRecord {
                doc_id: doc.id.0,
                parser: decision.parser,
                text: output.text,
                coverage: report.coverage,
                bleu: report.bleu,
            },
            report,
            tokens,
            cost,
            high_quality: decision.parser == self.config.high_quality_parser,
            parse_failed: parsed.failed,
        }
    }
}

/// Result of a k-parser cascade campaign: the ordinary [`CampaignResult`]
/// plus the cascade-specific routing breakdown.
///
/// For the pinned degenerate configuration ([`CascadeConfig::binary`]) the
/// embedded `result` is **bitwise identical** to the binary streaming
/// campaign at the same window *without* a [`CampaignBudget`] —
/// [`CampaignPipeline::run_cascade`] ignores the pipeline's `budget` and
/// `mode` — and the `cascade_equivalence` suite freezes this.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeReport {
    /// The campaign result (quality, costs, failures, records), folded in
    /// input order exactly like every other campaign mode.
    pub result: CampaignResult,
    /// Per-document cascade decisions, in input order.
    pub choices: Vec<ParserChoice>,
    /// Documents per resolved parser, in [`ParserKind::index`] order
    /// (parsers that received no documents are omitted).
    pub parser_docs: Vec<(ParserKind, usize)>,
    /// Planned per-page dollar spend per parser class
    /// ([`parsersim::registry::page_dollars`] units), net of per-page
    /// delegation refunds.
    pub dollars: ClassLedger,
    /// Pages delegated to upgrade parsers under
    /// [`RoutingGranularity::ByPage`] (0 under
    /// [`RoutingGranularity::ByDoc`]).
    pub pages_delegated: usize,
    /// Total pages in the corpus.
    pub pages_total: usize,
}

/// The staged campaign executor.
///
/// Owns a [`ParserPool`] (each parser constructed once, shared across all
/// workers), the rayon thread pool (built once per pipeline), and a
/// [`PipelineConfig`]. Results are independent of both knobs; see the module
/// docs for why.
pub struct CampaignPipeline {
    config: PipelineConfig,
    pool: ParserPool,
    threads: rayon::ThreadPool,
}

impl Default for CampaignPipeline {
    fn default() -> Self {
        CampaignPipeline::new(PipelineConfig::default())
    }
}

impl CampaignPipeline {
    /// Create a pipeline with explicit parallelism knobs.
    pub fn new(config: PipelineConfig) -> Self {
        let config = config.normalized();
        let threads = ThreadPoolBuilder::new()
            .num_threads(config.workers)
            .build()
            .expect("thread pool construction cannot fail");
        CampaignPipeline { config, pool: ParserPool::new(), threads }
    }

    /// The pipeline's parallelism configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run stages 1–2 only: routing decisions for a document collection, in
    /// input order, without parsing or scoring. Honors the pipeline's
    /// [`RoutingMode`]: streaming mode routes per window with the running
    /// budget ledger at *planned* costs. Without observed-cost feedback
    /// this matches the full streaming campaign exactly; with
    /// [`CampaignBudget::observed_feedback`] enabled the full campaign can
    /// route later windows more tightly (or loosely) than this preview,
    /// because only a campaign that actually parses has costs to observe.
    pub fn route(&self, engine: &AdaParseEngine, documents: &[Document], seed: u64) -> Vec<RoutedDocument> {
        let scored = self.extract_and_score_wave(engine, documents, seed);
        match self.config.mode {
            RoutingMode::GlobalBatch => RouteStage::new(engine).select(&scored.inputs, &scored.scores),
            RoutingMode::Streaming { window } => {
                let improvements: Vec<f64> = scored.scores.iter().map(|&(s, _)| s).collect();
                let mask = self.streaming_selector(engine, documents, window).select_all(&improvements);
                engine.assemble_routes_with_mask(&scored.inputs, &scored.scores, &mask)
            }
        }
    }

    /// The streaming [`WindowedSelector`] for a corpus: windowed at the
    /// engine's α, with the pipeline's [`CampaignBudget`] ledger attached
    /// when one is configured. Planned per-document costs come from the
    /// parser cost models at the corpus's mean page count — deterministic,
    /// like everything else that feeds routing.
    fn streaming_selector(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        window: usize,
    ) -> WindowedSelector {
        let config = engine.config();
        let mut selector = WindowedSelector::new(window, config.alpha);
        if let Some(budget) = self.config.budget {
            let total_pages: usize = documents.iter().map(Document::page_count).sum();
            let mean_pages = if documents.is_empty() {
                1
            } else {
                ((total_pages as f64 / documents.len() as f64).round() as usize).max(1)
            };
            let (cheap, expensive) = planned_costs(config, mean_pages);
            let mut ledger = BudgetLedger::new(budget.total_seconds, documents.len(), cheap, expensive);
            if budget.observed_feedback {
                ledger = ledger.with_observed_costs(budget.prior_weight);
            }
            selector = selector.with_budget(ledger);
        }
        selector
    }

    /// Run the full campaign, buffering records in memory (the classic
    /// [`CampaignResult::records`] shape).
    pub fn run(&self, engine: &AdaParseEngine, documents: &[Document], seed: u64) -> CampaignResult {
        let mut sink = MemorySink::new();
        let mut result =
            self.run_with_sink(engine, documents, seed, &mut sink).expect("memory sink cannot fail");
        result.records = sink.into_records();
        result
    }

    /// Run the full campaign, streaming each [`ParsedRecord`] to `sink` in
    /// input order instead of buffering (`CampaignResult::records` stays
    /// empty). Stages 3–4 run wave by wave — a streaming window, or
    /// `workers × shard_size` documents in [`RoutingMode::GlobalBatch`] —
    /// and each wave is folded and sunk before the next starts. Decoded
    /// SPDF containers are per-stage temporaries and routing inputs are
    /// dropped once decisions exist, so resident memory beyond the caller's
    /// own corpus is one wave of parsed output plus the (small)
    /// per-document routing decisions.
    pub fn run_with_sink(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        seed: u64,
        sink: &mut dyn RecordSink,
    ) -> std::io::Result<CampaignResult> {
        if let RoutingMode::Streaming { window } = self.config.mode {
            let selection = WaveSelection::Binary(self.streaming_selector(engine, documents, window));
            return Ok(self.run_waves(engine, documents, seed, selection, sink)?.0);
        }
        let config = engine.config();

        // Stages 1–2: extract and score in parallel, select sequentially.
        let scored = self.extract_and_score_wave(engine, documents, seed);
        let routed = RouteStage::new(engine).select(&scored.inputs, &scored.scores);
        let extraction_failures = scored.failures;
        drop(scored);

        // Stages 3–4 wave by wave, bounding resident output text to one wave.
        let wave_size = self.config.shard_size * self.threads.current_num_threads().max(1);
        let mut aggregates = Aggregates::default();
        for (docs, decisions) in documents.chunks(wave_size).zip(routed.chunks(wave_size)) {
            aggregates.fold_wave(self.parse_and_score(config, docs, decisions, None, seed), sink)?;
        }
        Ok(aggregates.into_result(documents.len(), routed, extraction_failures))
    }

    /// Run a full k-parser cascade campaign: windowed selection over the
    /// cascade's frontier, whole-document or per-page delegation, parse and
    /// score folded in input order.
    ///
    /// Windows, α, and granularity come from the [`CascadeConfig`]: the
    /// pipeline's own [`RoutingMode`] and [`CampaignBudget`] are ignored
    /// (the cascade selector meters planned dollars per parser class
    /// instead of seconds). So the degenerate [`CascadeConfig::binary`]
    /// configuration reproduces the binary [`RoutingMode::Streaming`]
    /// campaign at the same window **bitwise** — same masks, same records,
    /// same aggregate floats — only when that campaign has no
    /// [`CampaignBudget`]; the `cascade_equivalence` suite pins this. Wider
    /// frontiers route over the transformed gains of [`cascade_gains`];
    /// per-page delegation sends only a document's above-mean-difficulty
    /// pages to the upgrade parser and bills only that fraction of the
    /// upgrade's cost. Like every campaign mode, the report is bitwise
    /// identical across worker counts and shard sizes.
    pub fn run_cascade(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        cascade: &CascadeConfig,
        seed: u64,
    ) -> CascadeReport {
        let mut selector = CascadeSelector::new(cascade);
        let mut sink = MemorySink::new();
        let selection = WaveSelection::Cascade { cascade, selector: &mut selector };
        let (mut result, choices) =
            self.run_waves(engine, documents, seed, selection, &mut sink).expect("memory sink cannot fail");
        result.records = sink.into_records();
        let parser_docs = ParserKind::ALL
            .iter()
            .map(|&kind| (kind, choices.iter().filter(|c| c.parser == kind).count()))
            .filter(|&(_, count)| count > 0)
            .collect();
        CascadeReport {
            result,
            parser_docs,
            dollars: selector.dollars().clone(),
            pages_delegated: choices.iter().map(|c| c.upgraded_pages.len()).sum(),
            pages_total: documents.iter().map(Document::page_count).sum(),
            choices,
        }
    }

    /// The one wave loop behind [`RoutingMode::Streaming`] and
    /// [`run_cascade`](Self::run_cascade). Each window is extracted and
    /// scored on the whole pool, selected (the only per-mode step, see
    /// [`WaveSelection`]), parsed and scored on the whole pool, and folded
    /// in input order before the next window starts; the wave's observed
    /// costs then go back to the selection.
    ///
    /// Determinism: window boundaries are fixed by the selection, per-document
    /// RNG is keyed by `seed ^ doc_id`, selection masks are pure functions of
    /// the scores, and outcomes fold in input order — so the result is
    /// bitwise identical for every worker count and shard size.
    fn run_waves(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        seed: u64,
        mut selection: WaveSelection<'_>,
        sink: &mut dyn RecordSink,
    ) -> std::io::Result<(CampaignResult, Vec<ParserChoice>)> {
        let config = engine.config();
        let mut aggregates = Aggregates::default();
        let mut routed_all: Vec<RoutedDocument> = Vec::with_capacity(documents.len());
        let mut choices_all: Vec<ParserChoice> = Vec::new();
        let mut extraction_failures = 0usize;
        for wave_docs in documents.chunks(selection.window()) {
            let wave = self.extract_and_score_wave(engine, wave_docs, seed);
            extraction_failures += wave.failures;
            let (routed, choices) = selection.select(engine, wave_docs, &wave);
            let cascade = selection.base().map(|base| (choices.as_slice(), base));
            let costs = aggregates
                .fold_wave(self.parse_and_score(config, wave_docs, &routed, cascade, seed), sink)?;
            selection.observe(&costs);
            routed_all.extend(routed);
            choices_all.extend(choices);
        }
        Ok((aggregates.into_result(documents.len(), routed_all, extraction_failures), choices_all))
    }

    /// Stages 1–2a for a wave: extract and score every document, sharded
    /// across the pool. Pure per-document work; results come back in input
    /// order.
    fn extract_and_score_wave(&self, engine: &AdaParseEngine, docs: &[Document], seed: u64) -> ExtractedWave {
        let stage = ExtractStage::new(engine.config(), &self.pool);
        let route = RouteStage::new(engine);
        let scored = self.sharded(docs.len(), |i| {
            let extracted = stage.run(&docs[i], seed);
            let improvement = route.improvement(&extracted.input);
            (extracted, improvement)
        });
        let mut failures = 0usize;
        let (inputs, scores) = scored
            .into_iter()
            .map(|(extracted, improvement)| {
                failures += extracted.failed as usize;
                (extracted.input, improvement)
            })
            .unzip();
        ExtractedWave { inputs, scores, failures }
    }

    /// Stages 3–4 for a wave: parse and score every document, sharded
    /// across the pool, outcomes in input order. Cascade waves pass their
    /// choices (aligned with `docs`) and the frontier base, and parse
    /// through [`ParseStage::run_choice`], which stitches delegated pages
    /// over the base; binary waves pass `None` and parse with
    /// [`ParseStage::run`].
    fn parse_and_score(
        &self,
        config: &AdaParseConfig,
        docs: &[Document],
        routed: &[RoutedDocument],
        cascade: Option<(&[ParserChoice], ParserKind)>,
        seed: u64,
    ) -> Vec<DocOutcome> {
        let parse = ParseStage::new(config, &self.pool);
        let score = ScoreStage::new(config);
        self.sharded(docs.len(), |i| {
            let (doc, decision) = (&docs[i], &routed[i]);
            let parsed = match cascade {
                Some((choices, base)) => parse.run_choice(doc, &choices[i], base, seed),
                None => parse.run(doc, decision, seed),
            };
            score.run(doc, decision, parsed, parse.extraction_cost(doc.page_count()))
        })
    }

    /// Map `work` over the indices `0..n` in shards of `shard_size`, run in
    /// parallel on the pipeline's pool; results come back in index order.
    fn sharded<R: Send>(&self, n: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let indices: Vec<usize> = (0..n).collect();
        let shards: Vec<Vec<R>> = self.threads.install(|| {
            indices
                .par_chunks(self.config.shard_size)
                .map(|shard| shard.iter().map(|&i| work(i)).collect())
                .collect()
        });
        shards.into_iter().flatten().collect()
    }
}

/// The one per-mode step of the wave loop: turning a scored window into
/// routing decisions.
enum WaveSelection<'a> {
    /// Binary streaming: the [`WindowedSelector`] (with the pipeline's
    /// optional [`CampaignBudget`] ledger) masks each window; under
    /// observed-cost feedback each wave's costs reconcile the ledger before
    /// the next window is selected.
    Binary(WindowedSelector),
    /// k-parser cascade: the [`CascadeSelector`] grants upgrades over the
    /// frontier and [`resolve_cascade_wave`] resolves them into choices.
    Cascade { cascade: &'a CascadeConfig, selector: &'a mut CascadeSelector },
}

impl WaveSelection<'_> {
    /// Documents per window (and per wave).
    fn window(&self) -> usize {
        match self {
            WaveSelection::Binary(selector) => selector.window(),
            WaveSelection::Cascade { selector, .. } => selector.window(),
        }
    }

    /// The frontier base that delegated pages are stitched over (cascade
    /// only).
    fn base(&self) -> Option<ParserKind> {
        match self {
            WaveSelection::Binary(_) => None,
            WaveSelection::Cascade { cascade, .. } => Some(cascade.frontier.base()),
        }
    }

    /// Stage 2 for one window: per-document decisions, plus the cascade's
    /// choices (empty under binary selection).
    fn select(
        &mut self,
        engine: &AdaParseEngine,
        docs: &[Document],
        wave: &ExtractedWave,
    ) -> (Vec<RoutedDocument>, Vec<ParserChoice>) {
        match self {
            WaveSelection::Binary(selector) => {
                let improvements: Vec<f64> = wave.scores.iter().map(|&(s, _)| s).collect();
                let mask = selector.select_window(&improvements);
                (engine.assemble_routes_with_mask(&wave.inputs, &wave.scores, &mask), Vec::new())
            }
            WaveSelection::Cascade { cascade, selector } => {
                resolve_cascade_wave(cascade, selector, docs, &wave.inputs, &wave.scores)
            }
        }
    }

    /// Close the cost loop after a wave is folded (a no-op unless the
    /// binary selector carries a ledger with observed-cost feedback).
    fn observe(&mut self, costs: &WaveCosts) {
        if let WaveSelection::Binary(selector) = self {
            selector.ingest_observed(costs);
        }
    }
}

/// Stage 2 of a cascade window: transform scores into per-upgrade gains,
/// select through the running [`CascadeSelector`], and resolve each grant
/// into a [`ParserChoice`] (with its delegation set under
/// [`RoutingGranularity::ByPage`]) plus the [`RoutedDocument`] the shared
/// parse/score stages consume. For a pair frontier the resolved decisions
/// match [`AdaParseEngine::assemble_routes_with_mask`] over the selector's
/// mask bitwise.
fn resolve_cascade_wave(
    cascade: &CascadeConfig,
    selector: &mut CascadeSelector,
    wave_docs: &[Document],
    inputs: &[RoutingInput],
    scores: &[(f64, bool)],
) -> (Vec<RoutedDocument>, Vec<ParserChoice>) {
    let features: Vec<CascadeFeatures> = wave_docs.iter().map(CascadeFeatures::of).collect();
    let gains = cascade_gains(&cascade.frontier, scores, &features);
    let granted = selector.select_window(&gains);
    let mut routed_wave = Vec::with_capacity(wave_docs.len());
    let mut choice_wave = Vec::with_capacity(wave_docs.len());
    for (i, doc) in wave_docs.iter().enumerate() {
        let (improvement, invalid) = scores[i];
        let gain = granted[i].map_or(improvement, |j| gains[j][i]);
        let mut choice =
            ParserChoice::resolve(&cascade.frontier, inputs[i].doc_id, granted[i], gain, invalid);
        if cascade.granularity == RoutingGranularity::ByPage && choice.is_upgraded() {
            let pages = delegated_pages(doc);
            if pages.len() < doc.page_count() {
                let fraction = pages.len() as f64 / doc.page_count().max(1) as f64;
                selector.refund_delegated(choice.upgrade.expect("upgraded choice"), fraction);
                choice.upgraded_pages = pages;
            }
        }
        routed_wave.push(RoutedDocument {
            doc_id: choice.doc_id,
            parser: choice.parser,
            predicted_improvement: if improvement > f64::MIN / 8.0 { improvement } else { 0.0 },
            cls1_invalid: invalid,
        });
        choice_wave.push(choice);
    }
    (routed_wave, choice_wave)
}

/// Stage 1–2a output for one wave.
struct ExtractedWave {
    /// Router inputs, in input order.
    inputs: Vec<RoutingInput>,
    /// CLS improvement scores, aligned with `inputs`.
    scores: Vec<(f64, bool)>,
    /// Extraction failures in the wave.
    failures: usize,
}

/// The campaign's order-preserving aggregate fold. Folding is strictly in
/// input order in every mode, so float accumulation — and the
/// [`CampaignResult`] as a whole — is identical for every worker count,
/// shard size, and wave boundary.
#[derive(Default)]
struct Aggregates {
    total_cost: ResourceCost,
    accepted: AcceptedTokens,
    coverage: f64,
    bleu: f64,
    rouge: f64,
    car: f64,
    high_quality: usize,
    parse_failures: usize,
}

impl Aggregates {
    /// Fold one wave's outcomes in input order, handing each record to the
    /// sink, and return the wave's observed per-document costs.
    fn fold_wave(
        &mut self,
        outcomes: Vec<DocOutcome>,
        sink: &mut dyn RecordSink,
    ) -> std::io::Result<WaveCosts> {
        let mut costs = WaveCosts::default();
        for outcome in outcomes {
            // A failed high-quality parse burned only its extraction seconds
            // — exactly what a default-routed document pays — so it is
            // recorded as a *cheap* sample at its actual cost: the spend
            // stays exact (those seconds were genuinely burned), while a
            // zero-cost *expensive* sample would teach a budget ledger the
            // failing parser is cheap and loosen α toward it.
            let high_quality = outcome.high_quality && !outcome.parse_failed;
            costs.record(high_quality, outcome.cost.cpu_seconds + outcome.cost.gpu_seconds);
            self.coverage += outcome.report.coverage;
            self.bleu += outcome.report.bleu;
            self.rouge += outcome.report.rouge;
            self.car += outcome.report.car;
            self.accepted.record(outcome.tokens, outcome.report.bleu, DEFAULT_ACCEPTANCE_THRESHOLD);
            self.total_cost = self.total_cost + outcome.cost;
            self.high_quality += outcome.high_quality as usize;
            self.parse_failures += outcome.parse_failed as usize;
            sink.accept(outcome.record)?;
        }
        Ok(costs)
    }

    /// Close the fold into a [`CampaignResult`].
    fn into_result(
        self,
        documents: usize,
        routed: Vec<RoutedDocument>,
        extraction_failures: usize,
    ) -> CampaignResult {
        let n = documents.max(1) as f64;
        CampaignResult {
            quality: CampaignQuality {
                coverage: self.coverage / n,
                bleu: self.bleu / n,
                rouge: self.rouge / n,
                car: self.car / n,
                accepted_tokens: self.accepted.rate(),
                documents,
            },
            routed,
            high_quality_fraction: self.high_quality as f64 / n,
            total_cost: self.total_cost,
            records: Vec::new(),
            failures: CampaignFailures { extraction: extraction_failures, parsing: self.parse_failures },
        }
    }
}
