//! The cascade's pinned contracts, end to end:
//!
//! * the k = 2 by-document cascade reproduces the binary streaming
//!   campaign **bitwise** — same masks, same records, same
//!   `CampaignResult` — on a frozen workload,
//! * the k = 4 by-page cascade report is bitwise identical across worker
//!   counts and shard sizes,
//! * the [`CascadeSelector`] over a pair frontier degenerates to the
//!   [`WindowedSelector`] mask for mask under proptest-random streams,
//! * the by-page task DAG never lets a join start before every one of its
//!   page children has finished, for proptest-random delegation patterns.

use adaparse::{
    cascade_gains, tasks_for_cascade_with_affinity, AdaParseConfig, AdaParseEngine, CampaignPipeline,
    CampaignResult, CascadeConfig, CascadeSelector, NodePlan, ParserChoice, PipelineConfig, RoutingMode,
    WindowedSelector, WorkloadSpec,
};
use docmodel::document::Document;
use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, WorkflowExecutor};
use parsersim::{ParserFrontier, ParserKind};
use proptest::prelude::*;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

fn corpus(n: usize, seed: u64) -> Vec<Document> {
    DocumentGenerator::new(GeneratorConfig {
        n_documents: n,
        seed,
        min_pages: 1,
        max_pages: 3,
        scanned_fraction: 0.25,
        ..Default::default()
    })
    .generate_many(n)
}

fn trained_engine(config: AdaParseConfig) -> AdaParseEngine {
    let mut engine = AdaParseEngine::new(config);
    engine.train_on_corpus(&corpus(20, 2024), 5);
    engine
}

fn run_streaming(
    engine: &AdaParseEngine,
    docs: &[Document],
    seed: u64,
    workers: usize,
    shard: usize,
    window: usize,
) -> CampaignResult {
    CampaignPipeline::new(PipelineConfig {
        workers,
        shard_size: shard,
        mode: RoutingMode::Streaming { window },
        ..Default::default()
    })
    .run(engine, docs, seed)
}

/// The tentpole's frozen-workload pin: a binary (pair-frontier, by-doc)
/// cascade is not "approximately" the old streaming campaign — it *is* the
/// old streaming campaign, record for record and bit for bit, at every
/// worker count.
#[test]
fn k2_by_doc_cascade_reproduces_the_streaming_campaign_bitwise() {
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());
    let docs = corpus(90, 77);
    let window = 16;

    let streaming = run_streaming(&engine, &docs, 11, 2, 8, window);
    for (workers, shard) in [(1, 7), (2, 8), (4, 16)] {
        let pipeline = CampaignPipeline::new(PipelineConfig {
            workers,
            shard_size: shard,
            mode: RoutingMode::Streaming { window },
            ..Default::default()
        });
        let cascade = pipeline.run_cascade(&engine, &docs, &CascadeConfig::binary(&config, window), 11);
        assert_eq!(
            cascade.result, streaming,
            "binary cascade diverged from streaming at workers={workers} shard={shard}"
        );
        // The degenerate cascade masks are the binary masks: a document is
        // upgraded exactly when streaming routed it to the high-quality
        // parser.
        for (choice, record) in cascade.choices.iter().zip(&streaming.records) {
            assert_eq!(choice.doc_id, record.doc_id);
            assert_eq!(
                choice.is_upgraded(),
                record.parser == config.high_quality_parser,
                "doc {}: mask bit diverged",
                choice.doc_id
            );
        }
    }
}

/// The k = 4 by-page cascade — full frontier, per-page delegation and
/// stitching, refunded dollars — is as worker-count-independent as the
/// binary one: the whole report, choices and ledger included, is bitwise
/// equal at every worker count and shard size.
#[test]
fn k4_by_page_cascade_is_bitwise_identical_across_worker_counts() {
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());
    let docs = corpus(90, 77);
    let cascade = CascadeConfig::full(&config, 16).by_page();

    let run = |workers: usize, shard: usize| {
        CampaignPipeline::new(PipelineConfig { workers, shard_size: shard, ..Default::default() })
            .run_cascade(&engine, &docs, &cascade, 11)
    };
    let reference = run(1, 7);
    assert!(reference.pages_delegated > 0, "the frozen corpus must exercise per-page delegation");
    for (workers, shard) in [(2, 8), (4, 16)] {
        let report = run(workers, shard);
        assert_eq!(report.result, reference.result, "result diverged at workers={workers} shard={shard}");
        assert_eq!(report.choices, reference.choices, "choices diverged at workers={workers} shard={shard}");
        assert_eq!(report.dollars, reference.dollars, "dollars diverged at workers={workers} shard={shard}");
        assert_eq!(report.pages_delegated, reference.pages_delegated);
        assert_eq!(report, reference);
    }
}

/// At the same ledger spend (equal α in costliest-upgrade units), a wider
/// frontier never captures *less* predicted quality than the binary one —
/// the greedy can always fall back on the binary assignment.
#[test]
fn wider_frontiers_dominate_binary_predicted_gain_on_the_frozen_corpus() {
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());
    let docs = corpus(90, 77);
    let pipeline = CampaignPipeline::new(PipelineConfig::streaming(2, 8));
    let binary = pipeline.run_cascade(&engine, &docs, &CascadeConfig::binary(&config, 16), 11);
    let k4 = pipeline.run_cascade(&engine, &docs, &CascadeConfig::full(&config, 16), 11);
    let upgraded = |r: &adaparse::CascadeReport| r.choices.iter().filter(|c| c.is_upgraded()).count();
    assert!(
        upgraded(&k4) >= upgraded(&binary),
        "fractional-weight upgrades cannot shrink coverage: k4={} binary={}",
        upgraded(&k4),
        upgraded(&binary)
    );
    assert!(k4.result.quality.documents == docs.len() && binary.result.quality.documents == docs.len());
}

proptest! {
    // Mask-for-mask degeneration of the cascade selector to the windowed
    // selector over random score streams, windows and budgets — including
    // the CLS I sentinel values the binary router emits.
    #[test]
    fn cascade_selector_degenerates_to_windowed_selector(
        raw in proptest::collection::vec(-1.0f64..1.0, 1..200),
        sentinels in proptest::collection::vec(0usize..200, 0..20),
        alpha in 0.0f64..1.0,
        window in 1usize..40,
    ) {
        let mut scores = raw;
        for &i in &sentinels {
            if i < scores.len() {
                // Alternate invalid / non-candidate sentinels.
                scores[i] = if i % 2 == 0 { f64::MAX / 4.0 } else { f64::MIN / 4.0 };
            }
        }
        let config = AdaParseConfig { alpha, ..Default::default() };
        let cascade_config = CascadeConfig::binary(&config, window);
        let mut windowed = WindowedSelector::new(window, alpha);
        let mut cascade = CascadeSelector::new(&cascade_config);
        for chunk in scores.chunks(window) {
            let expected = windowed.select_window(chunk);
            let pair_scores: Vec<(f64, bool)> = chunk.iter().map(|&s| (s, false)).collect();
            let features = vec![
                adaparse::CascadeFeatures { difficulty: 0.5, legibility: 0.5 };
                chunk.len()
            ];
            let gains = cascade_gains(&cascade_config.frontier, &pair_scores, &features);
            let got = cascade.select_window(&gains);
            let got_mask: Vec<bool> = got.iter().map(Option::is_some).collect();
            prop_assert_eq!(&got_mask, &expected, "masks diverged within a window");
        }
        prop_assert_eq!(cascade.granted(), windowed.selected());
    }

    // The by-page DAG's ordering contract: for random delegation
    // patterns, a document's page-join task never starts before the last
    // of its page children finishes, and page children never start before
    // the split.
    #[test]
    fn page_join_waits_for_every_page_child(
        pages in proptest::collection::vec(1usize..7, 1..14),
        delegate_bits in proptest::collection::vec(0u8..2, 14..15),
        nodes in 1usize..4,
    ) {
        let frontier = ParserFrontier::full(ParserKind::PyMuPdf);
        let upgrade = frontier.upgrades().len() - 1;
        let choices: Vec<ParserChoice> = pages
            .iter()
            .enumerate()
            .map(|(i, &n_pages)| {
                let delegated: Vec<usize> = if delegate_bits[i % delegate_bits.len()] == 1 {
                    // Delegate a strict, non-empty prefix when possible.
                    (0..n_pages.saturating_sub(1).max(1).min(n_pages)).collect()
                } else {
                    Vec::new()
                };
                ParserChoice {
                    doc_id: i as u64,
                    parser: if delegated.is_empty() && i % 3 != 0 {
                        frontier.base()
                    } else {
                        frontier.upgrades()[upgrade].parser
                    },
                    upgrade: if delegated.is_empty() && i % 3 != 0 { None } else { Some(upgrade) },
                    predicted_gain: 0.1,
                    cls1_invalid: false,
                    upgraded_pages: delegated,
                }
            })
            .collect();
        let workload = WorkloadSpec { documents: choices.len(), pages_per_doc: 6, mb_per_doc: 3.0 };
        let plan = NodePlan { extract_nodes: nodes, parse_nodes: 1 };
        let tasks = tasks_for_cascade_with_affinity(&frontier, &choices, &workload, &plan);
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&ClusterConfig::polaris(plan.total()));
        let report = session.submit(&tasks, &LustreModel::default());
        prop_assert_eq!(report.tasks_completed, tasks.len(), "every DAG task must schedule");

        let max_pages = choices.iter().map(|c| c.upgraded_pages.len()).max().unwrap_or(0);
        let stride = (max_pages as u64) + 4;
        let rows = session.schedule();
        let row = |id: u64| rows.iter().find(|r| r.id == id);
        for choice in &choices {
            if choice.upgraded_pages.is_empty() {
                continue;
            }
            let base_id = choice.doc_id * stride;
            let split = row(base_id + 1).expect("split task scheduled");
            prop_assert_eq!(split.label.as_str(), "page-split");
            let join = row(base_id + 2 + choice.upgraded_pages.len() as u64)
                .expect("join task scheduled");
            prop_assert_eq!(join.label.as_str(), "page-join");
            for offset in 0..choice.upgraded_pages.len() as u64 {
                let page = row(base_id + 2 + offset).expect("page task scheduled");
                prop_assert!(
                    page.start_seconds >= split.finish_seconds,
                    "doc {}: page started at {} before its split finished at {}",
                    choice.doc_id, page.start_seconds, split.finish_seconds
                );
                prop_assert!(
                    join.start_seconds >= page.finish_seconds,
                    "doc {}: join started at {} before page child finished at {}",
                    choice.doc_id, join.start_seconds, page.finish_seconds
                );
            }
        }
    }
}
