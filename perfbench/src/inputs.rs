//! Seeded inputs: category-stratified corpora, the trained router, and
//! routed score samples.

use std::ops::RangeInclusive;

use adaparse::campaign::{ExtractStage, RouteStage};
use adaparse::{AdaParseConfig, AdaParseEngine};
use docmodel::spdf::{write_document, SpdfFile};
use docmodel::{DocCategory, DocId, Document};
use parsersim::registry::ParserPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scicorpus::categories::{category_preset, CategoryMix};
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};
use selector::dataset::AccuracyDataset;

use crate::metrics::Metrics;
use crate::stats::Digest;
use crate::trace::Tracer;

/// Ground-truth length, in whitespace-normalized characters, above which a
/// document counts as long: the threshold where the repository's CAR
/// kernel switches from the exact to the banded edit distance.
pub const LONG_DOC_CHARS: usize = 4_000;

/// Documents of the router's labelled training set.
const TRAIN_DOCS: usize = 12;

/// Generated documents with the category each was drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Documents with ids `0..n`.
    pub documents: Vec<Document>,
    /// `categories[i]` is the category of `documents[i]`.
    pub categories: Vec<DocCategory>,
}

/// Split `n` over the mix's weights by largest remainder (ties to the
/// earlier entry), so category counts are fixed for a given `n`.
pub fn apportion(mix: &CategoryMix, n: usize) -> Vec<usize> {
    let total: f64 = mix.weights.iter().map(|&(_, w)| w).sum();
    let quotas: Vec<f64> = mix.weights.iter().map(|&(_, w)| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..quotas.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
        rb.partial_cmp(&ra).expect("weights are finite").then(a.cmp(&b))
    });
    let missing = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

/// A corpus of `n` documents stratified by category and page count: each
/// category gets its apportioned share of `mix`, and within a category
/// page counts cycle through `pages`. Text, layers and difficulty are
/// drawn from the category presets of `scicorpus`; the documents are then
/// shuffled and numbered. Stratifying keeps the corpus's size in pages and
/// its category counts equal across seeds, so seeds differ only in the
/// documents themselves.
pub fn stratified_corpus(mix: &CategoryMix, n: usize, pages: RangeInclusive<usize>, seed: u64) -> Corpus {
    let page_counts: Vec<usize> = pages.collect();
    let mut drawn: Vec<(Document, DocCategory)> = Vec::with_capacity(n);
    for (k, (&(category, _), count)) in mix.weights.iter().zip(apportion(mix, n)).enumerate() {
        let mut generators: Vec<DocumentGenerator> = page_counts
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                let stream = (k * page_counts.len() + j) as u64 + 1;
                let base = GeneratorConfig {
                    min_pages: p,
                    max_pages: p,
                    seed: seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream),
                    ..Default::default()
                };
                DocumentGenerator::new(category_preset(&base, category))
            })
            .collect();
        for i in 0..count {
            let doc = generators[(i + k) % page_counts.len()].generate();
            drawn.push((doc, category));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A0F_F1E5);
    for i in (1..drawn.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        drawn.swap(i, j);
    }
    let mut corpus = Corpus { documents: Vec::with_capacity(n), categories: Vec::with_capacity(n) };
    for (i, (mut doc, category)) in drawn.into_iter().enumerate() {
        doc.id = DocId(i as u64);
        corpus.documents.push(doc);
        corpus.categories.push(category);
    }
    corpus
}

/// The router every workload uses: `TRAIN_DOCS` one-page documents of
/// `mix`, labelled with every parser (`selector.label`), then CLS II/III fit
/// on them (`selector.fit`). Returns the engine and a digest of its
/// training documents.
pub fn train_router(
    config: AdaParseConfig,
    mix: &CategoryMix,
    seed: u64,
    tracer: &mut Tracer,
) -> (AdaParseEngine, u64) {
    let train =
        tracer.span("scicorpus.generate", None, |_| stratified_corpus(mix, TRAIN_DOCS, 1..=1, seed ^ 0x7EA1));
    let dataset =
        tracer.span("selector.label", None, |_| AccuracyDataset::build(&train.documents, seed ^ 0x1ABE, 1.0));
    let mut engine = AdaParseEngine::new(config);
    tracer.span("selector.fit", None, |_| engine.train(&dataset, &[]));
    let mut digest = Digest::default();
    corpus_digest(&train, &mut digest);
    (engine, digest.value())
}

/// Record the input properties a gain may depend on.
pub fn record_properties(corpus: &Corpus, metrics: &mut Metrics) {
    let n = corpus.documents.len().max(1) as f64;
    let long = corpus
        .documents
        .iter()
        .filter(|doc| textmetrics::normalize_whitespace(&doc.ground_truth()).chars().count() > LONG_DOC_CHARS)
        .count();
    let pages: usize = corpus.documents.iter().map(Document::page_count).sum();
    metrics.set("scicorpus.long_doc_share", long as f64 / n);
    metrics.set("scicorpus.pages_per_doc", pages as f64 / n);
    for (category, name) in [
        (DocCategory::Scanned, "scicorpus.docs_scanned"),
        (DocCategory::TablesHeavy, "scicorpus.docs_tables_heavy"),
        (DocCategory::Multilingual, "scicorpus.docs_multilingual"),
        (DocCategory::CleanBornDigital, "scicorpus.docs_clean"),
    ] {
        metrics.set(name, corpus.categories.iter().filter(|&&c| c == category).count() as f64);
    }
}

/// One line describing the corpus, for the run's notes.
pub fn describe(corpus: &Corpus) -> String {
    let mut metrics = Metrics::new(crate::metrics::per_layer());
    record_properties(corpus, &mut metrics);
    let get = |name: &str| metrics.get(name).unwrap_or(0.0);
    format!(
        "{} docs, {:.2} pages/doc, long-doc share {:.3}, categories scanned {} / tables-heavy {} / multilingual {} / clean {}",
        corpus.documents.len(),
        get("scicorpus.pages_per_doc"),
        get("scicorpus.long_doc_share"),
        get("scicorpus.docs_scanned"),
        get("scicorpus.docs_tables_heavy"),
        get("scicorpus.docs_multilingual"),
        get("scicorpus.docs_clean"),
    )
}

/// Router scores for a real document sample: each document is extracted
/// and scored by the trained router, one span per layer call. A recording
/// tracer also times each document's SPDF round trip on its own. Scores use
/// the campaign's convention: documents the router does not consider
/// candidates score 0.
pub fn routed_scores(engine: &AdaParseEngine, docs: &[Document], seed: u64, tracer: &mut Tracer) -> Vec<f64> {
    let pool = ParserPool::new();
    let extract = ExtractStage::new(engine.config(), &pool);
    let route = RouteStage::new(engine);
    docs.iter()
        .map(|doc| {
            let id = Some(doc.id.0);
            if tracer.enabled() {
                tracer.span("docmodel.spdf", id, |_| {
                    SpdfFile::parse(&write_document(doc)).expect("generated documents serialize cleanly")
                });
            }
            let extracted = tracer.span("parsersim.extract", id, |_| extract.run(doc, seed));
            let (score, _) = tracer.span("selector.predict", id, |_| route.improvement(&extracted.input));
            if score > f64::MIN / 8.0 {
                score
            } else {
                0.0
            }
        })
        .collect()
}

/// Digest of a corpus (ids, ground truth, page counts).
pub fn corpus_digest(corpus: &Corpus, digest: &mut Digest) {
    for (doc, category) in corpus.documents.iter().zip(&corpus.categories) {
        digest.u64(doc.id.0).u64(doc.page_count() as u64).u64(category.index() as u64);
        digest.bytes(doc.ground_truth().as_bytes());
    }
}
