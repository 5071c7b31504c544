//! The record sink shared by every campaign run, and the sequential pass
//! through the campaign's stage types that the traced run times layer by
//! layer.

use std::io::Write;

use adaparse::campaign::{ExtractStage, ParseStage, RouteStage};
use adaparse::{
    cascade_gains, delegated_pages, AdaParseEngine, CascadeConfig, CascadeFeatures, CascadeSelector,
    JsonlSink, ParsedRecord, ParserChoice, RecordSink, RoutedDocument, RoutingGranularity, WindowedSelector,
};
use docmodel::spdf::{write_document, SpdfFile};
use docmodel::Document;
use parsersim::registry::ParserPool;
use textmetrics::{char_accuracy_rate, rouge_l, sentence_bleu};

use crate::stats::Digest;
use crate::trace::Tracer;

/// A writer that counts and digests the bytes it is given, then drops
/// them.
#[derive(Debug, Default)]
pub struct CountingWriter {
    /// Bytes written.
    pub bytes: u64,
    /// Digest of the bytes written.
    pub digest: Digest,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.digest.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// JSONL sink over a [`CountingWriter`] that also keeps a digest of every
/// record, so two runs can be compared document by document.
#[derive(Debug)]
pub struct RecordingSink {
    jsonl: JsonlSink<CountingWriter>,
    records: Vec<u64>,
}

impl Default for RecordingSink {
    fn default() -> Self {
        RecordingSink { jsonl: JsonlSink::new(CountingWriter::default()), records: Vec::new() }
    }
}

impl RecordingSink {
    /// Flush and return the per-record digests and the counted bytes.
    pub fn finish(self) -> (Vec<u64>, CountingWriter) {
        (self.records, self.jsonl.into_inner().expect("a CountingWriter never fails"))
    }
}

/// Digest of one record's fields, floats bit-exactly.
fn record_digest(record: &ParsedRecord) -> u64 {
    let mut digest = Digest::default();
    digest.u64(record.doc_id).u64(record.parser.index() as u64).f64(record.coverage).f64(record.bleu);
    digest.bytes(record.text.as_bytes());
    digest.value()
}

impl RecordSink for RecordingSink {
    fn accept(&mut self, record: ParsedRecord) -> std::io::Result<()> {
        self.records.push(record_digest(&record));
        self.jsonl.accept(record)
    }
}

/// How the pass routes documents.
pub enum Routing<'a> {
    /// The binary streaming campaign: a [`WindowedSelector`] over windows
    /// of `window` documents at the engine's α.
    Binary {
        /// Selection window.
        window: usize,
    },
    /// A k-parser cascade.
    Cascade(&'a CascadeConfig),
}

/// Outputs and counters of one pass.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Digest of each record, in document order.
    pub records: Vec<u64>,
    /// Each document's routing decision (cascade form; for the binary
    /// campaign only `doc_id`, `parser` and `cls1_invalid` are meaningful).
    pub choices: Vec<ParserChoice>,
    /// First-page extractions run.
    pub extractions: usize,
    /// Assigned-parser runs.
    pub parses: usize,
    /// Extractions or parser runs that returned an error.
    pub failures: usize,
    /// Pages the parsers processed.
    pub pages_parsed: usize,
    /// Pages delivered in records.
    pub pages_delivered: usize,
    /// Pages delegated to an upgrade parser.
    pub pages_delegated: usize,
    /// Per-document BLEU, ROUGE-L and CAR summed in document order, as the
    /// campaign folds them.
    pub quality_sums: [f64; 3],
    /// Characters handed to the quality kernels (candidate + reference).
    pub chars_compared: usize,
    /// SPDF bytes written and parsed back.
    pub spdf_bytes: usize,
    /// JSONL bytes written.
    pub sink_bytes: u64,
}

/// Run `docs` through the campaign's stages one document at a time, in the
/// order and with the seeds the pipeline uses, recording one span per call
/// into a layer. Each document's SPDF round trip is also timed on its own
/// (the extract and parse stages repeat it internally).
pub fn sequential_pass(
    engine: &AdaParseEngine,
    docs: &[Document],
    seed: u64,
    routing: &Routing<'_>,
    tracer: &mut Tracer,
) -> PassOutput {
    let config = engine.config();
    let pool = ParserPool::new();
    let extract = ExtractStage::new(config, &pool);
    let route = RouteStage::new(engine);
    let parse = ParseStage::new(config, &pool);
    let mut sink = RecordingSink::default();
    let mut out = PassOutput::default();
    let (window, mut binary, mut cascade) = match routing {
        Routing::Binary { window } => (*window, Some(WindowedSelector::new(*window, config.alpha)), None),
        Routing::Cascade(cascade) => (cascade.window, None, Some((CascadeSelector::new(cascade), *cascade))),
    };

    tracer.span("pass", None, |tracer| {
        for wave in docs.chunks(window.max(1)) {
            let mut scores = Vec::with_capacity(wave.len());
            for doc in wave {
                let id = Some(doc.id.0);
                out.spdf_bytes += tracer.span("docmodel.spdf", id, |_| {
                    let bytes = write_document(doc);
                    SpdfFile::parse(&bytes).expect("generated documents serialize cleanly");
                    bytes.len()
                });
                let extracted = tracer.span("parsersim.extract", id, |_| extract.run(doc, seed));
                out.extractions += 1;
                out.failures += extracted.failed as usize;
                scores.push(tracer.span("selector.predict", id, |_| route.improvement(&extracted.input)));
            }

            let choices: Vec<ParserChoice> =
                tracer.span("budget.select", None, |_| match (&mut binary, &mut cascade) {
                    (Some(selector), _) => {
                        let improvements: Vec<f64> = scores.iter().map(|&(s, _)| s).collect();
                        let mask = selector.select_window(&improvements);
                        wave.iter()
                            .zip(&scores)
                            .zip(mask)
                            .map(|((doc, &(improvement, invalid)), selected)| {
                                let candidate = improvement > f64::MIN / 8.0;
                                ParserChoice {
                                    doc_id: doc.id.0,
                                    parser: if selected && candidate {
                                        config.high_quality_parser
                                    } else {
                                        config.default_parser
                                    },
                                    upgrade: None,
                                    predicted_gain: 0.0,
                                    cls1_invalid: invalid,
                                    upgraded_pages: Vec::new(),
                                }
                            })
                            .collect()
                    }
                    (None, Some((selector, cascade))) => resolve_cascade(cascade, selector, wave, &scores),
                    (None, None) => unreachable!("one routing mode is always set"),
                });

            for (doc, choice) in wave.iter().zip(&choices) {
                let id = Some(doc.id.0);
                let pages = doc.page_count();
                let decision = RoutedDocument {
                    doc_id: doc.id.0,
                    parser: choice.parser,
                    predicted_improvement: 0.0,
                    cls1_invalid: choice.cls1_invalid,
                };
                let parsed = tracer.span("parsersim.parse", id, |_| match &cascade {
                    Some((_, cascade)) if !choice.upgraded_pages.is_empty() => {
                        parse.run_choice(doc, choice, cascade.frontier.base(), seed)
                    }
                    _ => parse.run(doc, &decision, seed),
                });
                // A delegated document runs the upgrade and then the base
                // parser over every page, unless the upgrade failed first.
                let runs = if choice.upgraded_pages.is_empty() || parsed.failed { 1 } else { 2 };
                out.parses += runs;
                out.failures += parsed.failed as usize;
                out.pages_parsed += runs * pages;
                out.pages_delivered += pages;
                out.pages_delegated += choice.upgraded_pages.len();

                let truth = tracer.span("docmodel.truth", id, |_| doc.ground_truth());
                let text = &parsed.output.text;
                out.chars_compared += text.chars().count() + truth.chars().count();
                let bleu = tracer.span("textmetrics.bleu", id, |_| sentence_bleu(text, &truth));
                let rouge = tracer.span("textmetrics.rouge", id, |_| rouge_l(text, &truth).f1);
                let car = tracer.span("textmetrics.car", id, |_| char_accuracy_rate(text, &truth));
                for (sum, value) in out.quality_sums.iter_mut().zip([bleu, rouge, car]) {
                    *sum += value;
                }
                let coverage = parsed.output.coverage().clamp(0.0, 1.0);
                let record = ParsedRecord {
                    doc_id: doc.id.0,
                    parser: choice.parser,
                    text: parsed.output.text,
                    coverage,
                    bleu,
                };
                tracer
                    .span("output.sink", id, |_| sink.accept(record))
                    .expect("a CountingWriter never fails");
            }
            out.choices.extend(choices);
        }
    });

    let (records, writer) = sink.finish();
    out.records = records;
    out.sink_bytes = writer.bytes;
    out
}

/// One cascade window: per-upgrade gains, selection, and each grant
/// resolved into a choice with its delegated pages — the order of calls
/// the cascade campaign makes.
fn resolve_cascade(
    cascade: &CascadeConfig,
    selector: &mut CascadeSelector,
    wave: &[Document],
    scores: &[(f64, bool)],
) -> Vec<ParserChoice> {
    let features: Vec<CascadeFeatures> = wave.iter().map(CascadeFeatures::of).collect();
    let gains = cascade_gains(&cascade.frontier, scores, &features);
    let granted = selector.select_window(&gains);
    wave.iter()
        .enumerate()
        .map(|(i, doc)| {
            let (improvement, invalid) = scores[i];
            let gain = granted[i].map_or(improvement, |j| gains[j][i]);
            let mut choice = ParserChoice::resolve(&cascade.frontier, doc.id.0, granted[i], gain, invalid);
            if cascade.granularity == RoutingGranularity::ByPage && choice.is_upgraded() {
                let pages = delegated_pages(doc);
                if pages.len() < doc.page_count() {
                    let fraction = pages.len() as f64 / doc.page_count().max(1) as f64;
                    selector.refund_delegated(choice.upgrade.expect("upgraded choice"), fraction);
                    choice.upgraded_pages = pages;
                }
            }
            choice
        })
        .collect()
}
