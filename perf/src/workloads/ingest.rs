//! `ingest`: the offline path. Each round builds an index over 16
//! documents of five shapes, saves it as format v3, drops it, reopens it
//! through the mmap, runs `doctor()` and answers a few probe queries.
//! Nearly all the work is in `xml`, `text`, `index` and `dewey` and none
//! in `server`, so a query-side optimisation must leave this workload
//! flat and a build-side one shows here.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gks_core::engine::Engine;
use gks_index::{Corpus, GksIndex, IndexOptions};
use gks_text::Analyzer;
use gks_xml::{Event, Reader};

use super::{
    codec_probe, open_engine, query_op, save_v3, set_up, BuildFacts, EndToEnd, Finished, Run,
};
use crate::inputs::{corpus_of, heavy_queries, mixed_corpus, term_counts, QuerySpec};
use crate::metrics::Outcome;
use crate::span::Recorder;
use crate::stats::{self, Samples};

/// Rounds are too few in a window for a percentile beyond the upper
/// quartile to keep ten samples beyond it.
const TAIL: f64 = 0.75;

pub fn run(run: &Run) -> Finished {
    let mut outcome = Outcome::default();
    let options = IndexOptions::default();
    // Set-up generates the documents and runs round zero: the in-memory
    // index gives the probe queries and the reference answers every timed
    // round must reproduce.
    let (input, setup_secs) = set_up(&run.dir, |_| {
        let docs = mixed_corpus(run.seed, run.scale);
        let corpus = corpus_of(&docs);
        let reference =
            Engine::from_index(GksIndex::build(&corpus, options.clone()).expect("build index"));
        let healthy = reference.index().doctor().is_empty();
        let terms = term_counts(reference.index());
        let probes: Vec<QuerySpec> = heavy_queries(&terms, run.scaled(200), run.scaled(4_000))
            .into_iter()
            .step_by(6)
            .collect();
        let expected: Vec<String> = probes
            .iter()
            .map(|spec| query_op(&reference, spec).map(|(a, _)| a).unwrap_or_default())
            .collect();
        (corpus, probes, expected, healthy)
    });
    let (corpus, probes, expected, healthy) = input;
    outcome.check(healthy, || "built index fails doctor()".into());
    outcome.answers_digest = expected
        .iter()
        .fold(stats::FNV_OFFSET, |state, a| stats::fnv1a(state, a.as_bytes()));
    let xml_mb = corpus.total_bytes() as f64 / 1e6;
    let path = run.dir.join("round.gksix");

    let mut rec = Recorder::new(run.traced);
    let mut rounds = Samples::default();
    let mut facts = BuildFacts::default();
    let mut layers = Layers::default();
    let mut wall = Duration::ZERO;
    let deadline = Instant::now() + run.window();
    while Instant::now() < deadline {
        let round_start = Instant::now();
        rec.next_op();
        let root = rec.enter("round");
        let (index, build) = rec.time("index.build", || {
            GksIndex::build(&corpus, options.clone()).expect("build index")
        });
        let (file_bytes, persist) = rec.time("index.persist", || save_v3(&index, &path));
        if run.traced {
            layers.observe(&mut rec, &corpus, &index, &options, build);
        }
        let (_, dropped) = rec.time("index.drop", || drop(index));
        let ((mapped, _), open) = rec.time("index.open", || open_engine(&path));
        let (violations, doctor) = rec.time("index.doctor", || mapped.index().doctor());
        let (answers, query) = rec.time("core.query", || {
            probes
                .iter()
                .map(|spec| query_op(&mapped, spec).map(|(a, _)| a))
                .collect::<Vec<_>>()
        });
        rec.exit(root);

        outcome.check(violations.is_empty(), || format!("reopened index: {violations:?}"));
        for (spec, (got, want)) in probes.iter().zip(answers.iter().zip(&expected)) {
            outcome.check(got.as_ref() == Ok(want), || format!("v3 answer differs: {}", spec.text));
        }
        rounds.push(build + persist + dropped + open + doctor + query);
        facts.build_mb_per_s.push(xml_mb / build.as_secs_f64());
        facts.open_ms.push(open.as_secs_f64() * 1e3);
        facts.bytes_per_xml_byte = file_bytes as f64 / corpus.total_bytes() as f64;
        layers.persist.push(persist);
        layers.doctor.push(doctor);
        layers.file_bytes = file_bytes;
        layers.bytes_mapped = mapped.index().bytes_mapped();
        wall += round_start.elapsed();
    }

    outcome.note("rounds", rounds.len());
    outcome.note("xml MB", format!("{xml_mb:.3}"));
    outcome.note("documents", corpus.len());
    outcome.note_tail(rounds.len(), TAIL);
    if run.traced {
        layers.report(&mut outcome, xml_mb, &facts);
        // What the standalone loops and spans add to a round.
        let overhead = wall.as_secs_f64() / rounds.total_secs().max(1e-9) - 1.0;
        outcome.set("bench.trace_overhead_share", overhead);
        outcome.set("bench.ops", rounds.len() as f64);
    } else {
        let ops_per_s = rounds.len() as f64 / rounds.total_secs().max(1e-9);
        EndToEnd {
            setup_secs: &setup_secs,
            latency: &mut rounds,
            tail: TAIL,
            ops_per_s,
            facts: &facts,
        }
        .report(&mut outcome);
    }
    Finished::new(outcome, rec, run)
}

/// Per-layer measurements taken beside a traced round.
#[derive(Debug, Default)]
struct Layers {
    parse: Samples,
    analyze: Samples,
    build_self_share: Vec<f64>,
    serialize: Samples,
    persist: Samples,
    doctor: Samples,
    events: u64,
    tokens: u64,
    file_bytes: u64,
    bytes_mapped: u64,
    codec: Option<super::CodecProbe>,
}

impl Layers {
    /// Times the XML reader and the analyzer on their own over the same
    /// documents `build` just consumed; what `build` took beyond the two is
    /// the index layer's own share.
    fn observe(
        &mut self,
        rec: &mut Recorder,
        corpus: &Corpus,
        index: &GksIndex,
        options: &IndexOptions,
        build: Duration,
    ) {
        // Copying text out is the probe's cost, not the reader's: collect
        // untimed, then time the reader on its own.
        let mut texts: Vec<String> = Vec::new();
        let mut events = 0u64;
        for doc in corpus.docs() {
            let mut reader = Reader::new(&doc.xml);
            while let Some(event) = reader.next_event().expect("generated XML is well-formed") {
                events += 1;
                if let Event::Text(text) = &event {
                    texts.push(text.to_string());
                }
            }
        }
        let (_, parse_only) = rec.time("xml.parse", || {
            for doc in corpus.docs() {
                let mut reader = Reader::new(&doc.xml);
                while let Some(event) = reader.next_event().expect("generated XML is well-formed") {
                    black_box(&event);
                }
            }
        });
        let analyzer = Analyzer::new(options.analyzer_options());
        let mut tokens = 0u64;
        let mut buffer: Vec<String> = Vec::new();
        let (_, analyze) = rec.time("text.analyze", || {
            for text in &texts {
                buffer.clear();
                analyzer.analyze_into(text, &mut buffer);
                tokens += buffer.len() as u64;
            }
        });
        let (bytes, serialize) =
            rec.time("index.to_bytes_v3", || index.to_bytes_v3().expect("serialize v3"));
        black_box(bytes.len());
        self.parse.push(parse_only);
        self.analyze.push(analyze);
        self.serialize.push(serialize);
        self.events = events;
        self.tokens = tokens;
        let own = build.saturating_sub(parse_only + analyze);
        self.build_self_share.push(own.as_secs_f64() / build.as_secs_f64().max(1e-9));
        if self.codec.is_none() {
            let lists: Vec<&[gks_dewey::DeweyId]> =
                index.inverted().iter().map(|(_, postings)| postings).collect();
            self.codec = Some(rec.time("dewey.codec", || codec_probe(&lists, &[])).0);
        }
    }

    fn report(&mut self, outcome: &mut Outcome, xml_mb: f64, facts: &BuildFacts) {
        let per_s = |samples: &mut Samples| 1e3 / samples.percentile_ms(0.5).max(1e-9);
        outcome.set("xml.parse_mb_per_s", xml_mb * per_s(&mut self.parse));
        outcome.set("xml.events", self.events as f64);
        outcome.set("text.tokens_per_s", self.tokens as f64 * per_s(&mut self.analyze));
        outcome.set("text.tokens", self.tokens as f64);
        outcome.set("index.build_mb_per_s", stats::median(&facts.build_mb_per_s));
        outcome.set("index.build_self_share", stats::median(&self.build_self_share));
        outcome.set(
            "index.persist_mb_per_s",
            self.file_bytes as f64 / 1e6 * per_s(&mut self.persist),
        );
        outcome.set("index.doctor_ms", self.doctor.percentile_ms(0.5));
        outcome.set("index.open_ms", stats::median(&facts.open_ms));
        outcome.set("index.bytes_mapped_mb", self.bytes_mapped as f64 / 1e6);
        if let Some(codec) = &self.codec {
            outcome.set("dewey.encode_postings_per_us", codec.encode_postings_per_us);
            outcome.set("dewey.decode_postings_per_us", codec.decode_postings_per_us);
            outcome.set("dewey.bytes_per_posting", codec.bytes_per_posting);
        }
        outcome.note("to_bytes_v3 p50 ms", format!("{:.3}", self.serialize.percentile_ms(0.5)));
    }
}
