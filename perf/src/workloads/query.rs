//! `query_selective` and `query_heavy`: one thread, closed loop, against a
//! format-v3 index opened through the mmap. They share the index and the
//! operation and differ in the query set, which decides where the time
//! goes: selective queries pay fixed per-query cost and first-touch block
//! decodes over a term set as large as the rare dictionary; the 24 heavy
//! queries are warm after one pass and spend their time in merge, window,
//! sweep, rank, DI and MB-sized wire bodies.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use gks_baselines::oracle::GroundTruth;
use gks_core::engine::Engine;
use gks_index::{GksIndex, IndexOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    codec_probe, open_engine_sampled, query_op, save_v3, set_up, timed, traced_query_op,
    BuildFacts, CoreStages, EndToEnd, Finished, Run,
};
use crate::inputs::{
    corpus_of, dblp_corpus, heavy_queries, selective_keywords, selective_queries, sub_seed,
    term_counts, QuerySpec,
};
use crate::metrics::Outcome;
use crate::span::Recorder;
use crate::stats::{self, Samples};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Selective,
    Heavy,
}

/// Documents in the corpus.
const DOCS: usize = 8;
/// DBLP records per document at full scale (about 6 MB in all).
const ARTICLES_PER_DOC: usize = 3_000;
const SELECTIVE_QUERIES: usize = 4_000;
/// Selective queries checked against the in-memory engine before the
/// window (and again every time the window draws one of them).
const SELECTIVE_VERIFIED: usize = 300;
/// |SL| range of the heavy queries at full scale. At s = 1 nearly every
/// posting becomes a hit, so an operation costs about 11 µs per posting
/// and renders up to 1.6 MB; the range keeps the mean near 40 ms, which
/// gives the 95th percentile its ten samples beyond in a 10 s window.
const HEAVY_SL: (usize, usize) = (800, 7_000);

struct Product {
    /// The index as built, never saved: the reference for every answer.
    reference: Engine,
    /// The same index saved as v3 and reopened through the mmap.
    mapped: Engine,
    queries: Vec<QuerySpec>,
}

pub fn run(run: &Run, kind: Kind) -> Finished {
    let mut outcome = Outcome::default();
    let mut facts = BuildFacts::default();
    let articles = run.scaled(ARTICLES_PER_DOC);

    let (product, setup_secs) = set_up(&run.dir, |dir| {
        let (docs, authors) = dblp_corpus(run.seed, DOCS, articles);
        let corpus = corpus_of(&docs);
        let xml_bytes = corpus.total_bytes();
        let (index, build) =
            timed(|| GksIndex::build(&corpus, IndexOptions::default()).expect("build index"));
        let path = dir.join("index.gksix");
        let file_bytes = save_v3(&index, &path);
        let mapped = open_engine_sampled(&path, &mut facts.open_ms);
        facts.build_mb_per_s.push(xml_bytes as f64 / 1e6 / build.as_secs_f64());
        facts.bytes_per_xml_byte = file_bytes as f64 / xml_bytes as f64;
        let terms = term_counts(&index);
        let queries = match kind {
            Kind::Selective => {
                let pool = selective_keywords(&index, &terms, &authors);
                selective_queries(&pool, run.seed, run.scaled(SELECTIVE_QUERIES).max(64))
            }
            Kind::Heavy => heavy_queries(&terms, run.scaled(HEAVY_SL.0), run.scaled(HEAVY_SL.1)),
        };
        Product { reference: Engine::from_index(index), mapped, queries }
    });
    let Product { reference, mapped, queries } = product;
    outcome.check(reference.index().doctor().is_empty(), || "built index fails doctor()".into());
    check_against_oracle(run, &mut outcome);

    let mut rec = Recorder::new(run.traced);
    let mut stages = CoreStages::default();
    if run.traced {
        first_touch(&mapped, &queries, &mut outcome);
    }

    // Fixed verification sample: reopened-v3 answers byte-equal to the
    // in-memory engine's. Its digest is what must repeat across runs. For
    // the heavy set it is also the warming pass.
    let verified = match kind {
        Kind::Selective => SELECTIVE_VERIFIED.min(queries.len()),
        Kind::Heavy => queries.len(),
    };
    let mut expected = Vec::with_capacity(verified);
    let mut digest = stats::FNV_OFFSET;
    for spec in &queries[..verified] {
        let want = query_op(&reference, spec).map(|(answer, _)| answer);
        let got = if run.traced {
            traced_query_op(&mut rec, &mut stages, &mapped, spec)
        } else {
            query_op(&mapped, spec).map(|(answer, _)| answer)
        };
        outcome.check(want.is_ok() && want == got, || format!("v3 answer differs: {}", spec.text));
        let answer = got.unwrap_or_default();
        digest = stats::fnv1a(digest, answer.as_bytes());
        expected.push(stats::digest(answer.as_bytes()));
    }
    outcome.answers_digest = digest;
    if run.traced {
        stages.report_counts(&mut outcome);
    }
    drop(reference);

    // Measured window. Selective queries are drawn uniformly, so the
    // touched-term set is the whole pool; heavy ones go round-robin.
    let mut rng = StdRng::seed_from_u64(sub_seed(run.seed, 0xd4a3));
    let mut bare = Samples::default();
    let deadline = Instant::now() + run.window();
    // A traced run alternates bare and traced operations so both see the
    // same mix: one by one for random draws, pass by pass for round-robin.
    let block = match kind {
        Kind::Selective => 1,
        Kind::Heavy => queries.len(),
    };
    let mut i = 0usize;
    while Instant::now() < deadline {
        let qid = match kind {
            Kind::Selective => rng.gen_range(0..queries.len()),
            Kind::Heavy => i % queries.len(),
        };
        let spec = &queries[qid];
        let answer = if run.traced && (i / block) % 2 == 1 {
            traced_query_op(&mut rec, &mut stages, &mapped, spec)
        } else {
            query_op(&mapped, spec).map(|(answer, took)| {
                bare.push(took);
                answer
            })
        };
        let ok = match (&answer, expected.get(qid)) {
            (Ok(answer), Some(want)) => stats::digest(answer.as_bytes()) == *want,
            (Ok(_), None) => true,
            (Err(_), _) => false,
        };
        outcome.check(ok, || format!("window answer wrong: {}", spec.text));
        black_box(answer).ok();
        i += 1;
    }

    let tail = match kind {
        Kind::Selective => 0.99,
        Kind::Heavy => 0.95,
    };
    outcome.note("ops", bare.len());
    outcome.note_tail(bare.len(), tail);
    outcome.note("queries", queries.len());
    outcome.note("verified queries", verified);
    if run.traced {
        stages.report_times(&mut outcome);
        outcome.set("core.stage_sum_share", stages.stage_sum_share(&bare));
        outcome.set("bench.trace_overhead_share", stages.overhead_share(&bare));
        outcome.set("bench.ops", (bare.len() + stages.wall.len()) as f64);
        let index = mapped.index();
        outcome.set("index.open_ms", stats::median(&facts.open_ms));
        outcome.set("index.bytes_mapped_mb", index.bytes_mapped() as f64 / 1e6);
        outcome.set("index.decoded_terms", index.decoded_terms() as f64);
        outcome.set("index.resident_posting_mb", index.inverted().resident_bytes() as f64 / 1e6);
        outcome.set("index.build_mb_per_s", stats::median(&facts.build_mb_per_s));
        report_codec(&mapped, &queries, &mut outcome);
    } else {
        let ops_per_s = bare.len() as f64 / bare.total_secs().max(1e-9);
        EndToEnd { setup_secs: &setup_secs, latency: &mut bare, tail, ops_per_s, facts: &facts }
            .report(&mut outcome);
    }
    Finished::new(outcome, rec, run)
}

/// Exactness against the DOM ground truth on a small slice: every hit's
/// keyword mask equals the oracle's and reaches the threshold.
fn check_against_oracle(run: &Run, outcome: &mut Outcome) {
    let (docs, authors) = dblp_corpus(sub_seed(run.seed, 0x0c1e), 1, run.scaled(1_500).max(80));
    let corpus = corpus_of(&docs);
    let options = IndexOptions::default();
    let engine = Engine::build(&corpus, options.clone()).expect("build oracle slice");
    let terms = term_counts(engine.index());
    let pool = selective_keywords(engine.index(), &terms, &authors);
    let mut sample = selective_queries(&pool, run.seed, 8);
    sample.extend(heavy_queries(&terms, 60, 600).into_iter().step_by(6));
    for spec in &sample {
        let query = spec.parse();
        let truth = GroundTruth::compute(&corpus, &query, &options);
        let exact = engine.search(&query, spec.options(usize::MAX)).is_ok_and(|response| {
            response.hits().iter().all(|hit| {
                hit.keyword_mask == truth.mask(&hit.node)
                    && hit.keyword_count as usize >= response.s()
            })
        });
        outcome.check(exact, || format!("hit masks differ from the oracle: {}", spec.text));
    }
}

/// The distinct index terms of `queries`, in first-use order.
fn query_terms(engine: &Engine, queries: &[QuerySpec], limit: usize) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for spec in queries {
        for keyword in spec.parse().normalized(engine.index().analyzer()) {
            for term in keyword.terms() {
                if out.len() < limit && seen.insert(term.clone()) {
                    out.push(term.clone());
                }
            }
        }
    }
    out
}

/// First and second lookup of terms no query has touched yet: the first
/// decodes the term's blocks out of the map, the second finds them
/// decoded. Uses the tail of the query list, which verification skips.
fn first_touch(mapped: &Engine, queries: &[QuerySpec], outcome: &mut Outcome) {
    let tail = &queries[queries.len() - queries.len().min(200)..];
    let index = mapped.index();
    let (mut first, mut warm) = (Samples::default(), Samples::default());
    for term in query_terms(mapped, tail, 256) {
        let (n, took) = timed(|| index.postings(&term).len());
        first.push(took);
        let (m, took) = timed(|| index.postings(&term).len());
        warm.push(took);
        black_box((n, m));
    }
    outcome.set("index.first_touch_us", first.percentile_us(0.5));
    outcome.set("index.warm_lookup_ns", warm.percentile_ns(0.5));
    outcome.note("first-touch terms", first.len());
}

fn report_codec(mapped: &Engine, queries: &[QuerySpec], outcome: &mut Outcome) {
    let terms = query_terms(mapped, queries, 512);
    let lists: Vec<&[gks_dewey::DeweyId]> =
        terms.iter().map(|t| mapped.index().postings(t)).collect();
    let probe = codec_probe(&lists, &[]);
    outcome.set("dewey.encode_postings_per_us", probe.encode_postings_per_us);
    outcome.set("dewey.decode_postings_per_us", probe.decode_postings_per_us);
    outcome.set("dewey.bytes_per_posting", probe.bytes_per_posting);
}
