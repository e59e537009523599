//! `update`: writes beside reads, in-process on one thread. Set-up writes
//! a directory of small XML files and indexes it as two base shards. Each
//! cycle rewrites, deletes and adds a few files, commits them as one delta
//! shard, reloads the shard set and answers queries through it; every
//! fourth cycle ends with a compaction. The same build, persist and
//! posting code as the other workloads runs here through delta shards,
//! tombstone masks and doc remaps, so a read-side gain that costs the
//! write side, or the reverse, shows.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gks_core::di::DiOptions;
use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::shard::{discover_di_sharded, load_manifest_engines, sharded_search_mapped, DocMap};
use gks_core::{wire, CostLedger};
use gks_index::delta::plan_delta;
use gks_index::{
    commit_delta, compact, index_directory, Corpus, GksIndex, IndexOptions, ShardManifest,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    answer_bytes, codec_probe, query_op, report_ledger_means, set_up, timed, BuildFacts, EndToEnd,
    Finished, Run,
};
use crate::inputs::{
    dblp_doc, heavy_queries, selective_keywords, selective_queries, sub_seed, term_counts,
    QuerySpec,
};
use crate::metrics::Outcome;
use crate::span::Recorder;
use crate::stats::{self, Samples};

const FILES: usize = 200;
/// DBLP records per file (about 20 KB).
const ARTICLES_PER_FILE: usize = 80;
const SHARDS: usize = 2;
const CYCLES_PER_ROUND: usize = 4;
const REWRITTEN: usize = 8;
const DELETED: usize = 2;
const ADDED: usize = 2;
const SELECTIVE_PER_CYCLE: usize = 40;
/// One query in 41 is heavy, so the 99th percentile sits inside the heavy
/// queries and moves with which of them a window happened to reach; the
/// 95th is the selective tail, where first-touch decodes after each
/// reload land.
const TAIL: f64 = 0.95;
const SELECTIVE_QUERIES: usize = 1_000;
/// Queries compared with a fresh rebuild at the end of a verified round.
const REBUILD_CHECKED: usize = 16;
/// `commit_delta` hashes any file modified within 2 s of the last commit
/// instead of trusting its mtime. Waiting this long after set-up puts
/// every unchanged file on the mtime path from the first timed commit on;
/// without the wait the first commits hash the whole corpus and commit
/// time is bimodal.
const MTIME_SETTLE: Duration = Duration::from_millis(2_500);

struct Product {
    corpus_dir: PathBuf,
    manifest: PathBuf,
    live: Vec<String>,
    selective: Vec<QuerySpec>,
    heavy: Vec<QuerySpec>,
}

/// The shard set as queries see it after a commit or a compaction.
struct Loaded {
    manifest: ShardManifest,
    engines: Vec<Engine>,
    maps: Vec<DocMap>,
}

impl Loaded {
    fn open(manifest_path: &Path) -> (Loaded, Duration) {
        timed(|| {
            let manifest = ShardManifest::load(manifest_path).expect("load the manifest");
            let (engines, maps) =
                load_manifest_engines(&manifest).expect("open the shards").into_iter().unzip();
            Loaded { manifest, engines, maps }
        })
    }

    /// One query operation through every shard: parse, scatter in
    /// sequence and gather, insights, wire body.
    fn query_op(&self, spec: &QuerySpec) -> Result<(String, Duration, CostLedger), String> {
        let engines: Vec<&Engine> = self.engines.iter().collect();
        let indexes: Vec<&GksIndex> = engines.iter().map(|e| e.index()).collect();
        let start = Instant::now();
        let query = Query::parse(black_box(&spec.text)).map_err(|e| e.to_string())?;
        let sharded = sharded_search_mapped(&engines, &self.maps, &query, spec.options(usize::MAX))
            .map_err(|e| e.to_string())?;
        let insights = discover_di_sharded(&indexes, &sharded, &DiOptions::default());
        let body = wire::search_response_json_sharded(&engines, &sharded);
        let took = start.elapsed();
        let cost = sharded.response().cost().clone();
        Ok((answer_bytes(black_box(body), &insights), took, cost))
    }
}

pub fn run(run: &Run) -> Finished {
    let mut outcome = Outcome::default();
    let mut facts = BuildFacts::default();
    let files = run.scaled(FILES).max(24);
    let (mut product, setup_secs) =
        set_up(&run.dir, |dir| set_up_once(run, dir, files, &mut facts));
    if run.scale >= 1.0 {
        std::thread::sleep(MTIME_SETTLE);
    }

    let mut rec = Recorder::new(run.traced);
    let (mut loaded, _) = Loaded::open(&product.manifest);
    let mut rng = StdRng::seed_from_u64(sub_seed(run.seed, 0x09da7e));
    let (mut queries, mut commits, mut compacts, mut plans) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let mut busy = Duration::ZERO;
    let mut compact_mb_per_s = Vec::new();
    let mut counted = Counted::default();
    let mut digest = stats::FNV_OFFSET;
    let mut codec = None;

    let deadline = Instant::now() + run.window();
    let mut cycle = 0usize;
    while Instant::now() < deadline || !cycle.is_multiple_of(CYCLES_PER_ROUND) {
        let first_round = cycle < CYCLES_PER_ROUND;
        mutate(run, &mut product, cycle);
        rec.next_op();
        let root = rec.enter("cycle");
        if run.traced {
            let (plan, took) = rec.time("index.delta_plan", || {
                plan_delta(&loaded.manifest, &product.corpus_dir).expect("plan the delta")
            });
            plans.push(took);
            black_box(plan);
        }
        let (committed, took) = rec.time("index.delta_commit", || commit_delta(&product.manifest));
        commits.push(took);
        busy += took;
        let as_planned = matches!(&committed, Ok(Some(s))
            if s.changed == REWRITTEN && s.deleted == DELETED && s.added == ADDED);
        outcome.check(as_planned, || format!("cycle {cycle}: commit did {committed:?}"));

        let ((reloaded, _), took) =
            rec.time("index.manifest_open", || Loaded::open(&product.manifest));
        loaded = reloaded;
        facts.open_ms.push(took.as_secs_f64() * 1e3);
        busy += took;

        let picks = (0..SELECTIVE_PER_CYCLE)
            .map(|_| &product.selective[rng.gen_range(0..product.selective.len())])
            .chain(std::iter::once(&product.heavy[cycle % product.heavy.len()]));
        for spec in picks {
            let (answer, _) = rec.time("core.query", || loaded.query_op(spec));
            outcome.check(answer.is_ok(), || format!("cycle {cycle}: query failed: {}", spec.text));
            if let Ok((answer, took, cost)) = answer {
                queries.push(took);
                busy += took;
                if first_round {
                    counted.observe(&loaded.manifest, &cost);
                    digest = stats::fnv1a(digest, answer.as_bytes());
                }
            }
        }
        rec.exit(root);
        cycle += 1;

        if cycle.is_multiple_of(CYCLES_PER_ROUND) {
            if first_round {
                let checked = check_against_rebuild(&product, &loaded, &mut outcome);
                digest = stats::fnv1a(digest, &checked.to_le_bytes());
            }
            if run.traced && codec.is_none() {
                codec = Some(masked_codec_probe(&loaded, &product.heavy));
            }
            rec.next_op();
            let (compacted, took) = rec.time("index.compact", || compact(&product.manifest));
            compacts.push(took);
            busy += took;
            compact_mb_per_s.push(corpus_mb(&product.corpus_dir) / took.as_secs_f64());
            outcome
                .check(matches!(compacted, Ok(Some(_))), || format!("compact did {compacted:?}"));
            let (reloaded, took) = Loaded::open(&product.manifest);
            loaded = reloaded;
            facts.open_ms.push(took.as_secs_f64() * 1e3);
            busy += took;
        }
    }
    // The final state must still equal a rebuild, after every round's
    // deltas and compactions.
    check_against_rebuild(&product, &loaded, &mut outcome);
    outcome.answers_digest = digest;

    outcome.note("cycles", cycle);
    outcome.note("queries", queries.len());
    outcome.note_tail(queries.len(), TAIL);
    outcome.note("files", files);
    outcome.note(
        "commit p50 ms",
        format!("{:.3} (n={})", commits.percentile_ms(0.5), commits.len()),
    );
    outcome.note(
        "compact p50 ms",
        format!("{:.3} (n={})", compacts.percentile_ms(0.5), compacts.len()),
    );
    if run.traced {
        outcome.set("index.delta_plan_ms", plans.percentile_ms(0.5));
        outcome.set("index.delta_commit_ms", commits.percentile_ms(0.5));
        outcome.set("index.compact_ms", compacts.percentile_ms(0.5));
        outcome.set("index.manifest_open_ms", stats::median(&facts.open_ms));
        outcome.set("index.build_mb_per_s", stats::median(&compact_mb_per_s));
        counted.report(&mut outcome);
        if let Some(codec) = codec {
            outcome.set("dewey.decode_postings_per_us", codec.decode_postings_per_us);
            outcome.set("dewey.decode_masked_postings_per_us", codec.masked_postings_per_us);
            outcome.set("dewey.blocks_skipped_share", codec.blocks_skipped_share);
            outcome.set("dewey.bytes_per_posting", codec.bytes_per_posting);
        }
        // Planning twice (once on its own, once inside the commit) is what
        // the traced run adds.
        outcome
            .set("bench.trace_overhead_share", plans.total_secs() / busy.as_secs_f64().max(1e-9));
        outcome.set("bench.ops", queries.len() as f64);
    } else {
        // Here the build the workload repeats is the compaction's rebuild.
        facts.build_mb_per_s = compact_mb_per_s;
        let ops_per_s = queries.len() as f64 / busy.as_secs_f64().max(1e-9);
        EndToEnd {
            setup_secs: &setup_secs,
            latency: &mut queries,
            tail: TAIL,
            ops_per_s,
            facts: &facts,
        }
        .report(&mut outcome);
    }
    Finished::new(outcome, rec, run)
}

fn file_xml(run: &Run, lane: u64) -> String {
    dblp_doc(run.scaled(ARTICLES_PER_FILE).max(12), sub_seed(run.seed, lane)).0
}

fn corpus_mb(corpus_dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(corpus_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    bytes as f64 / 1e6
}

/// Writes the corpus directory, indexes it as [`SHARDS`] base shards and
/// draws the query sets from an in-memory index of the same files.
fn set_up_once(run: &Run, dir: &Path, files: usize, facts: &mut BuildFacts) -> Product {
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).expect("create corpus directory");
    let mut live = Vec::with_capacity(files);
    let mut authors = Vec::new();
    for i in 0..files {
        let name = format!("f{i:04}");
        let (xml, planted) =
            dblp_doc(run.scaled(ARTICLES_PER_FILE).max(12), sub_seed(run.seed, i as u64));
        std::fs::write(corpus_dir.join(format!("{name}.xml")), xml).expect("write document");
        authors.extend(planted);
        live.push(name);
    }
    let manifest = dir.join("update.manifest");
    index_directory(&corpus_dir, &manifest, SHARDS, IndexOptions::default())
        .expect("index the corpus directory");
    let xml_mb = corpus_mb(&corpus_dir);
    let shard_bytes: u64 = ShardManifest::load(&manifest)
        .expect("load the manifest")
        .shards
        .iter()
        .filter_map(|s| std::fs::metadata(&s.path).ok())
        .map(|m| m.len())
        .sum();
    facts.bytes_per_xml_byte = shard_bytes as f64 / (xml_mb * 1e6);

    let corpus = Corpus::from_directory(&corpus_dir).expect("read the corpus back");
    let index = GksIndex::build(&corpus, IndexOptions::default()).expect("build index");
    let terms = term_counts(&index);
    authors.sort();
    authors.dedup();
    let pool = selective_keywords(&index, &terms, &authors);
    Product {
        corpus_dir,
        manifest,
        live,
        selective: selective_queries(&pool, run.seed, run.scaled(SELECTIVE_QUERIES).max(64)),
        heavy: heavy_queries(&terms, run.scaled(2_000), run.scaled(30_000)),
    }
}

/// One cycle's changes, a function of the seed and the cycle alone:
/// rewrite [`REWRITTEN`] files, delete [`DELETED`], add [`ADDED`].
fn mutate(run: &Run, product: &mut Product, cycle: usize) {
    let mut rng = StdRng::seed_from_u64(sub_seed(run.seed, 0x3000 + cycle as u64));
    let lane = |j: usize| (1u64 << 32) + (cycle * 64 + j) as u64;
    let mut touched: Vec<usize> = Vec::new();
    while touched.len() < REWRITTEN + DELETED {
        let pick = rng.gen_range(0..product.live.len());
        if !touched.contains(&pick) {
            touched.push(pick);
        }
    }
    let path = |name: &str| product.corpus_dir.join(format!("{name}.xml"));
    for (j, &i) in touched.iter().enumerate().take(REWRITTEN) {
        std::fs::write(path(&product.live[i]), file_xml(run, lane(j))).expect("rewrite document");
    }
    let mut doomed: Vec<usize> = touched[REWRITTEN..].to_vec();
    doomed.sort_unstable_by(|a, b| b.cmp(a));
    for i in doomed {
        std::fs::remove_file(path(&product.live[i])).expect("delete document");
        product.live.swap_remove(i);
    }
    for j in 0..ADDED {
        let name = format!("n{cycle:05}-{j}");
        std::fs::write(path(&name), file_xml(run, lane(32 + j))).expect("add document");
        product.live.push(name);
    }
}

/// Base + delta answers byte-equal to a fresh index of the directory.
/// Returns the digest of the answers compared.
fn check_against_rebuild(product: &Product, loaded: &Loaded, outcome: &mut Outcome) -> u64 {
    let mut digest = stats::FNV_OFFSET;
    let corpus = Corpus::from_directory(&product.corpus_dir).expect("read the corpus back");
    let rebuilt = Engine::build(&corpus, IndexOptions::default()).expect("rebuild");
    outcome.check(rebuilt.index().doctor().is_empty(), || "rebuilt index fails doctor()".into());
    let step = (product.selective.len() / REBUILD_CHECKED).max(1);
    let sample = product.selective.iter().step_by(step).chain(product.heavy.iter().step_by(6));
    for spec in sample {
        let want = query_op(&rebuilt, spec).map(|(a, _)| a);
        let got = loaded.query_op(spec).map(|(a, _, _)| a);
        outcome.check(want.is_ok() && want == got, || {
            format!("base+delta answer differs from a rebuild: {}", spec.text)
        });
        digest = stats::fnv1a(digest, got.unwrap_or_default().as_bytes());
    }
    digest
}

/// Work counts over the first round's queries: fixed operations, so the
/// means repeat exactly at a fixed seed.
#[derive(Debug, Default)]
struct Counted {
    ops: u64,
    cost: CostLedger,
    delta_shards: u64,
    tombstones: u64,
}

impl Counted {
    fn observe(&mut self, manifest: &ShardManifest, cost: &CostLedger) {
        self.ops += 1;
        self.cost.add(cost);
        self.delta_shards += manifest.delta_shard_count() as u64;
        self.tombstones += manifest.tombstones.len() as u64;
    }

    fn report(&self, outcome: &mut Outcome) {
        let per_op = |total: u64| total as f64 / self.ops.max(1) as f64;
        outcome.set("index.delta_shards", per_op(self.delta_shards));
        outcome.set("index.tombstones", per_op(self.tombstones));
        report_ledger_means(outcome, self.ops, &self.cost);
    }
}

/// Masked decode over the first base shard's longest lists, with that
/// shard's own tombstones as the mask.
fn masked_codec_probe(loaded: &Loaded, heavy: &[QuerySpec]) -> super::CodecProbe {
    let Some(engine) = loaded.engines.first() else {
        return super::CodecProbe::default();
    };
    let index = engine.index();
    let terms: Vec<String> = heavy
        .iter()
        .flat_map(|spec| spec.parse().normalized(index.analyzer()))
        .flat_map(|keyword| keyword.terms().to_vec())
        .collect();
    let lists: Vec<&[gks_dewey::DeweyId]> = terms.iter().map(|t| index.postings(t)).collect();
    codec_probe(&lists, engine.tombstones())
}
