//! The five workloads and what they share: run parameters, the query
//! operation (bare and traced), the codec probe and set-up timing.

pub mod ingest;
pub mod query;
pub mod serve;
pub mod update;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use gks_core::di::{discover_di_counted, DiOptions, Insight};
use gks_core::engine::Engine;
use gks_core::merge::merge_posting_lists_counted;
use gks_core::postlist::keyword_postings_counted;
use gks_core::query::Query;
use gks_core::sweep::sweep_counted;
use gks_core::window::lcp_candidates;
use gks_core::{wire, CostLedger};
use gks_dewey::codec::{encode_blocked_run, BlockedRunReader};
use gks_dewey::DeweyId;
use gks_index::{GksIndex, IndexFormat};

use crate::inputs::QuerySpec;
use crate::metrics::Outcome;
use crate::span::Recorder;
use crate::stats::{self, Samples};

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Parameters of one run of one workload.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// Input size as a share of the benchmark's; tests run at a few
    /// hundredths.
    pub scale: f64,
    /// Fresh scratch directory of this run.
    pub dir: PathBuf,
}

impl Run {
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(1)
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A finished run: its numbers and, when traced, its spans.
#[derive(Debug)]
pub struct Finished {
    pub outcome: Outcome,
    pub recorder: Option<Recorder>,
}

impl Finished {
    fn new(mut outcome: Outcome, recorder: Recorder, run: &Run) -> Finished {
        if run.traced {
            outcome.set("bench.spans", recorder.spans().len() as f64);
        }
        Finished { outcome, recorder: run.traced.then_some(recorder) }
    }
}

/// What an untraced run knows about its operations.
pub struct EndToEnd<'a> {
    pub setup_secs: &'a [f64],
    pub latency: &'a mut Samples,
    pub tail: f64,
    pub ops_per_s: f64,
    pub facts: &'a BuildFacts,
}

impl EndToEnd<'_> {
    /// Sets every end-to-end metric.
    pub fn report(self, outcome: &mut Outcome) {
        outcome.set("setup_s", stats::median(self.setup_secs));
        outcome.set("op_p50_us", self.latency.percentile_us(0.5));
        outcome.set("op_tail_us", self.latency.percentile_us(self.tail));
        outcome.set("ops_per_s", self.ops_per_s);
        self.facts.report(outcome);
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
}

pub fn run(workload: &str, run: &Run) -> Option<Finished> {
    match workload {
        "ingest" => Some(ingest::run(run)),
        "query_selective" => Some(query::run(run, query::Kind::Selective)),
        "query_heavy" => Some(query::run(run, query::Kind::Heavy)),
        "serve" => Some(serve::run(run)),
        "update" => Some(update::run(run)),
        _ => None,
    }
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `setup` [`SETUP_REPS`] times, each into its own subdirectory
/// (earlier products are dropped before the next repetition), and returns
/// the last product with every repetition's seconds.
pub fn set_up<T>(dir: &Path, mut setup: impl FnMut(&Path) -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut product = None;
    for rep in 0..SETUP_REPS {
        drop(product.take());
        let sub = dir.join(format!("setup{rep}"));
        std::fs::create_dir_all(&sub).expect("create set-up directory");
        let (made, took) = timed(|| setup(&sub));
        secs.push(took.as_secs_f64());
        product = Some(made);
    }
    (product.expect("SETUP_REPS > 0"), secs)
}

/// What building, saving and reopening one index measured.
#[derive(Debug, Default)]
pub struct BuildFacts {
    pub build_mb_per_s: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub bytes_per_xml_byte: f64,
}

impl BuildFacts {
    /// The end-to-end metrics every workload takes from its own index.
    fn report(&self, outcome: &mut Outcome) {
        outcome.set("open_ms", stats::median(&self.open_ms));
        outcome.set("index_bytes_per_xml_byte", self.bytes_per_xml_byte);
        outcome.note("open samples", self.open_ms.len());
        outcome.note(
            "build MB/s",
            format!("{:.2} (n={})", stats::median(&self.build_mb_per_s), self.build_mb_per_s.len()),
        );
    }
}

/// Loads a saved index through the mmap and wraps it in an engine — what
/// `open_ms` times.
pub fn open_engine(path: &Path) -> (Engine, Duration) {
    timed(|| {
        let index = GksIndex::load(path).expect("reopen a just-saved index");
        Engine::from_index(index)
    })
}

/// [`open_engine`] five times over, for workloads that open once per
/// set-up and would otherwise take `open_ms` from three samples.
pub fn open_engine_sampled(path: &Path, open_ms: &mut Vec<f64>) -> Engine {
    let mut engine = None;
    for _ in 0..5 {
        drop(engine.take());
        let (opened, took) = open_engine(path);
        open_ms.push(took.as_secs_f64() * 1e3);
        engine = Some(opened);
    }
    engine.expect("opened five times")
}

pub fn save_v3(index: &GksIndex, path: &Path) -> u64 {
    index.save_as(path, IndexFormat::V3).expect("save index")
}

/// Bytes the digest and the byte-equality checks cover: the wire body and
/// every insight.
pub fn answer_bytes(mut body: String, insights: &[Insight]) -> String {
    for insight in insights {
        body.push('\n');
        body.push_str(&insight.display());
    }
    body
}

/// One query operation, as a user of the library runs it: parse, search,
/// discover insights, render the wire body. Returns the answer and the
/// time the four calls took.
pub fn query_op(engine: &Engine, spec: &QuerySpec) -> Result<(String, Duration), String> {
    let start = Instant::now();
    let query = Query::parse(black_box(&spec.text)).map_err(|e| e.to_string())?;
    let response = engine.search(&query, spec.options(usize::MAX)).map_err(|e| e.to_string())?;
    let insights = engine.discover_di(&response, &DiOptions::default());
    let body = wire::search_response_json(engine, &response);
    let took = start.elapsed();
    Ok((answer_bytes(black_box(body), &insights), took))
}

/// Per-operation means of a summed [`CostLedger`].
pub fn report_ledger_means(outcome: &mut Outcome, ops: u64, cost: &CostLedger) {
    let per_op = |total: u64| total as f64 / ops.max(1) as f64;
    outcome.set("core.postings_scanned", per_op(cost.postings_scanned));
    outcome.set("core.heap_ops", per_op(cost.heap_ops));
    outcome.set("core.sweep_advances", per_op(cost.sweep_advances));
    outcome.set("core.rank_candidates", per_op(cost.rank_candidates));
    outcome.set("core.di_attrs", per_op(cost.di_attrs));
    outcome.set("core.tombstone_masked", per_op(cost.tombstone_masked));
    outcome.note("count sample ops", ops);
}

/// Stage timings and work counts of traced query operations.
#[derive(Debug, Default)]
pub struct CoreStages {
    pub ops: u64,
    pub parse: Samples,
    pub postlist: Samples,
    pub merge: Samples,
    pub window: Samples,
    pub sweep: Samples,
    pub assemble: Samples,
    pub di: Samples,
    pub wire: Samples,
    /// Whole traced operations: parse + search + DI + wire.
    pub op: Samples,
    /// Wall time of the traced operations, replica and spans included.
    pub wall: Samples,
    pub cost: CostLedger,
    pub sl_len: u64,
    pub hits: u64,
    pub result_bytes: u64,
}

impl CoreStages {
    /// Per-operation means of the work counts so far. Taken after the
    /// fixed verification sample, they repeat exactly at a fixed seed.
    pub fn report_counts(&self, outcome: &mut Outcome) {
        let per_op = |total: u64| total as f64 / self.ops.max(1) as f64;
        report_ledger_means(outcome, self.ops, &self.cost);
        outcome.set("core.sl_len", per_op(self.sl_len));
        outcome.set("core.hits", per_op(self.hits));
        outcome.set("core.result_bytes", per_op(self.result_bytes));
        outcome.set(
            "core.hits_per_posting",
            self.hits as f64 / self.cost.postings_scanned.max(1) as f64,
        );
    }

    /// p50 of each stage and time ÷ work for the stages that count work.
    pub fn report_times(&mut self, outcome: &mut Outcome) {
        outcome.set("core.parse_us", self.parse.percentile_us(0.5));
        outcome.set("core.postlist_us", self.postlist.percentile_us(0.5));
        outcome.set("core.merge_us", self.merge.percentile_us(0.5));
        outcome.set("core.window_us", self.window.percentile_us(0.5));
        outcome.set("core.sweep_us", self.sweep.percentile_us(0.5));
        outcome.set("core.assemble_us", self.assemble.percentile_us(0.5));
        outcome.set("core.di_us", self.di.percentile_us(0.5));
        outcome.set("core.wire_us", self.wire.percentile_us(0.5));
        let ns_per = |time: &Samples, work: u64| time.total_secs() * 1e9 / work.max(1) as f64;
        outcome.set(
            "core.postlist_ns_per_posting",
            ns_per(&self.postlist, self.cost.postings_scanned),
        );
        outcome.set("core.merge_ns_per_heap_op", ns_per(&self.merge, self.cost.heap_ops));
        outcome.set("core.sweep_ns_per_advance", ns_per(&self.sweep, self.cost.sweep_advances));
        outcome.set("core.di_ns_per_attr", ns_per(&self.di, self.cost.di_attrs));
        outcome.set(
            "core.wire_mb_per_s",
            self.result_bytes as f64 / 1e6 / self.wire.total_secs().max(1e-9),
        );
        let engine_time = self.op.total_secs() - self.parse.total_secs() - self.wire.total_secs();
        outcome.set(
            "core.ns_per_work_unit",
            engine_time * 1e9 / self.cost.total_work().max(1) as f64,
        );
    }

    /// Sum of the stage times as a share of the bare operations' time —
    /// 1.0 when the stages account for the whole operation.
    pub fn stage_sum_share(&self, bare: &Samples) -> f64 {
        let stages = [
            &self.parse,
            &self.postlist,
            &self.merge,
            &self.window,
            &self.sweep,
            &self.assemble,
            &self.di,
            &self.wire,
        ];
        let per_traced: f64 =
            stages.iter().map(|s| s.total_secs()).sum::<f64>() / self.op.len().max(1) as f64;
        let per_bare = bare.total_secs() / bare.len().max(1) as f64;
        per_traced / per_bare.max(1e-12)
    }

    /// Extra wall time a traced operation costs over a bare one, as a
    /// share of the bare one.
    pub fn overhead_share(&self, bare: &Samples) -> f64 {
        let per_traced = self.wall.total_secs() / self.wall.len().max(1) as f64;
        let per_bare = bare.total_secs() / bare.len().max(1) as f64;
        per_traced / per_bare.max(1e-12) - 1.0
    }
}

/// [`query_op`] with a span around every stage. The stage functions the
/// engine itself calls — normalise, posting fetch, merge, window, sweep —
/// run on their own under `core.replica`, then `Engine::search` runs
/// whole; what search spends beyond the replicated stages (LCE derivation,
/// hit assembly, pruning, ranking) is `assemble`.
pub fn traced_query_op(
    rec: &mut Recorder,
    stages: &mut CoreStages,
    engine: &Engine,
    spec: &QuerySpec,
) -> Result<String, String> {
    rec.next_op();
    let root = rec.enter("op");
    let (query, parse) = rec.time("core.parse", || Query::parse(black_box(&spec.text)));
    let query = query.map_err(|e| e.to_string())?;

    let index = engine.index();
    let dead = engine.tombstones();
    let replica = rec.enter("core.replica");
    let (keywords, normalize) = rec.time("core.normalize", || query.normalized(index.analyzer()));
    let n = keywords.len();
    let s = spec.options(0).s.resolve(n).map_err(|e| e.to_string())?;
    let mut cost = CostLedger::default();
    let mut fetch = |rec: &mut Recorder, name| {
        rec.time(name, || {
            keywords
                .iter()
                .map(|k| keyword_postings_counted(index, dead, k, &mut cost))
                .collect::<Vec<Vec<DeweyId>>>()
        })
    };
    // The first fetch pays any first-touch block decode, as a bare
    // operation would; the second finds the state `Engine::search` below
    // will find, so it is the one subtracted from search's time.
    let (cold_lists, postlist) = fetch(rec, "core.postlist");
    drop(cold_lists);
    let (lists, postlist_warm) = fetch(rec, "core.postlist_warm");
    let ((sl, _), merge) = rec.time("core.merge", || merge_posting_lists_counted(lists));
    let (candidates, window) = rec.time("core.window", || lcp_candidates(index, &sl, s, n));
    let mut stat_nodes = candidates;
    let lces: Vec<DeweyId> = stat_nodes
        .iter()
        .filter_map(|c| index.node_table().lowest_entity_ancestor_or_self(c))
        .collect();
    stat_nodes.extend(lces);
    stat_nodes.sort_unstable();
    stat_nodes.dedup();
    let (swept, sweep) = rec.time("core.sweep", || sweep_counted(index, &sl, &stat_nodes, n));
    drop((black_box(swept), sl, stat_nodes));
    rec.exit(replica);

    let (response, search) =
        rec.time("core.search", || engine.search(&query, spec.options(usize::MAX)));
    let mut response = response.map_err(|e| e.to_string())?;
    let ((insights, di_attrs), di) =
        rec.time("core.di", || discover_di_counted(index, &response, &DiOptions::default()));
    let (body, wire_time) = rec.time("core.wire", || wire::search_response_json(engine, &response));
    stages.wall.push(rec.exit(root));

    response.cost_mut().di_attrs = di_attrs;
    stages.ops += 1;
    stages.cost.add(response.cost());
    stages.sl_len += response.sl_len() as u64;
    stages.hits += response.hits().len() as u64;
    stages.result_bytes += body.len() as u64;
    stages.parse.push(parse);
    stages.postlist.push(postlist);
    stages.merge.push(merge);
    stages.window.push(window);
    stages.sweep.push(sweep);
    stages
        .assemble
        .push(search.saturating_sub(normalize + postlist_warm + merge + window + sweep));
    stages.di.push(di);
    stages.wire.push(wire_time);
    stages.op.push(parse + search + di + wire_time);
    Ok(answer_bytes(body, &insights))
}

/// Codec throughput over a set of posting lists: blocked-run encode,
/// decode and, with a tombstone list, masked decode.
#[derive(Debug, Default)]
pub struct CodecProbe {
    pub encode_postings_per_us: f64,
    pub decode_postings_per_us: f64,
    pub bytes_per_posting: f64,
    pub masked_postings_per_us: f64,
    pub blocks_skipped_share: f64,
}

pub fn codec_probe(lists: &[&[DeweyId]], dead: &[u32]) -> CodecProbe {
    let postings: usize = lists.iter().map(|l| l.len()).sum();
    if postings == 0 {
        return CodecProbe::default();
    }
    let (runs, encode) = timed(|| {
        lists
            .iter()
            .map(|list| {
                let mut out = BytesMut::new();
                encode_blocked_run(list, &mut out);
                out
            })
            .collect::<Vec<BytesMut>>()
    });
    let readers: Vec<BlockedRunReader<'_>> = runs
        .iter()
        .zip(lists)
        .map(|(run, list)| {
            let mut input: &[u8] = run.as_ref();
            BlockedRunReader::parse(&mut input, list.len()).expect("parse a just-encoded run")
        })
        .collect();
    let (_, decode) = timed(|| {
        for reader in &readers {
            black_box(reader.decode_all().expect("decode a just-encoded run"));
        }
    });
    let per_us = |took: Duration| postings as f64 / (took.as_secs_f64() * 1e6).max(1e-9);
    let mut probe = CodecProbe {
        encode_postings_per_us: per_us(encode),
        decode_postings_per_us: per_us(decode),
        bytes_per_posting: runs.iter().map(|r| r.len()).sum::<usize>() as f64 / postings as f64,
        ..CodecProbe::default()
    };
    if !dead.is_empty() {
        let (_, masked) = timed(|| {
            for reader in &readers {
                black_box(reader.decode_masked(dead).expect("masked decode"));
            }
        });
        probe.masked_postings_per_us = per_us(masked);
        let is_dead = |doc: u32| dead.binary_search(&doc).is_ok();
        let (mut blocks, mut skipped) = (0usize, 0usize);
        for entry in readers.iter().flat_map(|r| r.skip_entries()) {
            blocks += 1;
            if entry.first.doc() == entry.last_doc && is_dead(entry.last_doc.0) {
                skipped += 1;
            }
        }
        probe.blocks_skipped_share = skipped as f64 / blocks.max(1) as f64;
    }
    probe
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

    /// Runs a workload at a few hundredths of its size in a scratch
    /// directory under `perf/out/`, removed afterwards.
    fn tiny(workload: &str, seed: u64, traced: bool) -> Finished {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{workload}-{seed}-{traced}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let params = Run { seed, seconds: 0.1, traced, scale: 0.02, dir: dir.clone() };
        let finished = run(workload, &params).expect("known workload");
        std::fs::remove_dir_all(&dir).unwrap();
        finished
    }

    /// An untraced run reports every end-to-end metric above zero; a
    /// traced one every name of `expected` and `counts`, and the counts and
    /// the answers repeat exactly at a fixed seed.
    fn check(workload: &str, expected: &[&str], counts: &[&str]) {
        let plain = tiny(workload, 6, false).outcome;
        assert_eq!(plain.failed, 0, "{workload}: {:?}", plain.failures);
        assert!(plain.correct(&END_TO_END, true), "{workload}: {}", plain.report(&END_TO_END));
        assert!(!plain.metrics.keys().any(|name| PER_LAYER.iter().any(|s| s.name == *name)));

        let a = tiny(workload, 5, true);
        assert_eq!(a.outcome.failed, 0, "{workload}: {:?}", a.outcome.failures);
        assert!(a.outcome.correct(&PER_LAYER, false));
        assert!(!a.outcome.metrics.contains_key("op_p50_us"));
        for name in expected.iter().chain(counts) {
            assert!(PER_LAYER.iter().any(|s| s.name == *name), "{name} is not a per-layer metric");
            let v = a.outcome.metrics.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
        assert_ne!(a.outcome.answers_digest, plain.answers_digest, "other seed, other inputs");
        let again = tiny(workload, 5, true).outcome;
        assert_eq!(a.outcome.answers_digest, again.answers_digest, "same seed, same answers");
        for name in counts {
            assert_eq!(a.outcome.metrics[name], again.metrics[name], "{workload}: {name}");
        }
        let recorder = a.recorder.expect("a traced run keeps its spans");
        assert!(!recorder.spans().is_empty());
        assert!(recorder.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn every_workload_is_runnable() {
        assert!(run(
            "no_such_workload",
            &Run { seed: 1, seconds: 0.1, traced: false, scale: 0.04, dir: PathBuf::new() }
        )
        .is_none());
        assert_eq!(WORKLOADS.len(), 5);
    }

    #[test]
    fn ingest_at_tiny_scale() {
        check(
            "ingest",
            &[
                "xml.parse_mb_per_s",
                "text.tokens_per_s",
                "index.build_mb_per_s",
                "index.doctor_ms",
            ],
            &["xml.events", "text.tokens", "dewey.bytes_per_posting"],
        );
    }

    #[test]
    fn query_selective_at_tiny_scale() {
        check(
            "query_selective",
            &["core.postlist_us", "core.sweep_us", "core.wire_us", "index.first_touch_us"],
            &["core.postings_scanned", "core.heap_ops", "core.sl_len", "core.result_bytes"],
        );
    }

    #[test]
    fn query_heavy_at_tiny_scale() {
        check(
            "query_heavy",
            &[
                "core.merge_us",
                "core.sweep_ns_per_advance",
                "core.di_us",
                "core.stage_sum_share",
            ],
            &["core.sweep_advances", "core.rank_candidates", "core.di_attrs", "core.hits"],
        );
    }

    #[test]
    fn serve_at_tiny_scale() {
        check(
            "serve",
            &[
                "server.handle_hit_us",
                "server.handle_miss_us",
                "core.gather_us",
                "exec.scatter_us",
            ],
            &["server.shard_fanout"],
        );
    }

    #[test]
    fn update_at_tiny_scale() {
        check(
            "update",
            &["index.delta_plan_ms", "index.delta_commit_ms", "index.compact_ms"],
            &["index.delta_shards", "index.tombstones", "core.tombstone_masked"],
        );
    }

    #[test]
    fn traced_and_bare_query_operations_give_the_same_answer() {
        let docs = crate::inputs::dblp_corpus(2, 2, 150).0;
        let engine = Engine::build(&crate::inputs::corpus_of(&docs), Default::default()).unwrap();
        let terms = crate::inputs::term_counts(engine.index());
        let mut rec = Recorder::new(true);
        let mut stages = CoreStages::default();
        for spec in crate::inputs::heavy_queries(&terms, 40, 400) {
            let bare = query_op(&engine, &spec).unwrap().0;
            assert_eq!(traced_query_op(&mut rec, &mut stages, &engine, &spec).unwrap(), bare);
        }
        assert_eq!(stages.ops, 24);
        assert_eq!(stages.op.len(), 24);
        // Every operation is one root span with the stage spans inside it.
        let roots = rec.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 24);
        assert!(rec.spans().iter().any(|s| s.name == "core.sweep" && s.parent.is_some()));
    }
}
