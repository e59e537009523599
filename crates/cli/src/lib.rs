//! Implementation of the `gks` command-line tool.
//!
//! Subcommands (see [`run`] and `gks --help`):
//!
//! * `index [--shards N] <out.gksix> <file.xml>…` — build and persist an
//!   index (`--shards N` partitions the corpus by document into N shard
//!   indexes plus a shard manifest, `gks_index::index_corpus`). A single
//!   *directory* argument builds an updatable corpus-directory manifest
//!   (`gks_index::index_directory`) that `watch`/`compact` and the
//!   serve-side watcher can keep fresh;
//! * `search <index.gksix> [-s N] [--limit N] [--di] [--analytics] <kw>…` —
//!   query it (quote phrases: `'"Peter Buneman"'`);
//! * `suggest <index.gksix> <kw>…` — refinement suggestions for a query;
//! * `census <file.xml>…` — the §7.2 node-category census (`--schema` adds
//!   the schema-harmonized view);
//! * `info <index.gksix>` — index statistics;
//! * `doctor <index.gksix|manifest>…` — audit persisted indexes against the
//!   structural invariants of paper §2.1/§2.4 (sorted postings, parent
//!   closure, census consistency, attribute-store resolvability); shard
//!   manifests first get `gks_index::audit_manifest` (the findings the
//!   server's `/doctor` reports too), then every shard file they list gets
//!   the same single-file audit;
//! * `watch <manifest> [--interval-ms N] [--compact-threshold N] [--once]`
//!   — run `gks_index::maintain`, the tick `serve --watch` runs: commit a
//!   delta shard per batch of changes, fold the backlog at the threshold;
//! * `compact <manifest>` — fold the delta backlog into fresh base shards;
//! * `generate <dataset> <scale> <out.xml>` — write a synthetic corpus;
//! * `serve [<index.gksix>] [--index NAME=PATH]…` — run the resident HTTP
//!   query service (`gks-server`: a catalog of indexes routed by
//!   `/ix/<name>/` prefix, worker pool, admission control, per-index result
//!   caches, /metrics). SIGHUP or `POST /admin/reload` hot-swaps an index
//!   without dropping in-flight requests; `--watch` runs the `gks watch`
//!   tick in-process so corpus mutations become searchable live, and
//!   `--compact-threshold N` folds the delta backlog once it reaches N
//!   shards (`POST /admin/compact` forces a fold);
//! * `loadgen <host:port> <workload.txt>` — load generator against a
//!   running `serve` (closed-loop by default, `--open-loop --rate` for a
//!   paced schedule, `--index NAME[=WEIGHT]` for a multi-index traffic
//!   mix), reporting QPS and latency percentiles.
//!
//! `search` and `suggest` accept `--json`, emitting exactly the wire format
//! the serve endpoints return (`gks_core::wire`), so scripts can switch
//! between one-shot CLI calls and the service without reparsing.
//!
//! Exit codes: `0` success, `1` runtime error (missing file, failed search,
//! unhealthy index), `2` usage error.
//!
//! The library form exists so the behaviour is unit-testable; `main` just
//! forwards `std::env::args` and prints.

use std::fmt::Write as _;

use gks_core::analytics::AnalyticsOptions;
use gks_core::di::DiOptions;
use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{SearchOptions, Threshold};
use gks_core::wire;
use gks_datagen::Dataset;
use gks_index::{
    audit_manifest, compact, index_corpus, index_directory, is_manifest_file, maintain, Corpus,
    GksIndex, IndexOptions, MaintenanceOutcome, SchemaSummary, ShardManifest,
};
use gks_server::catalog::{IndexSpec, DEFAULT_INDEX_NAME};
use gks_server::{loadgen, signal, ServeConfig};

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError { message: message.into(), code: 2 }
    }

    fn runtime(message: impl Into<String>) -> CliError {
        CliError { message: message.into(), code: 1 }
    }
}

/// Top-level usage text. Every subcommand is listed here; `run` rejects
/// anything else with exit code 2.
pub const USAGE: &str = "\
gks — Generic Keyword Search over XML data (EDBT 2016)

USAGE:
  gks index [--shards N] <out.gksix> <file.xml>...|<corpus-dir>
  gks search <index.gksix> [-s N|all|half] [--limit N] [--json]
             [--di] [--analytics] [--trace] [--explain] <keyword>...
  gks suggest <index.gksix> [--json] <keyword>...
  gks census [--schema] <file.xml>...
  gks schema <index.gksix>
  gks info <index.gksix>
  gks doctor <index.gksix|manifest>...
  gks watch <manifest> [--interval-ms N] [--compact-threshold N] [--once]
  gks compact <manifest>
  gks generate <dataset> <scale> <out.xml>
  gks repl <index.gksix>
  gks serve [<index.gksix>] [--index NAME=PATH[,PATH...]]...
            [--default-index NAME] [--addr HOST:PORT] [--workers N]
            [--queue N] [--deadline-ms N] [--cache-mb N]
            [--query-log FILE] [--slow-log FILE] [--slow-ms N]
            [--trace-sample N|1/N] [--no-trace]
            [--watch] [--watch-interval-ms N] [--compact-threshold N]
            [--max-connections N] [--idle-timeout-ms N]
  gks loadgen <host:port> <workload.txt> [--clients N] [--requests N]
            [--zipf S] [--seed N] [--timeout-ms N] [--open-loop --rate QPS]
            [--index NAME[=WEIGHT]]... [--explain] [--keep-alive]
            [--connections N] [--slow-clients N]

`--json` emits the same wire format the serve endpoints return.
`--trace` prints the span tree (per-phase timings) after the results.
`--explain` reports the cost ledger (work counters, not timings): the
CLI prints it after the hits, `--json` splices it into the wire body,
and `loadgen --explain` sends explain=1 so its report can summarize
work per query (postings p50/p99) next to QPS.
`index --shards N` partitions the corpus by document into N shard
indexes next to <out> (<stem>.base0.<i>.gksix) plus a shard manifest at
<out> itself.
`index <out> <corpus-dir>` builds an updatable manifest that records the
corpus directory and per-document content hashes; `gks watch` (or
`serve --watch`) then commits delta shards as the directory changes, and
`gks compact` folds the backlog into fresh base shards. Both watchers run
one policy: commit, then compact once the manifest carries
--compact-threshold N (>= 1) delta shards; serve needs --watch for it.
`doctor <manifest>` audits the manifest (missing, unreadable and orphaned
shard files, document table), then every shard file it lists.
`serve` hosts a catalog: the positional index registers as \"default\",
each --index NAME=PATH adds another, reachable under /ix/NAME/search.
An index source may be a comma-separated shard list (NAME=p1,p2) or a
shard manifest path; `/search` then scatters over the shards in
parallel and gathers a lossless merge.
SIGHUP (or POST /admin/reload?index=NAME) hot-swaps an index in place,
reopening only the shard files that changed (none changed: nothing is
swapped and the cache stays warm);
--trace-sample 1/N keeps one in N request traces. `serve` drains
in-flight requests and exits 0 on SIGTERM/ctrl-c; its query/slow logs
are JSONL, one object per request.
`loadgen --open-loop` paces requests on a fixed schedule (no coordinated
omission); latencies are then measured from the scheduled send time.
`loadgen --index NAME=WEIGHT` (repeatable) spreads traffic over catalog
indexes proportional to the weights.
`loadgen --keep-alive` reuses one connection per client; --connections N
holds N extra idle sockets open for the whole run and --slow-clients N
adds stalled partial-request connections — together they exercise the
server's event-driven connection layer at high connection counts.

DATASETS (for generate):
  sigmod mondial plays treebank swissprot protein dblp nasa interpro

EXIT CODES:
  0  success
  1  runtime error (missing file, failed search, unhealthy index)
  2  usage error (unknown command or bad flags)
";

/// Runs the CLI on pre-split arguments (without the program name),
/// returning the text to print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    match cmd.as_str() {
        "index" => cmd_index(rest),
        "search" => cmd_search(rest),
        "suggest" => cmd_suggest(rest),
        "census" => cmd_census(rest),
        "schema" => cmd_schema(rest),
        "info" => cmd_info(rest),
        "doctor" => cmd_doctor(rest),
        "watch" => cmd_watch(rest),
        "compact" => cmd_compact(rest),
        "generate" => cmd_generate(rest),
        "repl" => cmd_repl(rest),
        "serve" => cmd_serve(rest),
        "loadgen" => cmd_loadgen(rest),
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn load_engine(path: &str) -> Result<Engine, CliError> {
    let index = GksIndex::load(path)
        .map_err(|e| CliError::runtime(format!("cannot load index {path:?}: {e}")))?;
    Ok(Engine::from_index(index))
}

fn parse_query(words: &[String]) -> Result<Query, CliError> {
    if words.is_empty() {
        return Err(CliError::usage("no query keywords given"));
    }
    Query::from_keywords(words.iter().cloned())
        .map_err(|e| CliError::usage(format!("bad query: {e}")))
}

fn cmd_index(args: &[String]) -> Result<String, CliError> {
    const INDEX_USAGE: &str = "usage: gks index [--shards N] <out.gksix> <file.xml>...";
    let mut shards = 1usize;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                shards = parse_value(take_value(&mut it, "--shards")?, "--shards")?;
                if shards == 0 {
                    return Err(CliError::usage("--shards must be >= 1"));
                }
            }
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!("unknown index flag {other:?}")));
            }
            _ => positional.push(arg),
        }
    }
    let [out, files @ ..] = positional.as_slice() else {
        return Err(CliError::usage(INDEX_USAGE));
    };
    if files.is_empty() {
        return Err(CliError::usage(INDEX_USAGE));
    }
    // A single directory argument builds an updatable corpus-directory
    // manifest instead of a one-shot index: it records the directory and
    // per-document content hashes so `gks watch` / `serve --watch` can
    // commit delta shards as the corpus changes.
    if let [dir] = files {
        if std::path::Path::new(dir.as_str()).is_dir() {
            let manifest = index_directory(
                std::path::Path::new(dir.as_str()),
                std::path::Path::new(out.as_str()),
                shards,
                IndexOptions::default(),
            )
            .map_err(|e| CliError::runtime(format!("cannot index directory {dir:?}: {e}")))?;
            return Ok(format!(
                "indexed corpus directory {dir}: {} document(s) across {} shard(s), epoch {}\n\
                 wrote manifest to {out} — keep it fresh with `gks watch {out}`\n",
                manifest.docs.len(),
                manifest.shards.len(),
                manifest.epoch
            ));
        }
    }
    let corpus = Corpus::from_paths(files.iter().copied())
        .map_err(|e| CliError::runtime(format!("cannot read corpus: {e}")))?;
    if shards > 1 {
        let out_path = std::path::Path::new(out.as_str());
        let manifest = index_corpus(&corpus, out_path, shards, IndexOptions::default())
            .map_err(|e| CliError::runtime(format!("cannot build shard set {out:?}: {e}")))?;
        let mut report = String::new();
        for s in &manifest.shards {
            let (id, docs, nodes, terms) = (s.id, s.doc_count, s.total_nodes, s.distinct_terms);
            let path = out_path.with_file_name(&s.path);
            let _ =
                writeln!(report, "shard {id}: {docs} document(s), {nodes} nodes, {terms} terms");
            let _ = writeln!(report, "  -> {}", path.display());
        }
        let _ = writeln!(
            report,
            "wrote shard manifest ({} shard(s), {} document(s)) to {out}",
            manifest.shards.len(),
            manifest.doc_count()
        );
        return Ok(report);
    }
    let index = GksIndex::build(&corpus, IndexOptions::default())
        .map_err(|e| CliError::runtime(format!("indexing failed: {e}")))?;
    let written = index
        .save(out)
        .map_err(|e| CliError::runtime(format!("cannot write {out:?}: {e}")))?;
    let s = index.stats();
    Ok(format!(
        "indexed {} document(s): {} nodes, {} entities, {} terms, {} postings\n\
         wrote {written} bytes to {out} in {} ms\n",
        s.doc_count,
        s.total_nodes,
        s.census.entity,
        s.distinct_terms,
        s.total_postings,
        s.build_millis
    ))
}

fn cmd_search(args: &[String]) -> Result<String, CliError> {
    let Some((index_path, rest)) = args.split_first() else {
        return Err(CliError::usage("usage: gks search <index.gksix> [options] <keyword>..."));
    };
    let mut s = Threshold::Fixed(1);
    let mut limit = 20usize;
    let mut want_di = false;
    let mut want_analytics = false;
    let mut want_json = false;
    let mut want_trace = false;
    let mut want_explain = false;
    let mut keywords: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-s" => {
                let v = it.next().ok_or_else(|| CliError::usage("-s needs a value"))?;
                s = Threshold::parse(v)
                    .ok_or_else(|| CliError::usage(format!("bad -s value {v:?}")))?;
            }
            "--limit" => {
                let v = it.next().ok_or_else(|| CliError::usage("--limit needs a value"))?;
                limit =
                    v.parse().map_err(|_| CliError::usage(format!("bad --limit value {v:?}")))?;
            }
            "--di" => want_di = true,
            "--analytics" => want_analytics = true,
            "--json" => want_json = true,
            "--trace" => want_trace = true,
            "--explain" => want_explain = true,
            _ => keywords.push(arg.clone()),
        }
    }
    if want_json && (want_di || want_analytics || want_trace) {
        return Err(CliError::usage(
            "--json cannot be combined with --di/--analytics/--trace (use `gks suggest --json` for insights)",
        ));
    }
    if want_trace {
        gks_trace::set_enabled(true);
    }
    let engine = load_engine(index_path)?;
    // The index-open span completes during `load_engine`; grab its trace
    // before the search opens a new root span and displaces it.
    let open_trace = if want_trace {
        gks_trace::take_last_trace()
    } else {
        None
    };
    let query = parse_query(&keywords)?;
    let resp = engine
        .search(&query, SearchOptions { s, limit })
        .map_err(|e| CliError::runtime(format!("search failed: {e}")))?;
    // Taken now because a later `--di` pass opens its own root span, which
    // would displace the search trace from the last-trace slot.
    let search_trace = if want_trace {
        gks_trace::take_last_trace()
    } else {
        None
    };
    if want_json {
        let mut body = if want_explain {
            wire::search_response_json_explained(&engine, &resp)
        } else {
            wire::search_response_json(&engine, &resp)
        };
        body.push('\n');
        return Ok(body);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "query: {query}  (s = {}, |SL| = {}, {} µs)",
        resp.s(),
        resp.sl_len(),
        resp.elapsed_micros()
    );
    let _ = writeln!(out, "{} hit(s):", resp.hits().len());
    for hit in resp.hits() {
        let _ = writeln!(out, "  {}", engine.render_hit(hit, &resp));
    }
    if !resp.missing_keyword_indices().is_empty() {
        let missing: Vec<&str> = resp
            .missing_keyword_indices()
            .iter()
            .map(|&i| resp.keywords()[i].raw())
            .collect();
        let _ = writeln!(out, "keywords matching nothing: {missing:?}");
    }
    if want_di {
        let di = engine.discover_di(&resp, &DiOptions::default());
        let _ = writeln!(out, "\ndeeper analytical insights:");
        for i in &di {
            let _ =
                writeln!(out, "  {}  weight={:.2} support={}", i.display(), i.weight, i.support);
        }
    }
    if want_analytics {
        let a = engine.analyze(&resp, &AnalyticsOptions::default());
        let _ = writeln!(out, "\nhits by entity type:");
        for g in &a.by_type {
            let _ = writeln!(out, "  {}: {} hit(s), rank mass {:.2}", g.label, g.hits, g.rank_mass);
        }
        let _ = writeln!(out, "facets:");
        for f in &a.facets {
            let values: Vec<String> =
                f.values.iter().map(|v| format!("{}×{}", v.value, v.count)).collect();
            let _ = writeln!(out, "  {}: {}", f.path.join("/"), values.join(", "));
        }
    }
    if want_explain {
        let cost = resp.cost();
        let _ = writeln!(out, "\ncost (work, not time):");
        let _ = writeln!(
            out,
            "  postings scanned: {}  (masked: {})",
            cost.postings_scanned, cost.tombstone_masked
        );
        for (i, kw) in resp.keywords().iter().enumerate() {
            let postings = cost.per_keyword.get(i).copied().unwrap_or(0);
            let _ = writeln!(out, "    {:>12}: {postings}", kw.raw());
        }
        let _ = writeln!(out, "  heap ops: {}", cost.heap_ops);
        let _ = writeln!(out, "  sweep advances: {}", cost.sweep_advances);
        let _ = writeln!(out, "  rank candidates: {}", cost.rank_candidates);
        let _ = writeln!(out, "  total work: {}", cost.total_work());
    }
    if want_trace {
        let _ = writeln!(out, "\nspans:");
        for trace in [open_trace, search_trace, gks_trace::take_last_trace()].into_iter().flatten()
        {
            out.push_str(&trace.render_text());
        }
    }
    Ok(out)
}

fn cmd_suggest(args: &[String]) -> Result<String, CliError> {
    let Some((index_path, rest)) = args.split_first() else {
        return Err(CliError::usage("usage: gks suggest <index.gksix> [--json] <keyword>..."));
    };
    let want_json = rest.iter().any(|a| a == "--json");
    let keywords: Vec<String> = rest.iter().filter(|a| *a != "--json").cloned().collect();
    let engine = load_engine(index_path)?;
    let query = parse_query(&keywords)?;
    let resp = engine
        .search(&query, SearchOptions::with_s(1))
        .map_err(|e| CliError::runtime(format!("search failed: {e}")))?;
    let di = engine.discover_di(&resp, &DiOptions::default());
    let refinement = engine.refine(&resp, &di);
    if want_json {
        let mut body = wire::suggest_response_json(&resp, &refinement, &di);
        body.push('\n');
        return Ok(body);
    }
    let mut out = String::new();
    let _ = writeln!(out, "query: {query}");
    let _ = writeln!(out, "sub-queries found in the data:");
    for sq in &refinement.sub_queries {
        let _ = writeln!(out, "  {sq:?}");
    }
    if !refinement.unmatched.is_empty() {
        let _ = writeln!(out, "unmatched keywords: {:?}", refinement.unmatched);
    }
    if !refinement.morphs.is_empty() {
        let _ = writeln!(out, "suggested morphs (with discovered keywords):");
        for m in &refinement.morphs {
            let _ = writeln!(out, "  {m:?}");
        }
    }
    Ok(out)
}

fn cmd_census(args: &[String]) -> Result<String, CliError> {
    let schema = args.iter().any(|a| a == "--schema");
    let files: Vec<&String> = args.iter().filter(|a| *a != "--schema").collect();
    if files.is_empty() {
        return Err(CliError::usage("usage: gks census [--schema] <file.xml>..."));
    }
    let corpus = Corpus::from_paths(files.iter())
        .map_err(|e| CliError::runtime(format!("cannot read corpus: {e}")))?;
    let index = GksIndex::build(&corpus, IndexOptions::default())
        .map_err(|e| CliError::runtime(format!("indexing failed: {e}")))?;
    let c = index.stats().census;
    let mut out = format!(
        "instance-level census: AN={} EN={} RN={} CN={} total={}\n",
        c.attribute,
        c.entity,
        c.repeating,
        c.connecting,
        c.total()
    );
    if schema {
        let summary = SchemaSummary::from_index(&index);
        let h = summary.harmonized_census();
        let _ = writeln!(
            out,
            "schema-level census:   AN={} EN={} RN={} CN={} total={}",
            h.attribute,
            h.entity,
            h.repeating,
            h.connecting,
            h.total()
        );
        let _ = writeln!(out, "entity types:");
        for path in summary.entity_paths() {
            let _ = writeln!(out, "  /{}", path.join("/"));
        }
    }
    Ok(out)
}

fn cmd_schema(args: &[String]) -> Result<String, CliError> {
    let [path] = args else {
        return Err(CliError::usage("usage: gks schema <index.gksix>"));
    };
    let engine = load_engine(path)?;
    let summary = SchemaSummary::from_index(engine.index());
    let mut out = format!("{} distinct label path(s):\n", summary.len());
    for (path, stats) in summary.iter_sorted() {
        let _ = writeln!(
            out,
            "  /{:<48} {:>7} × {}  avg fan-out {:.1}",
            path.join("/"),
            stats.instances,
            stats.dominant_category().abbrev(),
            stats.avg_children()
        );
    }
    let _ = writeln!(out, "\nentity types:");
    for path in summary.entity_paths() {
        let _ = writeln!(out, "  /{}", path.join("/"));
    }
    Ok(out)
}

/// Runs the interactive loop over any `BufRead`/`Write` pair (testable; the
/// binary passes stdin/stdout).
pub fn repl_loop(
    engine: &Engine,
    input: &mut dyn std::io::BufRead,
    output: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    let mut s_threshold = Threshold::Fixed(1);
    writeln!(output, "gks repl — enter keywords; :s N sets the threshold; :q quits")?;
    let mut line = String::new();
    loop {
        write!(output, "gks> ")?;
        output.flush()?;
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(()); // EOF
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix(':') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("q") | Some("quit") => return Ok(()),
                Some("s") => match parts.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(v) if v > 0 => {
                        s_threshold = Threshold::Fixed(v);
                        writeln!(output, "s = {v}")?;
                    }
                    _ => writeln!(output, "usage: :s <positive integer>")?,
                },
                Some(other) => writeln!(output, "unknown command :{other} (try :s, :q)")?,
                None => writeln!(output, "empty command")?,
            }
            continue;
        }
        let query = match Query::parse(trimmed) {
            Ok(q) => q,
            Err(e) => {
                writeln!(output, "bad query: {e}")?;
                continue;
            }
        };
        match engine.search(&query, SearchOptions { s: s_threshold, limit: 10 }) {
            Ok(resp) => {
                writeln!(
                    output,
                    "{} hit(s) (s = {}, {} µs):",
                    resp.hits().len(),
                    resp.s(),
                    resp.elapsed_micros()
                )?;
                for hit in resp.hits() {
                    writeln!(output, "  {}", engine.render_hit(hit, &resp))?;
                }
                let di = engine.discover_di(&resp, &DiOptions { top_m: 3, ..Default::default() });
                if !di.is_empty() {
                    let shown: Vec<String> = di.iter().map(|i| i.display()).collect();
                    writeln!(output, "  DI: {}", shown.join(", "))?;
                }
            }
            Err(e) => writeln!(output, "search failed: {e}")?,
        }
    }
}

fn cmd_repl(args: &[String]) -> Result<String, CliError> {
    let [path] = args else {
        return Err(CliError::usage("usage: gks repl <index.gksix>"));
    };
    let engine = load_engine(path)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    repl_loop(&engine, &mut stdin.lock(), &mut stdout.lock())
        .map_err(|e| CliError::runtime(format!("repl I/O error: {e}")))?;
    Ok(String::new())
}

fn cmd_info(args: &[String]) -> Result<String, CliError> {
    let [path] = args else {
        return Err(CliError::usage("usage: gks info <index.gksix>"));
    };
    let engine = load_engine(path)?;
    let s = engine.index().stats();
    Ok(format!(
        "documents: {}\nnodes: {} (AN={} EN={} RN={} CN={})\nmax depth: {}\n\
         distinct terms: {}\npostings: {}\nraw bytes indexed: {}\n",
        s.doc_count,
        s.total_nodes,
        s.census.attribute,
        s.census.entity,
        s.census.repeating,
        s.census.connecting,
        s.max_depth,
        s.distinct_terms,
        s.total_postings,
        s.raw_bytes
    ))
}

/// Appends the per-section byte breakdown of one index file (`gks doctor`):
/// term dictionary, postings, node table and attribute store.
fn section_report(path: &std::path::Path, indent: &str, out: &mut String) {
    let Ok(s) = gks_index::section_sizes(path) else {
        return;
    };
    let pct = |n: u64| {
        if s.total == 0 {
            0.0
        } else {
            n as f64 * 100.0 / s.total as f64
        }
    };
    let other = s.header + s.doc_names + s.labels + s.stats + s.footer;
    let _ = writeln!(
        out,
        "{indent}file version {}, {} bytes: term dict {} ({:.1}%), postings {} ({:.1}%), \
         node table {} ({:.1}%), attr store {} ({:.1}%), other {} ({:.1}%)",
        s.version,
        s.total,
        s.term_dict,
        pct(s.term_dict),
        s.postings,
        pct(s.postings),
        s.node_table,
        pct(s.node_table),
        s.attr_store,
        pct(s.attr_store),
        other,
        pct(other),
    );
}

/// The single-file audit `gks doctor` runs on a bare index path and on
/// every shard of a manifest: load, check the structural invariants, and
/// on a healthy file print the per-section byte breakdown. Appends the
/// report under `label`, indented by `indent`; returns whether it was sick.
fn doctor_file(path: &std::path::Path, label: &str, indent: &str, out: &mut String) -> bool {
    let index = match GksIndex::load(path) {
        Ok(index) => index,
        Err(e) => {
            let _ = writeln!(out, "{indent}{label}: cannot load index: {e}");
            return true;
        }
    };
    let violations = index.doctor();
    if !violations.is_empty() {
        let _ = writeln!(out, "{indent}{label}: {} violation(s) found", violations.len());
        for v in &violations {
            let _ = writeln!(out, "{indent}  {v}");
        }
        return true;
    }
    let s = index.stats();
    let _ = writeln!(
        out,
        "{indent}{label}: healthy — 0 violation(s) across {} node(s), {} term(s), {} posting(s)",
        s.total_nodes, s.distinct_terms, s.total_postings
    );
    section_report(path, &format!("{indent}  "), out);
    false
}

/// `gks doctor <manifest>`: prints the manifest audit's findings (the ones
/// `/doctor` reports for a served manifest), then runs [`doctor_file`] on
/// every shard the manifest lists. Returns whether anything was sick.
fn doctor_shard_set(path: &str, out: &mut String) -> bool {
    let (manifest, findings) = match audit_manifest(std::path::Path::new(path)) {
        Ok(audit) => audit,
        Err(e) => {
            let _ = writeln!(out, "{path}: cannot load shard manifest: {e}");
            return true;
        }
    };
    if findings.is_empty() {
        let _ = writeln!(
            out,
            "{path}: manifest is healthy — epoch {}, {} shard(s) ({} delta), {} document(s), {} tombstone(s)",
            manifest.epoch,
            manifest.shards.len(),
            manifest.delta_shard_count(),
            manifest.docs.len(),
            manifest.tombstones.len()
        );
    } else {
        let _ = writeln!(out, "{path}: {} manifest violation(s) found", findings.len());
        for v in &findings {
            let _ = writeln!(out, "  {v}");
        }
    }
    let mut sick = !findings.is_empty();
    for entry in &manifest.shards {
        sick |= doctor_file(&entry.path, &format!("shard {}", entry.id), "  ", out);
    }
    sick
}

fn cmd_doctor(args: &[String]) -> Result<String, CliError> {
    if args.is_empty() {
        return Err(CliError::usage("usage: gks doctor <index.gksix|manifest>..."));
    }
    // Audit every index (mirroring the server's catalog-wide GET /doctor);
    // the run fails if any one of them is sick, but all are still reported.
    let mut out = String::new();
    let mut sick = false;
    for path in args {
        sick |= if is_manifest_file(path) {
            doctor_shard_set(path, &mut out)
        } else {
            doctor_file(std::path::Path::new(path), path, "", &mut out)
        };
    }
    if sick {
        return Err(CliError::runtime(out));
    }
    Ok(out)
}

fn take_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a String, CliError> {
    it.next().ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
}

fn parse_value<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::usage(format!("bad {flag} value {value:?}")))
}

/// Parses the value of `--compact-threshold` (`watch` and `serve`): a
/// delta-shard count of at least 1.
fn parse_threshold(it: &mut std::slice::Iter<'_, String>) -> Result<u64, CliError> {
    let n = parse_value(take_value(it, "--compact-threshold")?, "--compact-threshold")?;
    if n == 0 {
        return Err(CliError::usage("--compact-threshold must be >= 1"));
    }
    Ok(n)
}

/// Parses a `--trace-sample` spelling: `N` or `1/N`, N ≥ 1.
fn parse_trace_sample(value: &str) -> Option<u64> {
    let n = value.strip_prefix("1/").unwrap_or(value);
    n.parse::<u64>().ok().filter(|&n| n >= 1)
}

/// Builds the catalog spec for one index source spelling:
/// `p1,p2,…` registers the comma-separated paths as shards, a path whose
/// file starts with the shard-manifest header loads the manifest, and
/// anything else is a plain single-index path.
fn index_spec_for(name: &str, spec: &str) -> Result<IndexSpec, CliError> {
    if spec.contains(',') {
        return Ok(IndexSpec::with_shard_paths(name, spec.split(',')));
    }
    if is_manifest_file(spec) {
        return IndexSpec::with_manifest(name, spec)
            .map_err(|e| CliError::runtime(format!("cannot load shard manifest {spec:?}: {e}")));
    }
    Ok(IndexSpec::with_source(name, spec))
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    const SERVE_USAGE: &str = "usage: gks serve [<index.gksix>] [--index NAME=PATH[,PATH...]]... \
        [--default-index NAME] [--addr HOST:PORT] [--workers N] [--queue N] \
        [--deadline-ms N] [--cache-mb N] [--query-log FILE] \
        [--slow-log FILE] [--slow-ms N] [--trace-sample N|1/N] \
        [--no-trace] [--watch] [--watch-interval-ms N] [--compact-threshold N] \
        [--max-connections N] [--idle-timeout-ms N]";
    // The positional path (registered as the "default" index) is optional
    // when --index flags supply the catalog.
    let (positional, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (Some(first), rest),
        _ => (None, args),
    };
    let mut config = ServeConfig::default();
    let mut specs: Vec<IndexSpec> = Vec::new();
    if let Some(path) = positional {
        specs.push(index_spec_for(DEFAULT_INDEX_NAME, path)?);
    }
    let mut default_index: Option<String> = None;
    let mut watch = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--watch" => watch = true,
            "--watch-interval-ms" => {
                let ms: u64 = parse_value(
                    take_value(&mut it, "--watch-interval-ms")?,
                    "--watch-interval-ms",
                )?;
                if ms == 0 {
                    return Err(CliError::usage("--watch-interval-ms must be >= 1"));
                }
                config.watch_interval = Some(std::time::Duration::from_millis(ms));
            }
            "--compact-threshold" => config.compact_threshold = Some(parse_threshold(&mut it)?),
            "--index" => {
                let v = take_value(&mut it, "--index")?;
                let Some((name, path)) = v.split_once('=') else {
                    return Err(CliError::usage(format!("--index wants NAME=PATH, got {v:?}")));
                };
                specs.push(index_spec_for(name, path)?);
            }
            "--default-index" => {
                default_index = Some(take_value(&mut it, "--default-index")?.clone());
            }
            "--trace-sample" => {
                let v = take_value(&mut it, "--trace-sample")?;
                config.trace_sample = parse_trace_sample(v).ok_or_else(|| {
                    CliError::usage(format!("bad --trace-sample value {v:?} (want N or 1/N)"))
                })?;
            }
            "--addr" => config.addr = take_value(&mut it, "--addr")?.clone(),
            "--workers" => {
                config.workers = parse_value(take_value(&mut it, "--workers")?, "--workers")?;
            }
            "--queue" => {
                config.queue_depth = parse_value(take_value(&mut it, "--queue")?, "--queue")?;
                if config.queue_depth == 0 {
                    return Err(CliError::usage("--queue must be > 0"));
                }
            }
            "--deadline-ms" => {
                let ms: u64 = parse_value(take_value(&mut it, "--deadline-ms")?, "--deadline-ms")?;
                config.deadline = std::time::Duration::from_millis(ms);
            }
            "--cache-mb" => {
                let mb: usize = parse_value(take_value(&mut it, "--cache-mb")?, "--cache-mb")?;
                config.cache_bytes = mb * 1024 * 1024;
            }
            "--query-log" => {
                config.query_log =
                    Some(std::path::PathBuf::from(take_value(&mut it, "--query-log")?));
            }
            "--slow-log" => {
                config.slow_log =
                    Some(std::path::PathBuf::from(take_value(&mut it, "--slow-log")?));
            }
            "--slow-ms" => {
                let ms: u64 = parse_value(take_value(&mut it, "--slow-ms")?, "--slow-ms")?;
                config.slow_threshold = std::time::Duration::from_millis(ms);
            }
            "--no-trace" => config.trace = false,
            "--max-connections" => {
                config.max_connections =
                    parse_value(take_value(&mut it, "--max-connections")?, "--max-connections")?;
            }
            "--idle-timeout-ms" => {
                let ms: u64 =
                    parse_value(take_value(&mut it, "--idle-timeout-ms")?, "--idle-timeout-ms")?;
                config.idle_timeout = std::time::Duration::from_millis(ms);
            }
            other => return Err(CliError::usage(format!("unknown serve flag {other:?}"))),
        }
    }
    if specs.is_empty() {
        return Err(CliError::usage(SERVE_USAGE));
    }
    // Bare `--watch` picks the default cadence; an explicit interval
    // implies watching.
    if watch && config.watch_interval.is_none() {
        config.watch_interval = Some(std::time::Duration::from_millis(2000));
    }
    if config.compact_threshold.is_some() && config.watch_interval.is_none() {
        return Err(CliError::usage(
            "--compact-threshold needs --watch: compaction runs on the watcher tick",
        ));
    }
    let index_names: Vec<String> = specs.iter().map(|s| s.name().to_string()).collect();
    let server = gks_server::serve_catalog(specs, default_index.as_deref(), config.clone())
        .map_err(|e| CliError::runtime(format!("cannot start server: {e}")))?;
    // Clear any stale flags (e.g. a prior run in the same test process),
    // then hook SIGTERM/ctrl-c so `kill` triggers a drain instead of a hard
    // stop, and SIGHUP so it hot-swaps the default index.
    signal::request_shutdown(false);
    signal::request_reload(false);
    let have_signals = signal::install_shutdown_handler();
    println!(
        "gks-serve: listening on {} ({} worker(s), queue {}, deadline {} ms, cache {} MiB)",
        server.local_addr(),
        config.workers,
        config.queue_depth,
        config.deadline.as_millis(),
        config.cache_bytes / (1024 * 1024)
    );
    println!(
        "gks-serve: catalog [{}], default index {:?}",
        index_names.join(", "),
        server.state().catalog().default_index().name()
    );
    if let Some(interval) = config.watch_interval {
        println!(
            "gks-serve: watching manifest corpus directories every {} ms{}",
            interval.as_millis(),
            config
                .compact_threshold
                .map(|t| format!(", compacting at {t} delta shard(s)"))
                .unwrap_or_default()
        );
    }
    if let Some(path) = &config.query_log {
        println!("gks-serve: query log -> {}", path.display());
    }
    if let Some(path) = &config.slow_log {
        println!(
            "gks-serve: slow log -> {} (threshold {} ms)",
            path.display(),
            config.slow_threshold.as_millis()
        );
    }
    if !have_signals {
        println!("gks-serve: no signal support on this platform; stop by killing the process");
    }
    let _ = std::io::Write::flush(&mut std::io::stdout());
    while !signal::shutdown_requested() {
        if signal::take_reload_request() {
            // SIGHUP: hot-swap the default index off the signal path (the
            // handler only sets a flag; this loop does the actual work).
            match server.state().reload_default() {
                Ok((before, after)) => println!(
                    "gks-serve: reloaded default index (identity {before:#x} -> {after:#x})"
                ),
                Err(e) => println!("gks-serve: reload failed: {e}"),
            }
            let _ = std::io::Write::flush(&mut std::io::stdout());
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = server.shutdown();
    Ok(format!(
        "gks-serve: drained — accepted {} connection(s), served {}, rejected {}\n",
        report.accepted, report.served, report.rejected
    ))
}

fn cmd_loadgen(args: &[String]) -> Result<String, CliError> {
    const LOADGEN_USAGE: &str = "usage: gks loadgen <host:port> <workload.txt> \
        [--clients N] [--requests N] [--zipf S] [--seed N] [--timeout-ms N] \
        [--open-loop --rate QPS] [--index NAME[=WEIGHT]]... [--explain] \
        [--keep-alive] [--connections N] [--slow-clients N]";
    let [addr_raw, workload_path, rest @ ..] = args else {
        return Err(CliError::usage(LOADGEN_USAGE));
    };
    let addr = {
        use std::net::ToSocketAddrs as _;
        addr_raw
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .ok_or_else(|| CliError::usage(format!("bad address {addr_raw:?}")))?
    };
    let mut config = loadgen::LoadgenConfig { addr, ..loadgen::LoadgenConfig::default() };
    let mut open_loop = false;
    let mut rate_qps: Option<f64> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => {
                config.clients = parse_value(take_value(&mut it, "--clients")?, "--clients")?;
            }
            "--requests" => {
                config.requests_per_client =
                    parse_value(take_value(&mut it, "--requests")?, "--requests")?;
            }
            "--zipf" => config.zipf_s = parse_value(take_value(&mut it, "--zipf")?, "--zipf")?,
            "--seed" => config.seed = parse_value(take_value(&mut it, "--seed")?, "--seed")?,
            "--timeout-ms" => {
                let ms: u64 = parse_value(take_value(&mut it, "--timeout-ms")?, "--timeout-ms")?;
                config.timeout = std::time::Duration::from_millis(ms);
            }
            "--open-loop" => open_loop = true,
            "--explain" => config.explain = true,
            "--keep-alive" => config.keep_alive = true,
            "--connections" => {
                config.connections =
                    parse_value(take_value(&mut it, "--connections")?, "--connections")?;
            }
            "--slow-clients" => {
                config.slow_clients =
                    parse_value(take_value(&mut it, "--slow-clients")?, "--slow-clients")?;
            }
            "--rate" => {
                rate_qps = Some(parse_value(take_value(&mut it, "--rate")?, "--rate")?);
            }
            "--index" => {
                let v = take_value(&mut it, "--index")?;
                let target = loadgen::parse_index_target(v).ok_or_else(|| {
                    CliError::usage(format!("bad --index value {v:?} (want NAME or NAME=WEIGHT)"))
                })?;
                config.targets.push(target);
            }
            other => return Err(CliError::usage(format!("unknown loadgen flag {other:?}"))),
        }
    }
    config.pacing = match (open_loop, rate_qps) {
        (true, Some(rate_qps)) if rate_qps > 0.0 => loadgen::Pacing::Open { rate_qps },
        (true, Some(rate_qps)) => {
            return Err(CliError::usage(format!("--rate must be > 0, got {rate_qps}")));
        }
        (true, None) => return Err(CliError::usage("--open-loop needs --rate QPS")),
        (false, Some(_)) => {
            return Err(CliError::usage("--rate only applies with --open-loop"));
        }
        (false, None) => loadgen::Pacing::Closed,
    };
    let text = std::fs::read_to_string(workload_path)
        .map_err(|e| CliError::runtime(format!("cannot read workload {workload_path:?}: {e}")))?;
    let workload = loadgen::parse_workload(&text);
    if workload.is_empty() {
        return Err(CliError::runtime(format!("workload {workload_path:?} has no queries")));
    }
    let report = loadgen::run(&config, &workload);
    Ok(report.render())
}

/// Renders one [`maintain`] tick as `gks watch` lines, one per step that
/// did or failed something. Failures are not fatal: a mid-mutation scan or
/// a transient I/O error is retried on the next tick, and the manifest on
/// disk is untouched by a failed step.
fn render_tick(outcome: &MaintenanceOutcome, out: &mut String) {
    let _ = match &outcome.commit {
        Ok(None) => Ok(()),
        Ok(Some(s)) => writeln!(
            out,
            "committed epoch {}: +{} added, ~{} changed, -{} deleted",
            s.epoch, s.added, s.changed, s.deleted
        ),
        Err(e) => writeln!(out, "delta commit failed (will retry): {e}"),
    };
    let _ = match &outcome.compaction {
        Ok(None) => Ok(()),
        Ok(Some(s)) => writeln!(
            out,
            "compacted to epoch {}: {} base shard(s), {} document(s), {} old file(s) removed",
            s.epoch, s.base_shards, s.docs, s.removed_files
        ),
        Err(e) => writeln!(out, "compaction failed (will retry): {e}"),
    };
}

fn cmd_watch(args: &[String]) -> Result<String, CliError> {
    const WATCH_USAGE: &str =
        "usage: gks watch <manifest> [--interval-ms N] [--compact-threshold N] [--once]";
    let mut interval_ms = 2000u64;
    let mut threshold: Option<u64> = None;
    let mut once = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => {
                interval_ms = parse_value(take_value(&mut it, "--interval-ms")?, "--interval-ms")?;
                if interval_ms == 0 {
                    return Err(CliError::usage("--interval-ms must be >= 1"));
                }
            }
            "--compact-threshold" => threshold = Some(parse_threshold(&mut it)?),
            "--once" => once = true,
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!("unknown watch flag {other:?}")));
            }
            _ => positional.push(arg),
        }
    }
    let [manifest_arg] = positional.as_slice() else {
        return Err(CliError::usage(WATCH_USAGE));
    };
    let manifest_path = std::path::PathBuf::from(manifest_arg.as_str());
    // Fail fast on a path that is not an updatable manifest at all.
    let manifest = ShardManifest::load(&manifest_path).map_err(|e| {
        CliError::runtime(format!("cannot load shard manifest {manifest_arg:?}: {e}"))
    })?;
    if manifest.corpus_dir.is_none() {
        return Err(CliError::runtime(format!(
            "manifest {manifest_arg:?} records no corpus directory — rebuild it with \
             `gks index <manifest> <corpus-dir>` to enable the update path"
        )));
    }
    if once {
        let outcome = maintain(&manifest_path, threshold);
        let mut out = String::new();
        render_tick(&outcome, &mut out);
        if out.is_empty() {
            let _ = writeln!(out, "corpus unchanged — nothing to commit");
        }
        return Ok(out);
    }
    signal::request_shutdown(false);
    let have_signals = signal::install_shutdown_handler();
    println!(
        "gks-watch: polling {} every {interval_ms} ms{}",
        manifest_arg,
        threshold
            .map(|t| format!(", compacting at {t} delta shard(s)"))
            .unwrap_or_default()
    );
    if !have_signals {
        println!("gks-watch: no signal support on this platform; stop by killing the process");
    }
    let _ = std::io::Write::flush(&mut std::io::stdout());
    while !signal::shutdown_requested() {
        let mut events = String::new();
        render_tick(&maintain(&manifest_path, threshold), &mut events);
        if !events.is_empty() {
            print!("gks-watch: {events}");
            let _ = std::io::Write::flush(&mut std::io::stdout());
        }
        // Sleep in short slices so SIGTERM/ctrl-c stays prompt.
        let mut remaining = interval_ms;
        while remaining > 0 && !signal::shutdown_requested() {
            let slice = remaining.min(50);
            std::thread::sleep(std::time::Duration::from_millis(slice));
            remaining -= slice;
        }
    }
    Ok("gks-watch: stopped\n".to_string())
}

fn cmd_compact(args: &[String]) -> Result<String, CliError> {
    let [path] = args else {
        return Err(CliError::usage("usage: gks compact <manifest>"));
    };
    let manifest_path = std::path::Path::new(path.as_str());
    match compact(manifest_path) {
        Ok(Some(stats)) => Ok(format!(
            "compacted {path}: epoch {}, {} base shard(s), {} document(s), {} old file(s) removed\n",
            stats.epoch, stats.base_shards, stats.docs, stats.removed_files
        )),
        Ok(None) => Ok(format!("{path}: no delta backlog — nothing to compact\n")),
        Err(e) => Err(CliError::runtime(format!("cannot compact {path:?}: {e}"))),
    }
}

fn cmd_generate(args: &[String]) -> Result<String, CliError> {
    let [dataset, scale, out_path] = args else {
        return Err(CliError::usage("usage: gks generate <dataset> <scale> <out.xml>"));
    };
    let ds = match dataset.to_lowercase().as_str() {
        "sigmod" => Dataset::SigmodRecord,
        "mondial" => Dataset::Mondial,
        "plays" => Dataset::Plays,
        "treebank" => Dataset::TreeBank,
        "swissprot" => Dataset::SwissProt,
        "protein" => Dataset::ProteinSequence,
        "dblp" => Dataset::Dblp,
        "nasa" => Dataset::Nasa,
        "interpro" => Dataset::InterPro,
        other => return Err(CliError::usage(format!("unknown dataset {other:?}"))),
    };
    let scale: usize =
        scale.parse().map_err(|_| CliError::usage(format!("bad scale {scale:?}")))?;
    let xml = ds.generate(scale, 2016);
    let bytes = xml.len();
    std::fs::write(out_path, xml)
        .map_err(|e| CliError::runtime(format!("cannot write {out_path:?}: {e}")))?;
    Ok(format!("wrote {bytes} bytes of synthetic {} to {out_path}\n", ds.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gks-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&args(&["--help"])).unwrap().contains("USAGE"));
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown command"));
        assert_eq!(run(&[]).unwrap_err().code, 2);
    }

    #[test]
    fn full_workflow_generate_index_search_suggest_info() {
        // A subdirectory of its own: the cleanup below must not take the
        // sibling tests' directories with it.
        let dir = tmpdir().join("workflow");
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("dblp.xml");
        let ix = dir.join("dblp.gksix");
        let xml_s = xml.to_str().unwrap();
        let ix_s = ix.to_str().unwrap();

        let out = run(&args(&["generate", "dblp", "200", xml_s])).unwrap();
        assert!(out.contains("synthetic DBLP"), "{out}");

        let out = run(&args(&["index", ix_s, xml_s])).unwrap();
        assert!(out.contains("indexed 1 document(s)"), "{out}");

        // The bytes are a function of the corpus, not of the clock.
        let again = dir.join("again.gksix");
        run(&args(&["index", again.to_str().unwrap(), xml_s])).unwrap();
        assert!(std::fs::read(&ix).unwrap() == std::fs::read(&again).unwrap());

        let out = run(&args(&["search", ix_s, "-s", "1", "--di", "keyword", "search"])).unwrap();
        assert!(out.contains("hit(s):"), "{out}");
        assert!(out.contains("deeper analytical insights"), "{out}");

        let out = run(&args(&["search", ix_s, "--trace", "keyword", "search"])).unwrap();
        assert!(out.contains("spans:"), "{out}");
        assert!(out.contains("trace #"), "{out}");
        for label in ["index_open", "search", "parse", "postings", "sweep", "rank"] {
            assert!(out.contains(label), "span tree missing {label}:\n{out}");
        }

        let out = run(&args(&["search", ix_s, "--analytics", "xml"])).unwrap();
        assert!(out.contains("hits by entity type"), "{out}");

        let out = run(&args(&["search", ix_s, "--explain", "keyword", "search"])).unwrap();
        assert!(out.contains("cost (work, not time):"), "{out}");
        assert!(out.contains("postings scanned:"), "{out}");
        assert!(out.contains("total work:"), "{out}");

        let out =
            run(&args(&["search", ix_s, "--json", "--explain", "keyword", "search"])).unwrap();
        assert!(out.contains("\"cost\":{\"postings_scanned\":"), "{out}");
        assert!(out.contains("\"cost_keywords\":[{\"keyword\":"), "{out}");

        let out = run(&args(&["suggest", ix_s, "keyword", "zzznothing"])).unwrap();
        assert!(out.contains("unmatched keywords"), "{out}");

        let out = run(&args(&["info", ix_s])).unwrap();
        assert!(out.contains("documents: 1"), "{out}");

        // Acceptance bar: a freshly built synthetic-DBLP index is healthy.
        let out = run(&args(&["doctor", ix_s])).unwrap();
        assert!(out.contains("0 violation(s)"), "{out}");

        let out = run(&args(&["census", "--schema", xml_s])).unwrap();
        assert!(out.contains("instance-level census"), "{out}");
        assert!(out.contains("schema-level census"), "{out}");
        assert!(out.contains("/dblp/"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_and_repl_over_a_real_index() {
        let dir = tmpdir().join("schema-repl");
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("m.xml");
        let ix = dir.join("m.gksix");
        run(&args(&["generate", "mondial", "10", xml.to_str().unwrap()])).unwrap();
        run(&args(&["index", ix.to_str().unwrap(), xml.to_str().unwrap()])).unwrap();

        let out = run(&args(&["schema", ix.to_str().unwrap()])).unwrap();
        assert!(out.contains("/mondial/country"), "{out}");
        assert!(out.contains("entity types:"), "{out}");

        // Drive the REPL through an in-memory session.
        let engine = Engine::from_index(GksIndex::load(ix.to_str().unwrap()).unwrap());
        let session = b":s 2\ncountry name\n:nope\n:q\n" as &[u8];
        let mut input = std::io::BufReader::new(session);
        let mut output = Vec::new();
        repl_loop(&engine, &mut input, &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("s = 2"), "{text}");
        assert!(text.contains("hit(s) (s = 2"), "{text}");
        assert!(text.contains("unknown command :nope"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_output_matches_wire_format() {
        let dir = tmpdir().join("json-out");
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("d.xml");
        let ix = dir.join("d.gksix");
        run(&args(&["generate", "dblp", "100", xml.to_str().unwrap()])).unwrap();
        run(&args(&["index", ix.to_str().unwrap(), xml.to_str().unwrap()])).unwrap();
        let ix_s = ix.to_str().unwrap();

        let out = run(&args(&["search", ix_s, "--json", "-s", "1", "keyword", "search"])).unwrap();
        assert!(out.starts_with("{\"query\":[\"keyword\",\"search\"],\"s\":"), "{out}");
        assert!(out.ends_with("}\n"), "newline-terminated JSON document");

        let out = run(&args(&["suggest", ix_s, "--json", "keyword"])).unwrap();
        assert!(out.starts_with("{\"query\":[\"keyword\"]"), "{out}");
        assert!(out.contains("\"sub_queries\""), "{out}");

        // --json is the machine format; the human-only flags conflict.
        let err = run(&args(&["search", ix_s, "--json", "--di", "x"])).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run(&args(&["search", ix_s, "--json", "--trace", "x"])).unwrap_err();
        assert_eq!(err.code, 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_index_builds_manifest_and_shard_files() {
        let dir = tmpdir().join("sharded-index");
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("d.xml");
        run(&args(&["generate", "dblp", "120", xml.to_str().unwrap()])).unwrap();
        // Two documents so a 2-way document split is possible.
        let xml2 = dir.join("d2.xml");
        std::fs::copy(&xml, &xml2).unwrap();
        let manifest_path = dir.join("corpus.shards");
        let out = run(&args(&[
            "index",
            "--shards",
            "2",
            manifest_path.to_str().unwrap(),
            xml.to_str().unwrap(),
            xml2.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote shard manifest (2 shard(s), 2 document(s))"), "{out}");
        let manifest = ShardManifest::load(&manifest_path).unwrap();
        assert_eq!(manifest.shards.len(), 2);
        assert_eq!(manifest.doc_count(), 2);
        // The shared base-shard writer: base-set names and a real commit time.
        assert_eq!(manifest.shards[1].path, dir.join("corpus.base0.1.gksix"));
        assert!(manifest.committed_ms > 0, "file-list manifests record when they were built");
        let out = run(&args(&["doctor", manifest_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("manifest is healthy"), "{out}");
        // Every shard file exists, is a healthy index, and the serve-side
        // spec sniffing recognizes both spellings.
        let mut shard_paths = Vec::new();
        for entry in &manifest.shards {
            let path = dir.join(&entry.path);
            assert!(path.exists(), "missing shard file {}", path.display());
            run(&args(&["doctor", path.to_str().unwrap()])).unwrap();
            shard_paths.push(path.to_str().unwrap().to_string());
        }
        assert!(index_spec_for("m", manifest_path.to_str().unwrap()).is_ok(), "manifest sniffed");
        assert!(index_spec_for("m", &shard_paths.join(",")).is_ok(), "comma list accepted");

        // Shard flag validation.
        assert_eq!(run(&args(&["index", "--shards"])).unwrap_err().code, 2, "missing value");
        let err = run(&args(&["index", "--shards", "0", "/tmp/x", "/tmp/y.xml"])).unwrap_err();
        assert_eq!(err.code, 2, "zero shards");
        let err = run(&args(&["index", "--shards", "x", "/tmp/x", "/tmp/y.xml"])).unwrap_err();
        assert_eq!(err.code, 2, "non-numeric shards");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_index_watch_and_compact_round_trip() {
        let dir = tmpdir().join("watch-compact");
        let corpus = dir.join("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        std::fs::write(corpus.join("a.xml"), "<r><x>alpha</x></r>").unwrap();
        std::fs::write(corpus.join("b.xml"), "<r><x>beta</x></r>").unwrap();
        let manifest = dir.join("corpus.shards");
        let manifest_s = manifest.to_str().unwrap().to_string();

        // A directory argument builds an updatable manifest.
        let out = run(&args(&["index", &manifest_s, corpus.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 document(s)"), "{out}");
        assert!(out.contains("gks watch"), "{out}");

        // The fresh manifest and its shards pass the manifest-aware doctor.
        let out = run(&args(&["doctor", &manifest_s])).unwrap();
        assert!(out.contains("manifest is healthy"), "{out}");
        assert!(out.contains("shard 0: healthy"), "{out}");

        // A clean poll commits nothing.
        let out = run(&args(&["watch", &manifest_s, "--once"])).unwrap();
        assert!(out.contains("nothing to commit"), "{out}");

        // Mutate the corpus; one watch tick commits a delta.
        std::fs::write(corpus.join("c.xml"), "<r><x>gamma</x></r>").unwrap();
        let out = run(&args(&["watch", &manifest_s, "--once"])).unwrap();
        assert!(out.contains("+1 added"), "{out}");
        let loaded = ShardManifest::load(&manifest).unwrap();
        assert_eq!(loaded.delta_shard_count(), 1);

        // Searching via a serve-side spec sees the delta-committed doc.
        assert!(index_spec_for("m", &manifest_s).is_ok());

        // Compact folds the backlog; a second compact is a no-op.
        let out = run(&args(&["compact", &manifest_s])).unwrap();
        assert!(out.contains("compacted"), "{out}");
        let out = run(&args(&["compact", &manifest_s])).unwrap();
        assert!(out.contains("nothing to compact"), "{out}");
        let loaded = ShardManifest::load(&manifest).unwrap();
        assert_eq!(loaded.delta_shard_count(), 0);
        assert_eq!(loaded.doc_count(), 3);

        // A --once tick with a threshold of 1 commits and compacts in one go.
        std::fs::write(corpus.join("d.xml"), "<r><x>delta</x></r>").unwrap();
        let out =
            run(&args(&["watch", &manifest_s, "--once", "--compact-threshold", "1"])).unwrap();
        assert!(out.contains("+1 added"), "{out}");
        assert!(out.contains("compacted to epoch"), "{out}");

        // Doctor still passes after the full update cycle.
        let out = run(&args(&["doctor", &manifest_s])).unwrap();
        assert!(out.contains("manifest is healthy"), "{out}");

        // Watch flag validation.
        assert_eq!(run(&args(&["watch"])).unwrap_err().code, 2, "manifest required");
        assert_eq!(
            run(&args(&["watch", &manifest_s, "--interval-ms", "0"])).unwrap_err().code,
            2,
            "zero interval"
        );
        assert_eq!(
            run(&args(&["watch", &manifest_s, "--bogus"])).unwrap_err().code,
            2,
            "unknown watch flag"
        );
        assert_eq!(
            run(&args(&["watch", &manifest_s, "--once", "--compact-threshold", "0"]))
                .unwrap_err()
                .code,
            2,
            "zero compact threshold"
        );
        assert_eq!(
            run(&args(&["watch", "/no/such.shards", "--once"])).unwrap_err().code,
            1,
            "missing manifest is a runtime error"
        );
        assert_eq!(run(&args(&["compact"])).unwrap_err().code, 2, "compact wants one path");
        assert_eq!(
            run(&args(&["compact", "/no/such.shards"])).unwrap_err().code,
            1,
            "missing manifest is a runtime error"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_rejects_manifest_without_corpus_dir() {
        // A file-list manifest (classic `index --shards N` over .xml files)
        // records no corpus directory, so the update path refuses it.
        let dir = tmpdir().join("watch-no-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("d.xml");
        run(&args(&["generate", "dblp", "60", xml.to_str().unwrap()])).unwrap();
        let xml2 = dir.join("d2.xml");
        std::fs::copy(&xml, &xml2).unwrap();
        let manifest = dir.join("legacy.shards");
        run(&args(&[
            "index",
            "--shards",
            "2",
            manifest.to_str().unwrap(),
            xml.to_str().unwrap(),
            xml2.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&args(&["watch", manifest.to_str().unwrap(), "--once"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("no corpus directory"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_reports_a_shard_that_does_not_open() {
        let dir = tmpdir().join("doctor-unreadable");
        let corpus = dir.join("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        std::fs::write(corpus.join("a.xml"), "<r><x>alpha beta gamma</x></r>").unwrap();
        let manifest = dir.join("live.shards");
        let manifest_s = manifest.to_str().unwrap();
        run(&args(&["index", manifest_s, corpus.to_str().unwrap()])).unwrap();
        let shard = dir.join("live.base0.0.gksix");
        let bytes = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &bytes[..bytes.len() / 2]).unwrap();
        let err = run(&args(&["doctor", manifest_s])).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);
        assert!(err.message.contains("1 manifest violation(s) found"), "{}", err.message);
        assert!(err.message.contains("does not open"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_loadgen_flag_validation() {
        assert_eq!(run(&args(&["serve"])).unwrap_err().code, 2, "no index at all");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--bogus"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown serve flag"));
        let err = run(&args(&["serve", "/tmp/x.gksix", "--workers"])).unwrap_err();
        assert_eq!(err.code, 2, "missing flag value");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--deadline-ms", "soon"])).unwrap_err();
        assert_eq!(err.code, 2, "non-numeric flag value");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--slow-ms", "soon"])).unwrap_err();
        assert_eq!(err.code, 2, "non-numeric slow threshold");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--query-log"])).unwrap_err();
        assert_eq!(err.code, 2, "missing log path");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--index", "noequals"])).unwrap_err();
        assert_eq!(err.code, 2, "--index wants NAME=PATH");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--trace-sample", "0"])).unwrap_err();
        assert_eq!(err.code, 2, "sample rate must be >= 1");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--trace-sample", "1/x"])).unwrap_err();
        assert_eq!(err.code, 2, "non-numeric 1/N sample rate");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--watch-interval-ms", "0"])).unwrap_err();
        assert_eq!(err.code, 2, "zero watch interval");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--queue", "0"])).unwrap_err();
        assert_eq!(err.code, 2, "zero queue depth: {}", err.message);
        assert!(err.message.contains("--queue must be > 0"), "{}", err.message);
        let err = run(&args(&["serve", "/tmp/x.gksix", "--compact-threshold"])).unwrap_err();
        assert_eq!(err.code, 2, "missing compact threshold");
        let err =
            run(&args(&["serve", "/tmp/x.gksix", "--compact-threshold", "soon"])).unwrap_err();
        assert_eq!(err.code, 2, "non-numeric compact threshold");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--watch", "--compact-threshold", "0"]))
            .unwrap_err();
        assert_eq!(err.code, 2, "zero compact threshold");
        let err = run(&args(&["serve", "/tmp/x.gksix", "--compact-threshold", "2"])).unwrap_err();
        assert_eq!(err.code, 2, "a compact threshold without --watch");
        assert!(err.message.contains("needs --watch"), "{}", err.message);
        // A catalog made only of --index flags (no positional) is accepted
        // at parse time; a missing file is then a runtime (load) error.
        let err = run(&args(&["serve", "--index", "a=/no/such.gksix"])).unwrap_err();
        assert_eq!(err.code, 1, "parse passed, load failed");
        // Same for a comma-separated shard list: spec parses, load fails.
        let err = run(&args(&["serve", "--index", "a=/no/1.gksix,/no/2.gksix"])).unwrap_err();
        assert_eq!(err.code, 1, "shard list parsed, load failed");

        assert_eq!(parse_trace_sample("1"), Some(1));
        assert_eq!(parse_trace_sample("16"), Some(16));
        assert_eq!(parse_trace_sample("1/8"), Some(8));
        assert_eq!(parse_trace_sample("1/0"), None);
        assert_eq!(parse_trace_sample("0"), None);
        assert_eq!(parse_trace_sample("2/3"), None);

        assert_eq!(run(&args(&["loadgen"])).unwrap_err().code, 2);
        let err = run(&args(&["loadgen", "not-an-addr", "/tmp/w.txt"])).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run(&args(&["loadgen", "127.0.0.1:1", "/no/such/workload.txt"])).unwrap_err();
        assert_eq!(err.code, 1, "unreadable workload is a runtime error");
        // Open-loop pacing needs both halves of the flag pair and a
        // positive rate; these all fail before touching the network.
        let err = run(&args(&["loadgen", "127.0.0.1:1", "/tmp/w.txt", "--open-loop"])).unwrap_err();
        assert_eq!(err.code, 2, "--open-loop without --rate");
        let err =
            run(&args(&["loadgen", "127.0.0.1:1", "/tmp/w.txt", "--rate", "50"])).unwrap_err();
        assert_eq!(err.code, 2, "--rate without --open-loop");
        let err =
            run(&args(&["loadgen", "127.0.0.1:1", "/tmp/w.txt", "--open-loop", "--rate", "0"]))
                .unwrap_err();
        assert_eq!(err.code, 2, "zero rate");
        let err = run(&args(&[
            "loadgen",
            "127.0.0.1:1",
            "/tmp/w.txt",
            "--open-loop",
            "--rate",
            "fast",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2, "non-numeric rate");
        let err =
            run(&args(&["loadgen", "127.0.0.1:1", "/tmp/w.txt", "--index", "a=0"])).unwrap_err();
        assert_eq!(err.code, 2, "zero traffic weight");

        // The usage text must list every subcommand (satellite: docs drift).
        for sub in [
            "index", "search", "suggest", "census", "schema", "info", "doctor", "watch", "compact",
            "generate", "repl", "serve", "loadgen",
        ] {
            assert!(USAGE.contains(&format!("gks {sub} ")), "USAGE missing {sub}");
        }
        for flag in [
            "--trace",
            "--query-log",
            "--slow-log",
            "--slow-ms",
            "--trace-sample",
            "--no-trace",
            "--open-loop",
            "--rate",
            "--index",
            "--default-index",
            "--shards",
            "--watch",
            "--watch-interval-ms",
            "--compact-threshold",
            "--interval-ms",
            "--once",
            "--max-connections",
            "--idle-timeout-ms",
            "--keep-alive",
            "--connections",
            "--slow-clients",
        ] {
            assert!(USAGE.contains(flag), "USAGE missing {flag}");
        }
        assert!(USAGE.contains("EXIT CODES"));
    }

    #[test]
    fn missing_files_produce_runtime_errors() {
        let err = run(&args(&["info", "/no/such/file.gksix"])).unwrap_err();
        assert_eq!(err.code, 1);
        let err = run(&args(&["index", "/tmp/x.gksix", "/no/such.xml"])).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn bad_options_produce_usage_errors() {
        assert_eq!(run(&args(&["search"])).unwrap_err().code, 2);
        assert_eq!(run(&args(&["generate", "bogus", "5", "/tmp/x"])).unwrap_err().code, 2);
        assert_eq!(run(&args(&["generate", "dblp", "NaN", "/tmp/x"])).unwrap_err().code, 2);
        assert_eq!(run(&args(&["census"])).unwrap_err().code, 2);
        // There is one on-disk layout and no flag to pick another.
        let err =
            run(&args(&["index", "--format", "v2", "/tmp/x.gksix", "/tmp/x.xml"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown index flag \"--format\""), "{}", err.message);
    }
}
