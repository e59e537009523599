//! Implementation of the `gks` command-line tool: [`run`] parses one
//! subcommand's arguments, calls the engine, the index tools or the server,
//! and returns the text to print. [`USAGE`] is the reference for every
//! subcommand, flag and exit code. The long-running commands (`serve`,
//! `loadgen`, `watch`) live in `service.rs`.
//!
//! The library form exists so the behaviour is testable; `main` just
//! forwards `std::env::args` and prints.

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::time::Duration;

use gks_core::di::DiOptions;
use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{SearchOptions, Threshold};
use gks_core::wire;
use gks_datagen::Dataset;
use gks_index::{
    audit_manifest, compact, index_corpus, index_directory, is_manifest_file, Corpus, GksIndex,
    IndexOptions, SchemaSummary,
};

mod service;

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
<out> itself; a corpus of fewer than N documents gets one shard per
document, and a warning says so.
`index <out> <corpus-dir>` builds an updatable manifest that records the
corpus directory and per-document content hashes; `gks watch` (or
`serve --watch`) then commits delta shards as the directory changes, and
`gks compact` folds the committed backlog into fresh base shards; it
reads no XML, so an edit not yet committed stays out of the fold until
the next commit picks it up. Both watchers run
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
  2  usage error (unknown command or bad flags, or a serve
     configuration the server refuses)
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
        "watch" => service::cmd_watch(rest),
        "compact" => cmd_compact(rest),
        "generate" => cmd_generate(rest),
        "repl" => cmd_repl(rest),
        "serve" => service::cmd_serve(rest),
        "loadgen" => service::cmd_loadgen(rest),
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

/// Reads the value of `flag` off `it` and parses it; a missing or
/// unparsable value is a usage error.
fn value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CliError> {
    let v = it.next().ok_or_else(|| CliError::usage(format!("{flag} needs a value")))?;
    v.parse().map_err(|_| CliError::usage(format!("bad {flag} value {v:?}")))
}

/// [`value`] for a flag that counts milliseconds.
fn millis(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<Duration, CliError> {
    value(it, flag).map(Duration::from_millis)
}

fn unknown_flag(command: &str, flag: &str) -> CliError {
    CliError::usage(format!("unknown {command} flag {flag:?}"))
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

/// The warning `gks index` adds when `--shards` asked for more shards than
/// it wrote: shards split a corpus by document, so a corpus of fewer
/// documents than requested shards gets one shard per document. Empty when
/// every requested shard was written.
fn shard_shortfall(requested: usize, written: usize, docs: impl std::fmt::Display) -> String {
    if written >= requested {
        return String::new();
    }
    format!(
        "warning: --shards {requested} requested but {written} shard(s) written: the corpus has \
         {docs} document(s), and shards split a corpus by document\n"
    )
}

fn cmd_index(args: &[String]) -> Result<String, CliError> {
    const INDEX_USAGE: &str = "usage: gks index [--shards N] <out.gksix> <file.xml>...";
    let mut shards = 1usize;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                shards = value(&mut it, "--shards")?;
                if shards == 0 {
                    return Err(CliError::usage("--shards must be >= 1"));
                }
            }
            other if other.starts_with("--") => return Err(unknown_flag("index", other)),
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
                 wrote manifest to {out} — keep it fresh with `gks watch {out}`\n{}",
                manifest.docs.len(),
                manifest.shards.len(),
                manifest.epoch,
                shard_shortfall(shards, manifest.shards.len(), manifest.docs.len())
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
        report.push_str(&shard_shortfall(shards, manifest.shards.len(), manifest.doc_count()));
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
                let v: String = value(&mut it, "-s")?;
                s = Threshold::parse(&v)
                    .ok_or_else(|| CliError::usage(format!("bad -s value {v:?}")))?;
            }
            // The rule `/search` applies to `limit`: at least 1.
            "--limit" => limit = value::<NonZeroUsize>(&mut it, "--limit")?.get(),
            "--di" => want_di = true,
            "--analytics" => want_analytics = true,
            "--json" => want_json = true,
            "--trace" => want_trace = true,
            "--explain" => want_explain = true,
            other if other.starts_with("--") => return Err(unknown_flag("search", other)),
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
        let a = engine.analyze(&resp);
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
    let mut want_json = false;
    let mut keywords: Vec<String> = Vec::new();
    for arg in rest {
        match arg.as_str() {
            "--json" => want_json = true,
            other if other.starts_with("--") => return Err(unknown_flag("suggest", other)),
            _ => keywords.push(arg.clone()),
        }
    }
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
    let mut schema = false;
    let mut files: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--schema" => schema = true,
            other if other.starts_with("--") => return Err(unknown_flag("census", other)),
            _ => files.push(arg),
        }
    }
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
                let di = engine.discover_di(&resp, &DiOptions { top_m: 3 });
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
