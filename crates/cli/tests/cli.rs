//! The `gks` command surface, driven through [`gks_cli::run`] and
//! [`gks_cli::repl_loop`]: output, exit codes and the `USAGE` text.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_cli::{repl_loop, run, USAGE};
use gks_core::engine::Engine;
use gks_index::{GksIndex, ShardManifest};

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

    let out = run(&args(&["search", ix_s, "--json", "--explain", "keyword", "search"])).unwrap();
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
    assert!(!out.contains("warning"), "{out}");
    let manifest = ShardManifest::load(&manifest_path).unwrap();
    assert_eq!(manifest.shards.len(), 2);
    assert_eq!(manifest.doc_count(), 2);
    // The shared base-shard writer: base-set names and a real commit time.
    assert_eq!(manifest.shards[1].path, dir.join("corpus.base0.1.gksix"));
    assert!(manifest.committed_ms > 0, "file-list manifests record when they were built");
    let out = run(&args(&["doctor", manifest_path.to_str().unwrap()])).unwrap();
    assert!(out.contains("manifest is healthy"), "{out}");
    // Every shard file exists and is a healthy index.
    for entry in &manifest.shards {
        let path = dir.join(&entry.path);
        assert!(path.exists(), "missing shard file {}", path.display());
        run(&args(&["doctor", path.to_str().unwrap()])).unwrap();
    }

    // Shard flag validation.
    assert_eq!(run(&args(&["index", "--shards"])).unwrap_err().code, 2, "missing value");
    let err = run(&args(&["index", "--shards", "0", "/tmp/x", "/tmp/y.xml"])).unwrap_err();
    assert_eq!(err.code, 2, "zero shards");
    let err = run(&args(&["index", "--shards", "x", "/tmp/x", "/tmp/y.xml"])).unwrap_err();
    assert_eq!(err.code, 2, "non-numeric shards");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--shards N` over fewer than N documents writes one shard per document,
/// says so, and still succeeds — in the file-list and the directory form.
#[test]
fn more_shards_than_documents_warns_and_succeeds() {
    let dir = tmpdir().join("shard-shortfall");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let xml = corpus.join("a.xml");
    std::fs::write(&xml, "<r><x>alpha</x></r>").unwrap();
    let manifest = dir.join("files.shards");
    let out = run(&args(&[
        "index",
        "--shards",
        "4",
        manifest.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]))
    .unwrap();
    let warning = "warning: --shards 4 requested but 1 shard(s) written: the corpus has 1 \
                   document(s)";
    assert!(out.contains(warning), "{out}");
    assert_eq!(ShardManifest::load(&manifest).unwrap().shards.len(), 1);

    std::fs::write(corpus.join("b.xml"), "<r><x>beta</x></r>").unwrap();
    let live = dir.join("live.shards");
    let out = run(&args(&[
        "index",
        "--shards",
        "3",
        live.to_str().unwrap(),
        corpus.to_str().unwrap(),
    ]))
    .unwrap();
    let warning = "warning: --shards 3 requested but 2 shard(s) written: the corpus has 2 \
                   document(s)";
    assert!(out.contains(warning), "{out}");
    assert_eq!(ShardManifest::load(&live).unwrap().shards.len(), 2);
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
    let out = run(&args(&["watch", &manifest_s, "--once", "--compact-threshold", "1"])).unwrap();
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

/// A term of two blocks whose second skip entry no longer points past the
/// first block's gaps: the run parses (open reads no posting block) and
/// fails only when a query decodes it. The search names the term as a corrupt
/// index, `/search` answers 500, the doctor reports the run, and a query
/// on another term still answers.
#[test]
fn a_run_that_fails_to_decode_is_a_corrupt_index_not_a_missing_keyword() {
    let dir = tmpdir().join("corrupt-run");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("list.xml");
    let items: String = (0..130).map(|_| "<item>zzz</item>").collect();
    std::fs::write(&xml, format!("<list>{items}</list>")).unwrap();
    let ix = dir.join("list.gksix");
    let ix_s = ix.to_str().unwrap();
    run(&args(&["index", ix_s, xml.to_str().unwrap()])).unwrap();

    // "zzz" sorts last, so its run is the last in the file: rows 1 to 130,
    // the second block holding 129 and 130. Its skip entry (first row 129,
    // offset 127) is the last occurrence of these bytes; offset 127 becomes
    // 126, one gap short of the first block's.
    let mut bytes = std::fs::read(&ix).unwrap();
    let skip = [0x81, 0x01, 0x7f, 0x01, 0x01];
    let at = bytes.windows(skip.len()).rposition(|w| w == skip).unwrap();
    bytes[at + 2] = 0x7e;
    std::fs::write(&ix, &bytes).unwrap();

    let err = run(&args(&["search", ix_s, "zzz"])).unwrap_err();
    assert_eq!(err.code, 1, "{}", err.message);
    assert!(
        err.message.contains("\"zzz\"") && err.message.contains("corrupt"),
        "{}",
        err.message
    );
    let out = run(&args(&["search", ix_s, "item"])).unwrap();
    assert!(out.contains("hit(s):"), "{out}");

    let engine = Engine::from_index(GksIndex::load(&ix).unwrap());
    let query = gks_core::Query::parse("zzz").unwrap();
    let corrupt = engine.search(&query, gks_core::SearchOptions::default());
    assert!(
        matches!(&corrupt, Err(gks_core::QueryError::CorruptIndex { term }) if term == "zzz"),
        "{corrupt:?}"
    );
    let config = gks_server::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..gks_server::ServeConfig::default()
    };
    let server = gks_server::serve(std::sync::Arc::new(engine), config).unwrap();
    let timeout = std::time::Duration::from_secs(10);
    let get = |target: &str| gks_server::client::http_get(server.local_addr(), target, timeout);
    assert_eq!(get("/search?q=zzz").unwrap().status, 500);
    assert_eq!(get("/search?q=item").unwrap().status, 200);
    server.shutdown();

    let err = run(&args(&["doctor", ix_s])).unwrap_err();
    assert!(err.message.contains("a posting run failed to decode"), "{}", err.message);
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
    assert!(err.message.contains("queue must be > 0"), "{}", err.message);
    let err = run(&args(&["serve", "/tmp/x.gksix", "--compact-threshold"])).unwrap_err();
    assert_eq!(err.code, 2, "missing compact threshold");
    let err = run(&args(&["serve", "/tmp/x.gksix", "--compact-threshold", "soon"])).unwrap_err();
    assert_eq!(err.code, 2, "non-numeric compact threshold");
    let err =
        run(&args(&["serve", "/tmp/x.gksix", "--watch", "--compact-threshold", "0"])).unwrap_err();
    assert_eq!(err.code, 2, "zero compact threshold");
    let err = run(&args(&["serve", "/tmp/x.gksix", "--compact-threshold", "2"])).unwrap_err();
    assert_eq!(err.code, 2, "a compact threshold without --watch");
    assert!(err.message.contains("needs a watch interval"), "{}", err.message);
    // `serve_catalog` holds every rule on the configured values; each
    // configuration it refuses is a usage error.
    let err = run(&args(&["serve", "/tmp/x.gksix", "--workers", "0"])).unwrap_err();
    assert_eq!(err.code, 2, "zero workers: {}", err.message);
    let err = run(&args(&["serve", "/tmp/x.gksix", "--max-connections", "0"])).unwrap_err();
    assert_eq!(err.code, 2, "zero connection cap: {}", err.message);
    let huge = (usize::MAX / (1024 * 1024) + 1).to_string();
    let err = run(&args(&["serve", "/tmp/x.gksix", "--cache-mb", &huge])).unwrap_err();
    assert_eq!(err.code, 2, "cache bytes overflow: {}", err.message);
    // A catalog made only of --index flags (no positional) is accepted
    // at parse time; a missing file is then a runtime (load) error.
    let err = run(&args(&["serve", "--index", "a=/no/such.gksix"])).unwrap_err();
    assert_eq!(err.code, 1, "parse passed, load failed");
    // Same for a comma-separated shard list: spec parses, load fails.
    let err = run(&args(&["serve", "--index", "a=/no/1.gksix,/no/2.gksix"])).unwrap_err();
    assert_eq!(err.code, 1, "shard list parsed, load failed");

    assert_eq!(run(&args(&["loadgen"])).unwrap_err().code, 2);
    let err = run(&args(&["loadgen", "not-an-addr", "/tmp/w.txt"])).unwrap_err();
    assert_eq!(err.code, 2);
    let err = run(&args(&["loadgen", "127.0.0.1:1", "/no/such/workload.txt"])).unwrap_err();
    assert_eq!(err.code, 1, "unreadable workload is a runtime error");
    // Open-loop pacing needs both halves of the flag pair and a
    // positive rate; these all fail before touching the network.
    let err = run(&args(&["loadgen", "127.0.0.1:1", "/tmp/w.txt", "--open-loop"])).unwrap_err();
    assert_eq!(err.code, 2, "--open-loop without --rate");
    let err = run(&args(&["loadgen", "127.0.0.1:1", "/tmp/w.txt", "--rate", "50"])).unwrap_err();
    assert_eq!(err.code, 2, "--rate without --open-loop");
    let err = run(&args(&["loadgen", "127.0.0.1:1", "/tmp/w.txt", "--open-loop", "--rate", "0"]))
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
    let err = run(&args(&["loadgen", "127.0.0.1:1", "/tmp/w.txt", "--index", "a=0"])).unwrap_err();
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
fn serve_refuses_a_default_index_outside_the_catalog() {
    let dir = tmpdir().join("default-index");
    std::fs::create_dir_all(&dir).unwrap();
    let (xml, ix) = (dir.join("d.xml"), dir.join("d.gksix"));
    std::fs::write(&xml, "<r><x>alpha</x></r>").unwrap();
    run(&args(&["index", ix.to_str().unwrap(), xml.to_str().unwrap()])).unwrap();
    let argv = [
        "serve",
        ix.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--default-index",
        "nosuch",
    ];
    let err = run(&args(&argv)).unwrap_err();
    assert_eq!(err.code, 2, "{}", err.message);
    assert!(err.message.contains("\"nosuch\" is not in the catalog"), "{}", err.message);
    std::fs::remove_dir_all(&dir).ok();
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
    // Unknown flags are usage errors, not query keywords or file names,
    // and they are caught before any file is opened.
    for (argv, flag) in [
        (&["search", "ix", "--limt", "5", "x"][..], "--limt"),
        (&["suggest", "ix", "--di", "x"][..], "--di"),
        (&["census", "--bogus", "f.xml"][..], "--bogus"),
    ] {
        let err = run(&args(argv)).unwrap_err();
        assert_eq!(err.code, 2, "{argv:?}: {}", err.message);
        assert!(err.message.contains(&format!("flag \"{flag}\"")), "{}", err.message);
    }
    // The rule `/search` applies to `limit`.
    let err = run(&args(&["search", "ix", "--limit", "0", "x"])).unwrap_err();
    assert_eq!(err.code, 2, "{}", err.message);
    // There is one on-disk layout and no flag to pick another.
    let err = run(&args(&["index", "--format", "v2", "/tmp/x.gksix", "/tmp/x.xml"])).unwrap_err();
    assert_eq!(err.code, 2);
    assert!(err.message.contains("unknown index flag \"--format\""), "{}", err.message);
}
