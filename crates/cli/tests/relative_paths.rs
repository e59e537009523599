//! The manifest tools resolve relative arguments against the working
//! directory, like every other path argument: each case runs the `gks`
//! binary inside a scratch directory with relative paths only.

use std::path::{Path, PathBuf};

use gks_index::{index_directory, IndexOptions, ShardManifest};

/// A scratch directory holding `live/corpus/{a,b}.xml` and, when `indexed`,
/// `live/live.shards` over it, built with absolute paths.
fn scratch(tag: &str, indexed: bool) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gks-relative-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = dir.join("live");
    std::fs::create_dir_all(live.join("corpus")).unwrap();
    std::fs::write(live.join("corpus/a.xml"), "<r><t>apple banana</t></r>").unwrap();
    std::fs::write(live.join("corpus/b.xml"), "<r><t>cherry banana</t></r>").unwrap();
    if indexed {
        let options = IndexOptions::default();
        index_directory(&live.join("corpus"), &live.join("live.shards"), 1, options).unwrap();
    }
    dir
}

/// Runs `gks` in `cwd`: its exit code and stdout + stderr.
fn gks(cwd: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gks"))
        .current_dir(cwd)
        .args(args)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text.into_owned())
}

#[test]
fn doctor_from_the_parent_directory_sees_a_healthy_set() {
    let dir = scratch("parent", true);
    let (code, text) = gks(&dir, &["doctor", "live/live.shards"]);
    assert!(code == Some(0) && text.contains("manifest is healthy"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_on_a_bare_manifest_name_finds_an_orphan() {
    let dir = scratch("bare", true);
    let live = dir.join("live");
    std::fs::copy(live.join("live.base0.0.gksix"), live.join("live.base7.0.gksix")).unwrap();
    let (code, text) = gks(&live, &["doctor", "live.shards"]);
    assert_eq!(code, Some(1), "{text}");
    assert!(
        text.contains("orphaned shard file") && text.contains("live.base7.0.gksix"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_reads_the_corpus_directory_from_the_working_directory() {
    let dir = scratch("index", false);
    let (code, text) = gks(&dir, &["index", "live/live.shards", "live/corpus"]);
    assert_eq!(code, Some(0), "{text}");
    // Stored relative to the manifest, so the pair moves as one directory
    // and the update path reads it back from anywhere.
    let text = std::fs::read_to_string(dir.join("live/live.shards")).unwrap();
    assert_eq!(ShardManifest::parse(&text).unwrap().corpus_dir, Some(PathBuf::from("corpus")));
    std::fs::write(dir.join("live/corpus/c.xml"), "<r><t>durian</t></r>").unwrap();
    let (_, text) = gks(&dir.join("live"), &["watch", "live.shards", "--once"]);
    assert!(text.contains("+1 added"), "{text}");
    assert_eq!(gks(&dir, &["doctor", "live/live.shards"]).0, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}
