//! `gks watch` and `serve --watch` run one update policy
//! (`gks_index::maintain`): the same mutations, driven through the CLI over
//! one corpus directory and through the server's watcher tick over an
//! identical one, leave the two manifests in the same state.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use gks_index::{index_directory, IndexOptions, ShardManifest};
use gks_server::{catalog::IndexSpec, ServeConfig, ServeState};

fn write_doc(corpus: &Path, name: &str, text: &str) {
    std::fs::write(corpus.join(format!("{name}.xml")), format!("<r><t>{text}</t></r>")).unwrap();
}

/// Three documents in `root/corpus`, indexed as two base shards.
fn seed(root: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(root);
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    for (name, text) in [("d0", "apple banana"), ("d1", "banana cherry"), ("d2", "cherry durian")] {
        write_doc(&corpus, name, text);
    }
    let manifest = root.join("live.shards");
    index_directory(&corpus, &manifest, 2, IndexOptions::default()).unwrap();
    manifest
}

/// What the surfaces must agree on: epoch; shard kind, birth and size;
/// document names and hashes; tombstones. Paths and mtimes differ.
type State = (u64, Vec<(&'static str, u64, u32)>, Vec<(String, u64)>, Vec<(u64, u32, String)>);

fn state(manifest: &Path) -> State {
    let m = ShardManifest::load(manifest).unwrap();
    (
        m.epoch,
        m.shards.iter().map(|s| (s.kind.label(), s.born, s.doc_count)).collect(),
        m.docs.iter().map(|d| (d.name.clone(), d.hash)).collect(),
        m.tombstones.iter().map(|t| (t.shard, t.local, t.name.clone())).collect(),
    )
}

#[test]
fn watch_and_the_server_tick_leave_the_same_manifest() {
    let tmp = std::env::temp_dir().join(format!("gks-one-policy-{}", std::process::id()));
    let (cli, server) = (tmp.join("cli"), tmp.join("server"));
    let (cli_manifest, server_manifest) = (seed(&cli), seed(&server));
    let specs = vec![IndexSpec::with_manifest("live", &server_manifest).unwrap()];
    let served = ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap();
    let watch_once =
        ["watch", cli_manifest.to_str().unwrap(), "--once", "--compact-threshold", "2"]
            .map(String::from);

    for label in ["add", "change", "delete"] {
        for corpus in [cli.join("corpus"), server.join("corpus")] {
            match label {
                "add" => write_doc(&corpus, "d3", "elderberry fig"),
                "change" => write_doc(&corpus, "d0", "grape banana"),
                _ => std::fs::remove_file(corpus.join("d1.xml")).unwrap(),
            }
        }
        gks_cli::run(&watch_once).unwrap_or_else(|e| panic!("{label}: {}", e.message));
        served.catalog().default_index().maintain(Some(2)).unwrap();
        assert_eq!(state(&cli_manifest), state(&server_manifest), "after the {label} tick");
    }
    // Both steps ran: the change tick reached two delta shards and folded
    // them (epoch 3); the delete tick committed a tombstone on top (epoch 4).
    let (epoch, shards, docs, tombstones) = state(&cli_manifest);
    assert_eq!((epoch, shards), (4, vec![("base", 3, 2), ("base", 3, 2)]));
    assert_eq!((docs.len(), tombstones.len()), (3, 1));
    std::fs::remove_dir_all(&tmp).ok();
}
