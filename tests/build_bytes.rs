//! Golden bytes: one fixed-seed corpus per `ingest` shape must serialize to
//! exactly the file it did when these values were recorded. A change to the
//! builder that is meant to be invisible (a faster build, a different
//! accumulator) keeps every value; a change to the file format or to what is
//! indexed updates them and says so.

use gks_datagen::Dataset;
use gks_index::{Corpus, GksIndex, IndexOptions};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Two documents of one shape, so postings cross a document boundary.
fn file_digest(dataset: Dataset, scale: usize) -> (u64, usize) {
    let corpus = Corpus::from_named_strs([
        ("a", dataset.generate(scale, 11)),
        ("b", dataset.generate(scale, 12)),
    ])
    .unwrap();
    let index = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
    let bytes = index.to_bytes_v3().unwrap();
    (fnv1a(&bytes), bytes.len())
}

fn check(dataset: Dataset, scale: usize, want: (u64, usize)) {
    let got = file_digest(dataset, scale);
    assert_eq!(got, want, "{}: (fnv1a, length) of to_bytes_v3()", dataset.name());
}

#[test]
fn dblp_file_bytes_are_golden() {
    check(Dataset::Dblp, 300, (0xe68b_eb83_dc78_c76c, 170_091));
}

#[test]
fn treebank_file_bytes_are_golden() {
    check(Dataset::TreeBank, 100, (0x2a86_16fd_64e3_9cb4, 76_560));
}

#[test]
fn mondial_file_bytes_are_golden() {
    check(Dataset::Mondial, 16, (0xe38d_9a9d_2ced_2649, 48_011));
}

#[test]
fn swissprot_file_bytes_are_golden() {
    check(Dataset::SwissProt, 60, (0xc2e9_094b_3e4f_f264, 125_945));
}

#[test]
fn nasa_file_bytes_are_golden() {
    check(Dataset::Nasa, 60, (0xdec6_e24c_79c8_da52, 88_964));
}
