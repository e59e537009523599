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
fn file_digest(dataset: Dataset, scale: usize, options: IndexOptions) -> (u64, usize) {
    let corpus = Corpus::from_named_strs([
        ("a", dataset.generate(scale, 11)),
        ("b", dataset.generate(scale, 12)),
    ])
    .unwrap();
    let index = GksIndex::build(&corpus, options).unwrap();
    let bytes = index.to_bytes_v3().unwrap();
    (fnv1a(&bytes), bytes.len())
}

fn check(dataset: Dataset, scale: usize, want: (u64, usize)) {
    let got = file_digest(dataset, scale, IndexOptions::default());
    assert_eq!(got, want, "{}: (fnv1a, length) of to_bytes_v3()", dataset.name());
}

#[test]
fn dblp_file_bytes_are_golden() {
    check(Dataset::Dblp, 300, (0xd99a_245e_ec0d_85e7, 170_094));
}

#[test]
fn treebank_file_bytes_are_golden() {
    check(Dataset::TreeBank, 100, (0xde0b_1862_f66a_ca32, 76_563));
}

#[test]
fn mondial_file_bytes_are_golden() {
    check(Dataset::Mondial, 16, (0x3e7d_89f9_5acf_7895, 48_014));
}

#[test]
fn swissprot_file_bytes_are_golden() {
    check(Dataset::SwissProt, 60, (0x543a_4df0_6bf7_12dd, 125_948));
}

#[test]
fn nasa_file_bytes_are_golden() {
    check(Dataset::Nasa, 60, (0x7d2c_c3c9_dc62_2e5d, 88_967));
}

#[test]
fn mondial_without_names_or_lifted_attributes_is_golden() {
    let options = IndexOptions {
        index_element_names: false,
        xml_attributes_as_elements: false,
        ..Default::default()
    };
    assert_eq!(file_digest(Dataset::Mondial, 16, options), (0x6589_46a5_58da_de6d, 25_931));
}
