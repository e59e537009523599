//! Golden bytes: one fixed-seed corpus per `ingest` shape must serialize to
//! exactly the file it did when these values were recorded. A change to the
//! builder that is meant to be invisible (a faster build, a different
//! accumulator) keeps every value; a change to the file format or to what is
//! indexed updates them and says so.
//!
//! Beside the whole file, two spans are pinned on their own, found through
//! the footer's section offsets: labels through the attribute store, and the
//! posting tier (term dictionary, offset table, runs). The posting tier
//! last changed with what is indexed; file version 9 changed the document
//! and stats sections and kept both spans, and file version 10 stored node
//! depths and entity rows instead of Dewey ids and added a footer checksum,
//! which moved the labels-through-attributes span and kept the posting
//! tier's. File version 11 stored each posting as its node-table row in
//! LEB128 gaps instead of its Dewey id, which moved the posting tier and
//! kept the labels-through-attributes span.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_datagen::Dataset;
use gks_index::{Corpus, GksIndex, IndexOptions};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Footer bytes: eight section offsets, the term count, the file length
/// and the two checksums (u64 big-endian each), then the four-byte tail
/// magic.
const FOOTER_LEN: usize = 12 * 8 + 4;

/// The section offsets the footer of `bytes` records, in file order: doc
/// names, labels, node table, attribute store, stats, term dictionary, term
/// offset table, postings.
fn section_offsets(bytes: &[u8]) -> [usize; 8] {
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    let mut offsets = [0usize; 8];
    for (i, slot) in offsets.iter_mut().enumerate() {
        let field: [u8; 8] = footer[i * 8..i * 8 + 8].try_into().unwrap();
        *slot = u64::from_be_bytes(field) as usize;
    }
    offsets
}

/// Two documents of one shape, so postings cross a document boundary: the
/// file's (fnv1a, length), and the fnv1a of its labels-through-attributes
/// span and of its posting tier.
fn file_digest(dataset: Dataset, scale: usize) -> ((u64, usize), (u64, u64)) {
    let corpus = Corpus::from_named_strs([
        ("a", dataset.generate(scale, 11)),
        ("b", dataset.generate(scale, 12)),
    ])
    .unwrap();
    let index = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
    let bytes = index.to_bytes_v3().unwrap();
    let [_, labels, _, _, stats, dict, _, _] = section_offsets(&bytes);
    let tier = &bytes[dict..bytes.len() - FOOTER_LEN];
    ((fnv1a(&bytes), bytes.len()), (fnv1a(&bytes[labels..stats]), fnv1a(tier)))
}

fn check(dataset: Dataset, scale: usize, file: (u64, usize), spans: (u64, u64)) {
    let (got_file, got_spans) = file_digest(dataset, scale);
    assert_eq!(got_file, file, "{}: (fnv1a, length) of to_bytes_v3()", dataset.name());
    assert_eq!(got_spans, spans, "{}: fnv1a of the node and posting spans", dataset.name());
}

#[test]
fn dblp_file_bytes_are_golden() {
    check(
        Dataset::Dblp,
        300,
        (0x3d3b_5e45_e265_9b57, 108_487),
        (0xd668_c660_28ef_103b, 0xace1_273f_e5f1_559f),
    );
}

#[test]
fn treebank_file_bytes_are_golden() {
    check(
        Dataset::TreeBank,
        100,
        (0xd428_0c59_b706_01e9, 27_484),
        (0xa771_caa0_2d76_664d, 0x626f_c2cc_53a9_2412),
    );
}

#[test]
fn mondial_file_bytes_are_golden() {
    check(
        Dataset::Mondial,
        16,
        (0x2c36_6a7e_2896_00dd, 28_750),
        (0xb9e6_cc60_e2ff_49f3, 0xdec9_3ae1_4961_762d),
    );
}

#[test]
fn swissprot_file_bytes_are_golden() {
    check(
        Dataset::SwissProt,
        60,
        (0x8b4b_f383_b875_4273, 89_194),
        (0xffb5_dbc6_01f9_7084, 0xe46f_7012_0062_9b5f),
    );
}

#[test]
fn nasa_file_bytes_are_golden() {
    check(
        Dataset::Nasa,
        60,
        (0xd553_e560_d06f_e244, 51_629),
        (0x2742_eebc_5d2e_c1a3, 0xaf7c_6737_8972_a1a5),
    );
}
