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
//! tier's.

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
        (0x302d_3568_8033_06de, 158_362),
        (0xd668_c660_28ef_103b, 0x8434_bc21_1cfe_88a7),
    );
}

#[test]
fn treebank_file_bytes_are_golden() {
    check(
        Dataset::TreeBank,
        100,
        (0xa3e9_21e2_deac_f209, 66_139),
        (0xa771_caa0_2d76_664d, 0xf487_8c07_45d0_eb95),
    );
}

#[test]
fn mondial_file_bytes_are_golden() {
    check(
        Dataset::Mondial,
        16,
        (0x4f38_28eb_0bc9_6dbb, 43_982),
        (0xb9e6_cc60_e2ff_49f3, 0x09d2_dcb7_3519_af59),
    );
}

#[test]
fn swissprot_file_bytes_are_golden() {
    check(
        Dataset::SwissProt,
        60,
        (0x6aeb_1fd2_9c0f_9f50, 117_232),
        (0xffb5_dbc6_01f9_7084, 0xe3b8_53ae_94e0_f8b4),
    );
}

#[test]
fn nasa_file_bytes_are_golden() {
    check(
        Dataset::Nasa,
        60,
        (0x8620_438e_8eba_c5e9, 80_707),
        (0x2742_eebc_5d2e_c1a3, 0xbc97_e429_ba64_6a1d),
    );
}
