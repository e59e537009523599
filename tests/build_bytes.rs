//! Golden bytes: one fixed-seed corpus per `ingest` shape must serialize to
//! exactly the file it did when these values were recorded. A change to the
//! builder that is meant to be invisible (a faster build, a different
//! accumulator) keeps every value; a change to the file format or to what is
//! indexed updates them and says so.
//!
//! Beside the whole file, two spans are pinned on their own, found through
//! the footer's section offsets: labels through the attribute store, and the
//! posting tier (term dictionary, offset table, runs). They last changed
//! with what is indexed, not with the document or stats sections around
//! them; file version 9 changed those two sections and kept both spans.

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
/// and the checksum (u64 big-endian each), then the four-byte tail magic.
const FOOTER_LEN: usize = 11 * 8 + 4;

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
        (0x8f13_4a61_81a7_7ad5, 170_094),
        (0xe0e3_10cd_19ea_8dc5, 0x8434_bc21_1cfe_88a7),
    );
}

#[test]
fn treebank_file_bytes_are_golden() {
    check(
        Dataset::TreeBank,
        100,
        (0x8e4e_b3e0_b189_f030, 76_563),
        (0x9432_e760_b047_8ff7, 0xf487_8c07_45d0_eb95),
    );
}

#[test]
fn mondial_file_bytes_are_golden() {
    check(
        Dataset::Mondial,
        16,
        (0x0cbc_2dc5_72aa_1332, 48_014),
        (0xd7ad_4fc8_8428_1421, 0x09d2_dcb7_3519_af59),
    );
}

#[test]
fn swissprot_file_bytes_are_golden() {
    check(
        Dataset::SwissProt,
        60,
        (0x7938_d271_848c_c984, 125_948),
        (0xfedd_3c90_bba0_8f6c, 0xe3b8_53ae_94e0_f8b4),
    );
}

#[test]
fn nasa_file_bytes_are_golden() {
    check(
        Dataset::Nasa,
        60,
        (0xbe1c_5bb5_30e5_0a36, 88_967),
        (0x53a0_9fde_f5ea_221f, 0xbc97_e429_ba64_6a1d),
    );
}
