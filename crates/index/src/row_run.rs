//! The posting run codec: one term's postings as sorted node-table rows.
//!
//! A posting is its node's pre-order ordinal, which is the node's row, so a
//! run is a sorted list of `u32`s. It is cut into [`BLOCK_SIZE`]-posting
//! blocks. Each block has one skip entry, its first row and the byte offset
//! of its gaps, and holds the LEB128 gap from each row to the next:
//!
//! * a one-block run is the first row, then the gaps;
//! * a longer run is every block's skip entry (first row, offset), then the
//!   blocks' gaps back to back.
//!
//! The run carries no framing of its own: its posting count sits in the term
//! dictionary and its byte extent is the gap to the next term's run, so an
//! empty run is zero bytes and a one-posting run is one varint. Gaps wrap
//! modulo 2^32, so every list of rows round-trips; whether the rows
//! increase and name real nodes is for the reader to check (the posting
//! fetch refuses such a run, the doctor reports it).

use gks_dewey::codec::{read_varint, write_varint, DecodeError};

/// Postings per block: as in the Dewey codec, a skip entry per 128
/// postings costs about 2 % of a run.
pub(crate) const BLOCK_SIZE: usize = 128;

/// One block's skip entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowSkip {
    /// The block's first row.
    pub first: u32,
    /// Where the block's gaps start in the gap region.
    pub offset: usize,
}

/// Bytes of `value` as LEB128.
fn varint_len(value: u32) -> usize {
    (32 - value.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Appends `rows` as one run.
pub(crate) fn encode_row_run(rows: &[u32], out: &mut Vec<u8>) {
    let blocks = rows.chunks(BLOCK_SIZE);
    if blocks.len() > 1 {
        let mut offset = 0;
        for block in blocks.clone() {
            write_varint(out, u64::from(block[0]));
            write_varint(out, offset as u64);
            offset += block.windows(2).map(|w| varint_len(w[1].wrapping_sub(w[0]))).sum::<usize>();
        }
    } else if let Some(&first) = rows.first() {
        write_varint(out, u64::from(first));
    }
    for block in blocks {
        for w in block.windows(2) {
            write_varint(out, u64::from(w[1].wrapping_sub(w[0])));
        }
    }
}

/// A varint that must fit a `u32`.
fn read_u32(input: &mut &[u8]) -> Result<u32, DecodeError> {
    u32::try_from(read_varint(input)?).map_err(|_| DecodeError::VarintOverflow)
}

/// A gap: one byte for any gap under 128, the common case, else a varint.
#[inline]
fn read_gap(input: &mut &[u8]) -> Result<u32, DecodeError> {
    match input.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *input = rest;
            Ok(u32::from(byte))
        }
        _ => read_u32(input),
    }
}

/// A parsed run: its skip entries read, its gaps borrowed and not yet
/// decoded.
#[derive(Debug)]
pub(crate) struct RowRunReader<'a> {
    count: usize,
    skips: Vec<RowSkip>,
    gaps: &'a [u8],
}

impl<'a> RowRunReader<'a> {
    /// Parses a run of `count` postings that fills all of `run`. Reads the
    /// skip entries only, and refuses offsets that do not start at 0, fall
    /// back or run past the gaps.
    pub(crate) fn parse(mut run: &'a [u8], count: usize) -> Result<Self, DecodeError> {
        let blocks = count.div_ceil(BLOCK_SIZE);
        // Every skip entry takes a byte at least, so a count that a corrupt
        // dictionary inflated reserves no more than the run's size.
        let mut skips = Vec::with_capacity(blocks.min(run.len()));
        for _ in 0..blocks {
            let first = read_u32(&mut run)?;
            let offset = if blocks == 1 {
                0
            } else {
                read_u32(&mut run)? as usize
            };
            if offset < skips.last().map_or(0, |s: &RowSkip| s.offset) {
                return Err(DecodeError::BadBlockLayout("skip offsets fall back"));
            }
            if skips.is_empty() && offset != 0 {
                return Err(DecodeError::BadBlockLayout("first block not at offset 0"));
            }
            skips.push(RowSkip { first, offset });
        }
        if skips.last().map_or(!run.is_empty(), |last| last.offset > run.len()) {
            return Err(DecodeError::BadBlockLayout("run bytes past its blocks"));
        }
        Ok(RowRunReader { count, skips, gaps: run })
    }

    /// The skip entries, one per block.
    pub(crate) fn skips(&self) -> &[RowSkip] {
        &self.skips
    }

    /// Appends block `i`'s rows to `out`. The block's gaps must end exactly
    /// where the next block's start.
    pub(crate) fn decode_block(&self, i: usize, out: &mut Vec<u32>) -> Result<(), DecodeError> {
        let Some(skip) = self.skips.get(i) else {
            return Err(DecodeError::BadBlockLayout("no such block"));
        };
        let end = self.skips.get(i + 1).map_or(self.gaps.len(), |next| next.offset);
        let mut input = self.gaps.get(skip.offset..end).unwrap_or_default();
        let len = BLOCK_SIZE.min(self.count - i * BLOCK_SIZE);
        let mut row = skip.first;
        out.push(row);
        for _ in 1..len {
            row = row.wrapping_add(read_gap(&mut input)?);
            out.push(row);
        }
        if !input.is_empty() {
            return Err(DecodeError::BadBlockLayout("block bytes past its last gap"));
        }
        Ok(())
    }

    /// Appends every row of the run to `out`.
    pub(crate) fn decode_rows(&self, out: &mut Vec<u32>) -> Result<(), DecodeError> {
        // Each posting past a block's first takes a gap byte at least.
        out.reserve(self.count.min(self.gaps.len() + self.skips.len()));
        (0..self.skips.len()).try_for_each(|i| self.decode_block(i, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encoded(rows: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_row_run(rows, &mut out);
        out
    }

    /// The rows of `run`, a run of `count` postings.
    fn decoded(run: &[u8], count: usize) -> Result<Vec<u32>, DecodeError> {
        let mut rows = Vec::new();
        RowRunReader::parse(run, count)?.decode_rows(&mut rows)?;
        Ok(rows)
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        for v in [0, 1, 127, 128, 16_383, 16_384, 1 << 21, (1 << 28) - 1, 1 << 28, u32::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, u64::from(v));
            assert_eq!(varint_len(v), out.len(), "{v}");
        }
    }

    #[test]
    fn a_run_is_its_skip_entries_then_its_gaps() {
        // One posting is one varint; a one-block run stores no offset.
        assert_eq!(encoded(&[5]), [5]);
        assert_eq!(encoded(&[5, 6, 300]), [5, 1, 0xa6, 0x02]);
        // Two blocks: (first row, offset) each, then the first block's 127
        // one-byte gaps and the second block's one.
        let rows: Vec<u32> = (1..=130).collect();
        let run = encoded(&rows);
        assert_eq!(run[..5], [1, 0, 0x81, 0x01, 127]);
        assert_eq!(run[5..], [1; 128]);
    }

    #[test]
    fn falling_and_extreme_rows_round_trip() {
        let rows = [0, 1 << 21, (1 << 21) + 1, u32::MAX - 1, u32::MAX, 7, 7];
        assert_eq!(decoded(&encoded(&rows), rows.len()), Ok(rows.to_vec()));
    }

    #[test]
    fn corrupt_layouts_are_errors() {
        let rows: Vec<u32> = (0..300).collect();
        let run = encoded(&rows);
        // An empty run with bytes, a count that outruns the bytes, and one
        // that leaves some over.
        assert!(RowRunReader::parse(&[0], 0).is_err());
        assert!(decoded(&run, 301).is_err());
        assert!(decoded(&run, 299).is_err());
        // A varint past 32 bits.
        let mut wide = Vec::new();
        write_varint(&mut wide, 1 << 32);
        assert_eq!(decoded(&wide, 1), Err(DecodeError::VarintOverflow));
        // Offsets that start late or fall back.
        let mut late = Vec::new();
        for (first, offset) in [(0u64, 1u64), (128, 128)] {
            write_varint(&mut late, first);
            write_varint(&mut late, offset);
        }
        late.extend([1; 200]);
        assert!(RowRunReader::parse(&late, 200).is_err());
        let mut back = Vec::new();
        for (first, offset) in [(0u64, 0u64), (128, 127), (256, 126)] {
            write_varint(&mut back, first);
            write_varint(&mut back, offset);
        }
        back.extend([1; 300]);
        assert!(RowRunReader::parse(&back, 300).is_err());
    }

    /// A sorted run of `len` distinct rows, gaps drawn from `widths`.
    fn random_rows(seed: u64, len: usize, widths: &[u32]) -> Vec<u32> {
        let mut rng = proptest::TestRng::deterministic(&seed.to_string());
        let mut row = 0u32;
        (0..len)
            .map_while(|k| {
                let width = widths[rng.below(widths.len())];
                let gap = 1 + rng.below(width as usize) as u32;
                row = if k == 0 {
                    gap - 1
                } else {
                    row.checked_add(gap)?
                };
                Some(row)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any run round-trips with a skip entry per block at the block's
        /// first row; every truncation of it is an error, and every flipped
        /// byte reads as an error or as some list, never a panic.
        #[test]
        fn runs_round_trip_and_damage_never_panics(
            seed in 0u64..u64::MAX,
            len in prop::sample::select(vec![0usize, 1, 2, 127, 128, 129, 300]),
            wide in 0usize..3,
            mask in 1u8..=255,
        ) {
            let widths: &[u32] = [&[3u32][..], &[200, 20_000], &[1 << 22, 2, 1 << 30]][wide];
            let rows = random_rows(seed, len, widths);
            let run = encoded(&rows);
            prop_assert_eq!(decoded(&run, rows.len()), Ok(rows.clone()));
            let reader = RowRunReader::parse(&run, rows.len()).unwrap();
            prop_assert_eq!(reader.skips().len(), rows.len().div_ceil(BLOCK_SIZE));
            for (i, skip) in reader.skips().iter().enumerate() {
                prop_assert_eq!(skip.first, rows[i * BLOCK_SIZE]);
            }
            for at in 0..run.len() {
                prop_assert!(decoded(&run[..at], rows.len()).is_err());
                let mut flipped = run.clone();
                flipped[at] ^= mask;
                let _ = decoded(&flipped, rows.len());
            }
        }
    }
}
