//! Compact binary codec for Dewey ids and sorted Dewey-id runs.
//!
//! One encoding for standalone ids and one for runs:
//!
//! * [`encode_id`] / [`decode_id`] — a standalone id as LEB128 varints
//!   (document id, path length, then each step).
//! * [`encode_blocked_run`] / [`BlockedRunReader`] — a **delta-prefix**
//!   encoding for a document-ordered run of ids, as stored in posting lists
//!   and the node table. Consecutive Dewey ids share long prefixes (they are
//!   pre-order neighbours), so each entry stores only the number of leading
//!   steps shared with its predecessor plus the fresh suffix; this is what
//!   keeps the on-disk index roughly the size of the input data, as the
//!   paper reports in Table 4. Entries restart every [`BLOCK_SIZE`] ids
//!   behind a skip table (first id, last document id and byte offset per
//!   block), so a reader can decode one block, skip fully-tombstoned blocks,
//!   or count postings without touching the block bytes at all. The
//!   per-entry document flag is folded into the shared-prefix varint (`0`
//!   marks a document change, otherwise the value is `shared + 1`), and the
//!   first entry of a block is always absolute so it carries neither flag
//!   nor shared-prefix field.
//!
//! All integers use unsigned LEB128 ([`write_varint`] / [`read_varint`]).

use bytes::{Buf, BufMut};

use crate::{DeweyId, DocId, Step};

/// Error returned when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// A varint ran past the 32-bit range.
    VarintOverflow,
    /// A shared-prefix length exceeded the previous id's depth.
    BadSharedPrefix { shared: usize, prev_depth: usize },
    /// A blocked run's skip table disagrees with its block bytes.
    BadBlockLayout(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of encoded data"),
            DecodeError::VarintOverflow => write!(f, "varint exceeds 32-bit range"),
            DecodeError::BadSharedPrefix { shared, prev_depth } => {
                write!(f, "shared prefix length {shared} exceeds previous id depth {prev_depth}")
            }
            DecodeError::BadBlockLayout(reason) => {
                write!(f, "inconsistent blocked run: {reason}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `value` as unsigned LEB128.
pub fn write_varint(out: &mut impl BufMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 value, bounded to 64 bits.
pub fn read_varint(input: &mut impl Buf) -> Result<u64, DecodeError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !input.has_remaining() {
            return Err(DecodeError::UnexpectedEof);
        }
        let byte = input.get_u8();
        if shift >= 64 {
            return Err(DecodeError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn read_varint_u32(input: &mut impl Buf) -> Result<u32, DecodeError> {
    let v = read_varint(input)?;
    u32::try_from(v).map_err(|_| DecodeError::VarintOverflow)
}

/// Encodes a standalone Dewey id.
pub fn encode_id(id: &DeweyId, out: &mut impl BufMut) {
    write_varint(out, u64::from(id.doc().0));
    write_varint(out, id.steps().len() as u64);
    for &s in id.steps() {
        write_varint(out, u64::from(s));
    }
}

/// Decodes a standalone Dewey id encoded by [`encode_id`].
pub fn decode_id(input: &mut impl Buf) -> Result<DeweyId, DecodeError> {
    let doc = read_varint_u32(input)?;
    let len = read_varint(input)? as usize;
    DeweyId::try_from_fn(DocId(doc), len, || read_varint_u32(input))
}

/// Cap speculative pre-allocation from untrusted counts: corrupt input can
/// claim any count, so reserve at most this many entries up front.
const MAX_PREALLOC: usize = 1 << 16;

/// Postings per block in a blocked run (format v3). 128 keeps a block a few
/// hundred bytes on DBLP-shaped data: small enough that decoding one block
/// on a point lookup is cheap, large enough that the skip table stays under
/// 1% of the postings bytes.
pub const BLOCK_SIZE: usize = 128;

/// Encodes one block entry. The first entry of a block is absolute: document
/// id, depth, steps. Later entries start with a header varint: `0` means the
/// document changed (absolute form follows), any other value `h` means the
/// entry shares `h - 1` leading steps with its predecessor and is followed by
/// the suffix length and suffix steps. Folding the document flag into the
/// header saves one byte on every same-document entry, and an absolute
/// leader needs no header at all; together they pay for the skip table.
fn encode_block_entry(prev: Option<&DeweyId>, id: &DeweyId, out: &mut impl BufMut) {
    match prev {
        None => write_varint(out, u64::from(id.doc().0)),
        Some(p) if p.doc() != id.doc() => {
            write_varint(out, 0);
            write_varint(out, u64::from(id.doc().0));
        }
        Some(p) => {
            let shared = p.common_prefix_len(id).unwrap_or(0);
            write_varint(out, shared as u64 + 1);
            let suffix = &id.steps()[shared..];
            write_varint(out, suffix.len() as u64);
            for &s in suffix {
                write_varint(out, u64::from(s));
            }
            return;
        }
    }
    write_varint(out, id.steps().len() as u64);
    for &s in id.steps() {
        write_varint(out, u64::from(s));
    }
}

/// Streaming decoder for [`encode_block_entry`] entries; one per block.
struct BlockDecoder {
    doc: DocId,
    prev_steps: Vec<Step>,
    first: bool,
}

impl BlockDecoder {
    fn new() -> Self {
        BlockDecoder { doc: DocId(0), prev_steps: Vec::new(), first: true }
    }

    /// Reads the next entry into `doc` and `prev_steps` without building an
    /// id.
    fn advance(&mut self, input: &mut impl Buf) -> Result<(), DecodeError> {
        let shared = if self.first {
            self.first = false;
            self.doc = DocId(read_varint_u32(input)?);
            self.prev_steps.clear();
            0
        } else {
            let header = read_varint(input)? as usize;
            if header == 0 {
                self.doc = DocId(read_varint_u32(input)?);
                self.prev_steps.clear();
                0
            } else {
                let shared = header - 1;
                if shared > self.prev_steps.len() {
                    return Err(DecodeError::BadSharedPrefix {
                        shared,
                        prev_depth: self.prev_steps.len(),
                    });
                }
                shared
            }
        };
        let suffix_len = read_varint(input)? as usize;
        self.prev_steps.truncate(shared);
        for _ in 0..suffix_len {
            self.prev_steps.push(read_varint_u32(input)?);
        }
        Ok(())
    }
}

/// Skip-table entry describing one block of a blocked run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipEntry {
    /// First Dewey id in the block (stored absolute in the skip table for
    /// multi-block runs, so a block decodes and is checked without its
    /// predecessors; reconstructed from the block leader for single-block
    /// runs).
    pub first: DeweyId,
    /// Document id of the block's last posting. Together with `first.doc()`
    /// this bounds the documents the block can contain.
    pub last_doc: DocId,
    /// Number of postings in the block (implicit on disk: every block holds
    /// [`BLOCK_SIZE`] postings except the last).
    pub count: usize,
    /// Byte offset of the block within the run's blocks region.
    pub offset: usize,
}

/// Encodes a document-ordered run as [`BLOCK_SIZE`]-posting blocks behind a
/// skip table (the format-v3 posting layout).
///
/// The run carries **no framing of its own**: the caller stores the id
/// count and the run's byte extent (for a posting list they live in the
/// term dictionary, so duplicating them here would cost several bytes on
/// every single-posting term). [`BlockedRunReader::parse`] takes the count
/// as a parameter and consumes its entire input slice. An empty run encodes
/// to zero bytes.
///
/// Layout: the skip data, then the concatenated blocks (the rest of the
/// run). The block count is implicit (`total.div_ceil(BLOCK_SIZE)`), as are
/// the per-block posting counts. A multi-block run stores one skip entry per
/// block ([`encode_id`] of the first id, last document id, byte offset); a
/// single-block run stores only the last document id, since its first id is
/// the block leader and its offset is zero. Each block is an
/// [`encode_block_entry`] chain that restarts at the block boundary, so any
/// block decodes independently.
pub fn encode_blocked_run(ids: &[DeweyId], out: &mut impl BufMut) {
    if ids.is_empty() {
        return;
    }
    let mut blocks: Vec<u8> = Vec::new();
    let mut skips: Vec<(&DeweyId, DocId, usize)> = Vec::new();
    for chunk in ids.chunks(BLOCK_SIZE) {
        let offset = blocks.len();
        let mut prev: Option<&DeweyId> = None;
        for id in chunk {
            encode_block_entry(prev, id, &mut blocks);
            prev = Some(id);
        }
        skips.push((&chunk[0], chunk[chunk.len() - 1].doc(), offset));
    }
    if let [(_, last_doc, _)] = skips.as_slice() {
        write_varint(out, u64::from(last_doc.0));
    } else {
        for (first, last_doc, offset) in &skips {
            encode_id(first, out);
            write_varint(out, u64::from(last_doc.0));
            write_varint(out, *offset as u64);
        }
    }
    out.put_slice(&blocks);
}

/// Zero-copy reader over one blocked run produced by [`encode_blocked_run`].
///
/// Parsing reads only the header and skip table; the block bytes themselves
/// are borrowed, not decoded, until [`Self::for_each_in_block`] visits one.
/// That visitor is the one block decoder: [`Self::decode_all`] and
/// [`Self::decode_masked`] are collectors over it.
#[derive(Debug)]
pub struct BlockedRunReader<'a> {
    total: usize,
    skips: Vec<SkipEntry>,
    blocks: &'a [u8],
}

impl<'a> BlockedRunReader<'a> {
    /// Parses a blocked run of `total` postings, consuming **all** of
    /// `input` — the caller delimits the run (in format v3 the byte extent
    /// comes from the term dictionary) and supplies the posting count the
    /// encoder never wrote. Parsing reads the skip table and validates it
    /// against the region bounds; block bytes stay untouched.
    pub fn parse(input: &mut &'a [u8], total: usize) -> Result<Self, DecodeError> {
        if total == 0 {
            if !input.is_empty() {
                return Err(DecodeError::BadBlockLayout("bytes after an empty run"));
            }
            return Ok(BlockedRunReader { total: 0, skips: Vec::new(), blocks: &[] });
        }
        let block_count = total.div_ceil(BLOCK_SIZE);
        let last_count = total - (block_count - 1) * BLOCK_SIZE;
        let mut skips = Vec::with_capacity(block_count.min(MAX_PREALLOC));
        if block_count == 1 {
            let last_doc = DocId(read_varint_u32(input)?);
            let blocks = Self::take_blocks(input)?;
            // The single block's first id is its leader entry; decoding one
            // entry materializes the skip entry without touching the rest.
            let mut peek = blocks;
            let mut leader = BlockDecoder::new();
            leader.advance(&mut peek)?;
            let first = DeweyId::from_slice(leader.doc, &leader.prev_steps);
            if last_doc < first.doc() {
                return Err(DecodeError::BadBlockLayout("block last_doc before first doc"));
            }
            skips.push(SkipEntry { first, last_doc, count: total, offset: 0 });
            return Ok(BlockedRunReader { total, skips, blocks });
        }
        for i in 0..block_count {
            let first = decode_id(input)?;
            let last_doc = DocId(read_varint_u32(input)?);
            let offset = read_varint(input)? as usize;
            if let Some(prev) = skips.last() {
                let prev: &SkipEntry = prev;
                if offset <= prev.offset {
                    return Err(DecodeError::BadBlockLayout("skip offsets not increasing"));
                }
            } else if offset != 0 {
                return Err(DecodeError::BadBlockLayout("first block not at offset 0"));
            }
            if last_doc < first.doc() {
                return Err(DecodeError::BadBlockLayout("block last_doc before first doc"));
            }
            let count = if i + 1 == block_count {
                last_count
            } else {
                BLOCK_SIZE
            };
            skips.push(SkipEntry { first, last_doc, count, offset });
        }
        let blocks = Self::take_blocks(input)?;
        if let Some(last) = skips.last() {
            if last.offset >= blocks.len() {
                return Err(DecodeError::BadBlockLayout("skip offset past blocks region"));
            }
        }
        Ok(BlockedRunReader { total, skips, blocks })
    }

    /// Takes the rest of `input` as the blocks region — the run owns its
    /// whole slice, so everything after the skip data is block bytes.
    fn take_blocks(input: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
        let blocks = *input;
        *input = &[];
        if blocks.is_empty() {
            return Err(DecodeError::BadBlockLayout("empty blocks region"));
        }
        Ok(blocks)
    }

    /// Total postings in the run — known from the header without decoding.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The skip table.
    pub fn skip_entries(&self) -> &[SkipEntry] {
        &self.skips
    }

    fn block_bytes(&self, i: usize) -> &'a [u8] {
        let start = self.skips[i].offset;
        let end = self.skips.get(i + 1).map_or(self.blocks.len(), |s| s.offset);
        &self.blocks[start..end]
    }

    /// Decodes block `i`, handing each entry to `visit` as its document and
    /// steps, in order. No id is built unless `visit` builds one, so a
    /// caller that filters or renumbers pays only for the ids it keeps.
    pub fn for_each_in_block(
        &self,
        i: usize,
        mut visit: impl FnMut(DocId, &[Step]),
    ) -> Result<(), DecodeError> {
        let entry = &self.skips[i];
        let mut input = self.block_bytes(i);
        let mut decoder = BlockDecoder::new();
        let mut first_agrees = false;
        for k in 0..entry.count {
            decoder.advance(&mut input)?;
            if k == 0 {
                first_agrees =
                    decoder.doc == entry.first.doc() && decoder.prev_steps == entry.first.steps();
            }
            visit(decoder.doc, &decoder.prev_steps);
        }
        if !first_agrees {
            return Err(DecodeError::BadBlockLayout("block first id disagrees with skip entry"));
        }
        Ok(())
    }

    /// Decodes the whole run.
    pub fn decode_all(&self) -> Result<Vec<DeweyId>, DecodeError> {
        let mut ids = Vec::with_capacity(self.total.min(MAX_PREALLOC));
        for i in 0..self.skips.len() {
            self.for_each_in_block(i, |doc, steps| ids.push(DeweyId::from_slice(doc, steps)))?;
        }
        Ok(ids)
    }

    /// Decodes the run while masking out postings whose document id appears
    /// in the sorted `dead` list. Blocks that lie entirely within one dead
    /// document are skipped without decoding — their posting counts are
    /// known from the skip table, so the masked tally stays exact.
    ///
    /// Returns the surviving ids and the number of postings masked out.
    pub fn decode_masked(&self, dead: &[u32]) -> Result<(Vec<DeweyId>, u64), DecodeError> {
        let mut ids = Vec::new();
        let mut masked = 0u64;
        for (i, entry) in self.skips.iter().enumerate() {
            if entry.first.doc() == entry.last_doc
                && dead.binary_search(&entry.first.doc().0).is_ok()
            {
                masked += entry.count as u64;
                continue;
            }
            self.for_each_in_block(i, |doc, steps| {
                if dead.binary_search(&doc.0).is_ok() {
                    masked += 1;
                } else {
                    ids.push(DeweyId::from_slice(doc, steps));
                }
            })?;
        }
        Ok((ids, masked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn d(doc: u32, steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(doc), steps.to_vec())
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            write_varint(&mut buf, v);
            let mut slice = buf.freeze();
            assert_eq!(read_varint(&mut slice).unwrap(), v);
            assert!(!slice.has_remaining());
        }
    }

    #[test]
    fn varint_eof_detected() {
        let mut buf = BytesMut::new();
        write_varint(&mut buf, 1u64 << 40);
        let frozen = buf.freeze();
        let mut truncated = frozen.slice(..frozen.len() - 1);
        assert_eq!(read_varint(&mut truncated), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn id_round_trip() {
        for id in [d(0, &[]), d(7, &[0, 1, 2]), d(u32::MAX, &[u32::MAX])] {
            let mut buf = BytesMut::new();
            encode_id(&id, &mut buf);
            let mut slice = buf.freeze();
            assert_eq!(decode_id(&mut slice).unwrap(), id);
        }
    }

    fn blocked_round_trip(ids: &[DeweyId]) {
        let mut buf = BytesMut::new();
        encode_blocked_run(ids, &mut buf);
        let frozen = buf.freeze();
        let mut slice: &[u8] = frozen.as_slice();
        let reader = BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        assert!(slice.is_empty(), "parse must consume the whole run");
        assert_eq!(reader.total(), ids.len());
        assert_eq!(reader.decode_all().unwrap(), ids);
    }

    #[test]
    fn blocked_run_round_trips() {
        blocked_round_trip(&[]);
        blocked_round_trip(&[d(3, &[0, 1, 2])]);
        // Exactly one block, one short of two, and several blocks.
        for n in [128u32, 129, 500] {
            let ids: Vec<_> = (0..n).map(|i| d(i / 40, &[0, 3, i % 40])).collect();
            blocked_round_trip(&ids);
        }
    }

    #[test]
    fn blocked_run_skip_table_bounds_blocks() {
        let ids: Vec<_> = (0..300u32).map(|i| d(i / 100, &[0, i % 100])).collect();
        let mut buf = BytesMut::new();
        encode_blocked_run(&ids, &mut buf);
        let frozen = buf.freeze();
        let mut slice: &[u8] = frozen.as_slice();
        let reader = BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        let skips = reader.skip_entries();
        assert_eq!(skips.len(), 3);
        assert_eq!(skips[0].offset, 0);
        for (i, s) in skips.iter().enumerate() {
            assert_eq!(s.count, ids[i * 128..].len().min(128));
            assert_eq!(&s.first, &ids[i * 128]);
            assert_eq!(s.last_doc, ids[(i * 128 + s.count) - 1].doc());
            let mut visited = Vec::new();
            reader
                .for_each_in_block(i, |doc, steps| visited.push(DeweyId::from_slice(doc, steps)))
                .unwrap();
            assert_eq!(visited, &ids[i * 128..i * 128 + s.count]);
        }
    }

    #[test]
    fn blocked_run_masked_skips_dead_blocks() {
        // 256 postings in doc 5 (two full blocks), then 10 in doc 9.
        let mut ids: Vec<_> = (0..256u32).map(|i| d(5, &[0, i])).collect();
        ids.extend((0..10u32).map(|i| d(9, &[1, i])));
        let mut buf = BytesMut::new();
        encode_blocked_run(&ids, &mut buf);
        let frozen = buf.freeze();
        let mut slice: &[u8] = frozen.as_slice();
        let reader = BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        let (live, masked) = reader.decode_masked(&[5]).unwrap();
        assert_eq!(masked, 256);
        assert_eq!(live, &ids[256..]);
        // Masking nothing decodes everything.
        let (all, none) = reader.decode_masked(&[]).unwrap();
        assert_eq!(none, 0);
        assert_eq!(all, ids);
        // The trailing partial block holds only doc 9, so it is skipped too.
        let (live9, masked9) = reader.decode_masked(&[9]).unwrap();
        assert_eq!(masked9, 10);
        assert_eq!(live9, &ids[..256]);
        // A skipped block is not decoded: a broken last byte (the trailing
        // block's final step, now a varint with no end) fails only a read
        // that decodes that block.
        let mut broken = frozen.to_vec();
        *broken.last_mut().unwrap() = 0x80;
        let mut slice: &[u8] = broken.as_slice();
        let reader = BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        assert_eq!(reader.decode_all(), Err(DecodeError::UnexpectedEof));
        assert_eq!(reader.decode_masked(&[9]).unwrap(), (ids[..256].to_vec(), 10));
    }

    #[test]
    fn blocked_run_corrupt_layouts_rejected() {
        let ids: Vec<_> = (0..200u32).map(|i| d(0, &[i])).collect();
        let mut buf = BytesMut::new();
        encode_blocked_run(&ids, &mut buf);
        let good = buf.freeze().to_vec();

        // Truncation inside the blocks region surfaces at decode time —
        // parse cannot see it (the region length is external now), but the
        // entry chain runs off the end of the shortened slice.
        let mut truncated: &[u8] = &good[..good.len() - 1];
        let reader = BlockedRunReader::parse(&mut truncated, ids.len()).unwrap();
        assert!(reader.decode_all().is_err());

        // Truncation inside the skip table fails at parse.
        let mut skip_cut: &[u8] = &good[..2];
        assert!(BlockedRunReader::parse(&mut skip_cut, ids.len()).is_err());

        // A single-block run whose last_doc precedes its leader's document.
        let mut bad = BytesMut::new();
        write_varint(&mut bad, 2); // last_doc — but the leader is in doc 5
        let mut block = Vec::new();
        encode_block_entry(None, &d(5, &[0]), &mut block);
        bad.put_slice(&block);
        let frozen = bad.freeze();
        let mut slice: &[u8] = frozen.as_slice();
        assert!(matches!(
            BlockedRunReader::parse(&mut slice, 1),
            Err(DecodeError::BadBlockLayout(_))
        ));

        // An empty blocks region is rejected.
        let mut empty = BytesMut::new();
        write_varint(&mut empty, 0); // last_doc, then no block bytes at all
        let frozen = empty.freeze();
        let mut slice: &[u8] = frozen.as_slice();
        assert!(matches!(
            BlockedRunReader::parse(&mut slice, 1),
            Err(DecodeError::BadBlockLayout(_))
        ));

        // A non-empty slice claiming zero postings is rejected.
        let mut nonempty: &[u8] = &good[..4];
        assert!(matches!(
            BlockedRunReader::parse(&mut nonempty, 0),
            Err(DecodeError::BadBlockLayout(_))
        ));
    }

    #[test]
    fn corrupt_shared_prefix_rejected() {
        // Hand-craft a one-block run whose second entry claims a longer
        // shared prefix than the leader's depth.
        let mut buf = BytesMut::new();
        write_varint(&mut buf, 0); // last_doc (single-block skip data)
        write_varint(&mut buf, 0); // leader: doc id
        write_varint(&mut buf, 1); // leader: depth
        write_varint(&mut buf, 5); // leader: step
        write_varint(&mut buf, 9 + 1); // header: shared prefix 9, same doc
        write_varint(&mut buf, 0); // suffix len
        let frozen = buf.freeze();
        let mut slice: &[u8] = frozen.as_slice();
        let reader = BlockedRunReader::parse(&mut slice, 2).unwrap();
        assert!(matches!(
            reader.decode_all(),
            Err(DecodeError::BadSharedPrefix { shared: 9, prev_depth: 1 })
        ));
    }
}
