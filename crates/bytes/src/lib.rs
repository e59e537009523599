//! Offline stand-in for the `bytes` crate.
//!
//! The build container has no crates.io access, so the workspace vendors the
//! subset of `bytes` that the Dewey codec (`gks-dewey::codec`) and index
//! persistence (`gks-index::persist`) actually use: the [`Buf`] / [`BufMut`]
//! traits, a cheaply-cloneable immutable [`Bytes`], and a growable
//! [`BytesMut`]. Multi-byte integers use big-endian order, matching the real
//! crate, so on-disk artifacts stay compatible if the real `bytes` is ever
//! swapped back in.
//!
//! One deliberate extension beyond the real crate's API: [`mmap::Mmap`], a
//! std-only read-only memory map used by the zero-copy index open
//! (see that module's docs for why it lives here).

use std::sync::Arc;

pub mod mmap;

pub use mmap::Mmap;

/// Read-side cursor over a contiguous byte region (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// Consumes and returns the next byte.
    ///
    /// # Panics
    /// Panics if the buffer is empty, matching the real crate.
    fn get_u8(&mut self) -> u8;

    /// Skips `cnt` bytes.
    ///
    /// # Panics
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Borrows the unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Consumes four bytes as a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Consumes eight bytes as a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Fills `dst` from the buffer, consuming `dst.len()` bytes.
    ///
    /// # Panics
    /// Panics if the buffer holds fewer than `dst.len()` bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "copy_to_slice out of bounds: {} > {}",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consumes `len` bytes into an owned [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut v = vec![0u8; len];
        self.copy_to_slice(&mut v);
        Bytes::from(v)
    }
}

/// Write-side sink for bytes (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, b: u8);

    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a `u32` in big-endian order.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a `u64` in big-endian order.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// Immutable, cheaply-cloneable byte buffer that consumes from the front as
/// it is read (subset of `bytes::Bytes`).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Unconsumed length.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether all bytes have been consumed (or the buffer was empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A new buffer over the given sub-range of the unconsumed bytes,
    /// sharing the underlying allocation.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes { data: Arc::clone(&self.data), start: self.start + lo }.truncated_to(hi - lo)
    }

    fn truncated_to(self, len: usize) -> Bytes {
        if len == self.len() {
            self
        } else {
            Bytes::from(self.as_slice()[..len].to_vec())
        }
    }

    /// Copies the unconsumed bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Borrows the unconsumed bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: v.into(), start: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        assert!(self.start < self.data.len(), "get_u8 on empty Bytes");
        let b = self.data[self.start];
        self.start += 1;
        b
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance out of bounds");
        self.start += cnt;
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let (first, rest) = self.split_first().expect("get_u8 on empty slice");
        *self = rest;
        *first
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }

    fn chunk(&self) -> &[u8] {
        self
    }
}

/// Growable byte buffer (subset of `bytes::BytesMut`).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Discards the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, b: u8) {
        self.data.push(b);
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_ints() {
        let mut out = BytesMut::new();
        out.put_u8(7);
        out.put_u32(0xdead_beef);
        out.put_u64(42);
        out.put_slice(b"xyz");
        let mut b = out.freeze();
        assert_eq!(b.len(), 1 + 4 + 8 + 3);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32(), 0xdead_beef);
        assert_eq!(b.get_u64(), 42);
        let mut rest = [0u8; 3];
        b.copy_to_slice(&mut rest);
        assert_eq!(&rest, b"xyz");
        assert!(!b.has_remaining());
    }

    #[test]
    fn slice_buf_consumes() {
        let data = [1u8, 2, 3];
        let mut s: &[u8] = &data;
        assert_eq!(s.get_u8(), 1);
        assert_eq!(s.remaining(), 2);
        s.advance(1);
        assert_eq!(s.chunk(), &[3]);
    }
}
