//! Read-only memory mapping for zero-copy index opens.
//!
//! This module is a deliberate extension over the real `bytes` crate: the
//! workspace vendors its `bytes` subset (no crates.io in the build
//! container), and the index tier needs `mmap(2)` without pulling
//! in `libc` or `memmap2`. The pattern matches the reactor's `poll(2)`
//! wrapper: a minimal `extern "C"` declaration of the libc symbol on unix,
//! and a read-the-whole-file fallback behind `cfg(not(unix))` so the crate
//! still builds (without the zero-copy win) elsewhere.
//!
//! Mappings are always `PROT_READ` + `MAP_PRIVATE`: the index open path
//! never writes through the map, so the region can be shared freely across
//! threads (`Send + Sync`).

use std::fs::File;
use std::io;
use std::path::Path;

/// A read-only view of a file: a real `mmap(2)` region on unix, a heap copy
/// of the file contents otherwise (and for empty files, which `mmap` rejects
/// with `EINVAL`).
pub struct Mmap {
    inner: Inner,
}

enum Inner {
    #[cfg(unix)]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Heap(Vec<u8>),
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated or unmapped
// while borrowed (`munmap` only runs in `Drop`, which requires exclusive
// ownership), so sharing the region across threads is sound.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl Mmap {
    /// Maps `path` read-only. Falls back to reading the file into memory on
    /// non-unix targets and for zero-length files.
    pub fn open(path: &Path) -> io::Result<Mmap> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Mmap { inner: Inner::Heap(Vec::new()) });
        }
        Mmap::map_file(&file, len)
    }

    #[cfg(unix)]
    fn map_file(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a valid open file descriptor for the duration of the
        // call; addr=null lets the kernel choose the placement; len > 0 was
        // checked by the caller. The resulting region is only ever read.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { inner: Inner::Mapped { ptr: ptr as *const u8, len } })
    }

    #[cfg(not(unix))]
    fn map_file(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let mut file = file;
        file.read_to_end(&mut buf)?;
        Ok(Mmap { inner: Inner::Heap(buf) })
    }

    /// The mapped (or copied) file contents.
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            // SAFETY: ptr/len come from a successful mmap that lives until
            // Drop; the region is never written through or remapped.
            Inner::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Inner::Heap(v) => v,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { len, .. } => *len,
            Inner::Heap(v) => v.len(),
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this view is a real kernel mapping (as opposed to the heap
    /// fallback) — feeds the `gks_index_bytes_mapped` metric.
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
            Inner::Heap(_) => false,
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => {
                // SAFETY: exactly the region returned by mmap, unmapped once.
                unsafe {
                    sys::munmap(*ptr as *mut std::ffi::c_void, *len);
                }
            }
            Inner::Heap(_) => {}
        }
    }
}

/// A heap-backed view of bytes already in memory (tests round-trip an index
/// through its serialized form without touching the filesystem).
impl From<Vec<u8>> for Mmap {
    fn from(bytes: Vec<u8>) -> Mmap {
        Mmap { inner: Inner::Heap(bytes) }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mmap({} bytes, mapped={})", self.len(), self.is_mapped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents() {
        let dir = std::env::temp_dir().join(format!("gks-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        std::fs::write(&path, b"hello mapping").unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.as_slice(), b"hello mapping");
        assert_eq!(map.len(), 13);
        #[cfg(unix)]
        assert!(map.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_uses_heap_fallback() {
        let dir = std::env::temp_dir().join(format!("gks-mmap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/gks/file.bin")).is_err());
    }

    #[test]
    fn shared_across_threads() {
        let dir = std::env::temp_dir().join(format!("gks-mmap-thr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("thr.bin");
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let map = std::sync::Arc::new(Mmap::open(&path).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&map);
                std::thread::spawn(move || m.as_slice().iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7 * 4096);
        }
        std::fs::remove_file(&path).ok();
    }
}
