//! Materialized traces: a compact, chunked, structure-of-arrays buffer
//! that replays a [`Trace`](crate::Trace) bit-identically.
//!
//! Synthesizing a trace one [`Access`] at a time is cheap but not free,
//! and a sweep regenerates the *identical* (workload, seed, length)
//! stream once per policy cell. [`TraceBuffer`] materializes the stream
//! once into fixed-size chunks of packed words — line address and
//! read/write kind in a single `u64` — so it can be shared across cells
//! behind an `Arc`, handed to a simulator chunk by chunk, or replayed
//! through [`ChunkedTrace`], whose access sequence is guaranteed (and
//! property-tested) to equal the iterator it was built from.
//!
//! The packing relies on the workload generators emitting line-aligned
//! byte addresses (every pattern produces `line * 64`), which
//! [`pack_access`] asserts.

use cache_sim::addr::LINE_BYTES;
use cache_sim::{Access, AccessKind};

/// Default chunk length in accesses (32 Ki accesses = 256 KiB packed).
///
/// Large enough that per-chunk bookkeeping vanishes, small enough that
/// a producer/consumer ring of a few chunks stays cache- and
/// memory-friendly.
pub const DEFAULT_CHUNK_ACCESSES: usize = 1 << 15;

/// Packs an access into one word: line address in the high bits, the
/// read/write kind in bit 0.
///
/// # Panics
///
/// Panics if `access.addr` is not line-aligned — the packing would
/// silently drop the byte offset otherwise. Workload-generated traces
/// are always line-aligned.
#[inline]
pub fn pack_access(access: Access) -> u64 {
    assert!(
        access.addr.is_multiple_of(LINE_BYTES),
        "trace buffers hold line-aligned accesses (addr {:#x})",
        access.addr
    );
    (access.addr / LINE_BYTES) << 1 | u64::from(access.kind.is_write())
}

/// Reverses [`pack_access`].
#[inline]
pub fn unpack_access(word: u64) -> Access {
    Access {
        addr: (word >> 1) * LINE_BYTES,
        kind: if word & 1 == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    }
}

/// A materialized trace: packed accesses in fixed-size chunks.
///
/// Build one with [`TraceBuffer::materialize`], replay it with
/// [`iter`](TraceBuffer::iter) (or walk the raw
/// [`chunks`](TraceBuffer::chunks) for a chunked execution loop).
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    /// Packed words; every chunk is `chunk_len` long except possibly
    /// the last.
    chunks: Vec<Box<[u64]>>,
    len: u64,
    chunk_len: usize,
}

impl TraceBuffer {
    /// Materializes `trace` with the default chunk size.
    pub fn materialize(trace: impl Iterator<Item = Access>) -> Self {
        Self::materialize_chunked(trace, DEFAULT_CHUNK_ACCESSES)
    }

    /// Materializes `trace` into chunks of `chunk_len` accesses.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero or any access is not line-aligned.
    pub fn materialize_chunked(trace: impl Iterator<Item = Access>, chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        let mut chunks: Vec<Box<[u64]>> = Vec::new();
        let mut current: Vec<u64> = Vec::with_capacity(chunk_len);
        let mut len = 0u64;
        for access in trace {
            current.push(pack_access(access));
            len += 1;
            if current.len() == chunk_len {
                chunks.push(std::mem::replace(&mut current, Vec::with_capacity(chunk_len)).into());
            }
        }
        if !current.is_empty() {
            chunks.push(current.into());
        }
        TraceBuffer {
            chunks,
            len,
            chunk_len,
        }
    }

    /// Total accesses stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk length this buffer was materialized with.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// The packed chunks, in trace order. Decode words with
    /// [`unpack_access`].
    pub fn chunks(&self) -> impl Iterator<Item = &[u64]> {
        self.chunks.iter().map(|c| &**c)
    }

    /// A replaying iterator over the whole buffer.
    pub fn iter(&self) -> ChunkedTrace<'_> {
        ChunkedTrace {
            buf: self,
            chunk: 0,
            pos: 0,
            produced: 0,
        }
    }
}

impl<'a> IntoIterator for &'a TraceBuffer {
    type Item = Access;
    type IntoIter = ChunkedTrace<'a>;

    fn into_iter(self) -> ChunkedTrace<'a> {
        self.iter()
    }
}

/// Replays a [`TraceBuffer`] as an [`Access`] iterator whose stream is
/// bit-identical to the trace the buffer was materialized from.
#[derive(Debug, Clone)]
pub struct ChunkedTrace<'a> {
    buf: &'a TraceBuffer,
    chunk: usize,
    pos: usize,
    produced: u64,
}

impl Iterator for ChunkedTrace<'_> {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        let chunk = self.buf.chunks.get(self.chunk)?;
        let word = chunk[self.pos];
        self.pos += 1;
        if self.pos == chunk.len() {
            self.chunk += 1;
            self.pos = 0;
        }
        self.produced += 1;
        Some(unpack_access(word))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.buf.len - self.produced) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ChunkedTrace<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_reads_and_writes() {
        for access in [Access::read(0), Access::write(64), Access::read(1 << 50)] {
            assert_eq!(unpack_access(pack_access(access)), access);
        }
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn unaligned_accesses_rejected() {
        pack_access(Access::read(65));
    }

    #[test]
    fn materialized_buffer_replays_exactly() {
        let spec = crate::workload("gcc").unwrap();
        let streamed: Vec<Access> = spec.trace(10_000, 7).collect();
        let buf = TraceBuffer::materialize(spec.trace(10_000, 7));
        assert_eq!(buf.len(), 10_000);
        let replayed: Vec<Access> = buf.iter().collect();
        assert_eq!(streamed, replayed);
    }

    #[test]
    fn chunk_boundaries_are_invisible() {
        let spec = crate::workload("mcf").unwrap();
        let streamed: Vec<Access> = spec.trace(1000, 3).collect();
        // Chunk lengths that do and do not divide the trace length.
        for chunk_len in [1, 7, 250, 1000, 1024, 4096] {
            let buf = TraceBuffer::materialize_chunked(spec.trace(1000, 3), chunk_len);
            assert_eq!(
                buf.iter().collect::<Vec<_>>(),
                streamed,
                "chunk_len {chunk_len}"
            );
            let stored: usize = buf.chunks().map(<[u64]>::len).sum();
            assert_eq!(stored, 1000);
            assert!(buf.chunks().all(|c| c.len() <= chunk_len));
        }
    }

    #[test]
    fn size_hint_counts_down_exactly() {
        let spec = crate::workload("lbm").unwrap();
        let buf = TraceBuffer::materialize_chunked(spec.trace(100, 1), 32);
        let mut it = buf.iter();
        for left in (0..100u64).rev() {
            it.next().unwrap();
            assert_eq!(it.size_hint(), (left as usize, Some(left as usize)));
        }
        assert!(it.next().is_none());
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn memory_accounting_matches_len() {
        let spec = crate::workload("gcc").unwrap();
        let buf = TraceBuffer::materialize(spec.trace(5_000, 1));
        // One packed word per access.
        assert_eq!(buf.len(), 5_000);
        assert_eq!(buf.chunks().map(<[u64]>::len).sum::<usize>(), 5_000);
        assert!(!buf.is_empty());
    }

    #[test]
    fn empty_trace_is_an_empty_buffer() {
        let buf = TraceBuffer::materialize(std::iter::empty());
        assert!(buf.is_empty());
        assert_eq!(buf.iter().count(), 0);
        assert_eq!(buf.chunks().count(), 0);
    }
}
