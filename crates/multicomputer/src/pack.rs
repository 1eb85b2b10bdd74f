//! `MPI_Pack`-style buffers.
//!
//! The paper's CFS scheme "packs `RO`, `CO`, and `VL` … into a buffer" and
//! its ED scheme builds a "special buffer `B`". Both are modelled here by
//! [`PackBuffer`]: a contiguous byte buffer with typed append operations
//! and an **element counter**. The element counter matters because the
//! paper charges `T_Data` per *array element* (an index or a value), not
//! per byte; the engine reads it when charging a send.
//!
//! Indices travel as `u64`, values as `f64`, both little-endian, so a
//! buffer has a well-defined wire layout (8 bytes per element) that
//! [`UnpackCursor`] can walk on the receiving side. That is the **v1**
//! layout; the compact **v3** layout built on the other primitives here
//! (LEB128 varints, raw framing bytes, pre-sized byte ranges) is defined
//! one level up, in `sparsedist-core`'s `wire` module. In every layout the
//! element counter tracks *logical* elements — a varint-encoded index is
//! still one element on the paper's cost model, however few bytes it
//! occupies.

use std::cell::{Cell, RefCell};
use std::fmt;

/// Append a slice of 8-byte values to `out` as little-endian bytes in one
/// `memcpy` when the host layout already matches the wire layout, falling
/// back to a per-element loop on big-endian hosts.
macro_rules! extend_le_bulk {
    ($out:expr, $vs:expr, $ty:ty) => {{
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `$vs` is a valid slice of `$ty`, every bit pattern of
            // which is a plain-old-data 8-byte value; reinterpreting its
            // memory as bytes is sound, and on a little-endian host those
            // bytes are exactly the wire encoding.
            let bytes = unsafe {
                std::slice::from_raw_parts(
                    $vs.as_ptr() as *const u8,
                    $vs.len() * std::mem::size_of::<$ty>(),
                )
            };
            $out.extend_from_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        {
            $out.reserve($vs.len() * std::mem::size_of::<$ty>());
            for &v in $vs {
                $out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }};
}

/// A contiguous send buffer with typed append operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackBuffer {
    bytes: Vec<u8>,
    elems: u64,
}

impl PackBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        PackBuffer::default()
    }

    /// An empty buffer with room for `elems` 8-byte elements.
    pub fn with_capacity(elems: usize) -> Self {
        PackBuffer {
            bytes: Vec::with_capacity(elems * 8),
            elems: 0,
        }
    }

    /// Append one index element.
    pub fn push_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self.elems += 1;
    }

    /// Append one value element.
    pub fn push_f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self.elems += 1;
    }

    /// Append a run of index elements in one bulk byte copy.
    pub fn push_u64_slice(&mut self, vs: &[u64]) {
        extend_le_bulk!(self.bytes, vs, u64);
        self.elems += vs.len() as u64;
    }

    /// Append a run of `usize` indices (stored as `u64` on the wire) in one
    /// bulk byte copy where the host layout permits.
    pub fn push_usize_slice(&mut self, vs: &[usize]) {
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        {
            extend_le_bulk!(self.bytes, vs, usize);
        }
        #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
        {
            self.bytes.reserve(vs.len() * 8);
            for &v in vs {
                self.bytes.extend_from_slice(&(v as u64).to_le_bytes());
            }
        }
        self.elems += vs.len() as u64;
    }

    /// Append a run of value elements in one bulk byte copy.
    pub fn push_f64_slice(&mut self, vs: &[f64]) {
        extend_le_bulk!(self.bytes, vs, f64);
        self.elems += vs.len() as u64;
    }

    /// Append one index element as an LEB128 varint (1–10 bytes). Counts as
    /// one logical element regardless of its encoded width.
    pub fn push_varint(&mut self, mut v: u64) {
        loop {
            // lint: allow(W001) — masked to 7 bits, the cast cannot truncate
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.bytes.push(byte);
                break;
            }
            self.bytes.push(byte | 0x80);
        }
        self.elems += 1;
    }

    /// Append raw framing bytes (headers, magics) that are **not** logical
    /// array elements: the element counter is unchanged, so `T_Data`
    /// charges stay at paper semantics.
    pub fn push_raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Append a byte range that *does* represent logical elements, crediting
    /// exactly `elems` of them. This is the chunked-streaming primitive: a
    /// large packed buffer is split into byte ranges (which need not align
    /// with element boundaries) and each chunk frame re-credits its share of
    /// the original element count, so the per-chunk wire charges sum to the
    /// unchunked `T_Data` total.
    pub fn push_chunk(&mut self, bytes: &[u8], elems: u64) {
        self.bytes.extend_from_slice(bytes);
        self.elems += elems;
    }

    /// Append `len` zero bytes that represent `elems` logical elements and
    /// return them to be filled in place — for encoders that know an
    /// encoding's exact size before writing it, so it needs no staging
    /// buffer.
    pub fn push_zeroed(&mut self, len: usize, elems: u64) -> &mut [u8] {
        let at = self.bytes.len();
        self.bytes.resize(at + len, 0);
        self.elems += elems;
        &mut self.bytes[at..]
    }

    /// Append a placeholder index element and return its byte offset for a
    /// later [`PackBuffer::patch_u64`]. The ED encoder uses this to write
    /// each `R_i` count before the row's `(C_ij, V_ij)` pairs are known
    /// (Figure 6 of the paper), keeping the encode a single pass.
    pub fn push_u64_placeholder(&mut self) -> usize {
        let at = self.bytes.len();
        self.push_u64(0);
        at
    }

    /// Overwrite the 8 bytes at `at` (from [`PackBuffer::push_u64_placeholder`])
    /// with `v`. Does not change the element count. Fails if `at` is not a
    /// valid 8-byte slot.
    pub fn patch_u64(&mut self, at: usize, v: u64) -> Result<(), PatchError> {
        if at + 8 > self.bytes.len() {
            return Err(PatchError {
                at,
                len: self.bytes.len(),
            });
        }
        self.bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Number of logical array elements packed so far (what `T_Data` is
    /// charged against).
    pub fn elem_count(&self) -> u64 {
        self.elems
    }

    /// Wire size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// True if nothing has been packed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Begin unpacking from the start of the buffer.
    pub fn cursor(&self) -> UnpackCursor<'_> {
        UnpackCursor {
            bytes: &self.bytes,
            pos: 0,
        }
    }

    /// The raw wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// IEEE CRC32 of the wire bytes — the frame checksum the
    /// reliable-delivery layer uses to detect payload corruption.
    pub fn crc32(&self) -> u32 {
        crc32(&self.bytes)
    }

    /// Flip one payload bit (used by fault injection to enact a `Corrupt`
    /// fault on a real buffer). No-op on an empty buffer.
    pub fn flip_bit(&mut self, bit: u64) {
        if self.bytes.is_empty() {
            return;
        }
        let nbits = self.bytes.len() as u64 * 8;
        let bit = bit % nbits;
        // lint: allow(W002) — bit < nbits = len·8, so bit/8 < len fits usize
        self.bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    }

    /// Consume the buffer, returning its backing byte storage (for
    /// recycling through a [`PackArena`]).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Most allocations a [`PackArena`] keeps, so a rank that recycles more
/// buffers than it checks out again cannot hoard them.
const POOL_CAP: usize = 1;

/// A per-rank pool of backing byte vectors for [`PackBuffer`]s.
///
/// Only a rank that checks buffers out again recycles into its arena:
/// a distribution's source (a part buffer it has split into chunk
/// frames), a receiver reassembling chunked parts (each frame), and the
/// ranks of a collective. A receiver drops a payload it
/// has decoded instead, since it checks nothing out during the run and a
/// pooled payload would stay until the machine is dropped. The arena
/// keeps only the largest freed allocation.
/// Single-threaded, like the event loop that runs every rank task, and
/// deterministic: recycling only changes *where* the bytes live, never
/// what is written into them.
#[derive(Debug, Default)]
pub struct PackArena {
    free: RefCell<Vec<Vec<u8>>>,
    checkouts: Cell<u64>,
    reuses: Cell<u64>,
    recycles: Cell<u64>,
}

/// Cumulative allocation-reuse counters of a [`PackArena`], since the
/// arena was created (arenas persist across `run_*` calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out by [`PackArena::checkout`].
    pub checkouts: u64,
    /// Checkouts served from the pool instead of a fresh allocation.
    pub reuses: u64,
    /// Allocations returned to the pool, also those it dropped because
    /// it was full.
    pub recycles: u64,
}

impl PackArena {
    /// An empty arena.
    pub fn new() -> Self {
        PackArena::default()
    }

    /// Take a cleared buffer with at least `cap_bytes` of capacity,
    /// preferring a recycled allocation over a fresh one.
    pub fn checkout(&self, cap_bytes: usize) -> PackBuffer {
        self.checkouts.set(self.checkouts.get() + 1);
        let mut free = self.free.borrow_mut();
        // Largest vectors are kept at the back; take the biggest available
        // so one hot buffer stops the whole pool from re-growing.
        let bytes = match free.pop() {
            Some(mut v) => {
                self.reuses.set(self.reuses.get() + 1);
                v.clear();
                if v.capacity() < cap_bytes {
                    v.reserve(cap_bytes);
                }
                v
            }
            None => Vec::with_capacity(cap_bytes),
        };
        PackBuffer { bytes, elems: 0 }
    }

    /// Return a buffer's backing storage to the pool.
    pub fn recycle(&self, buf: PackBuffer) {
        self.recycle_bytes(buf.into_bytes());
    }

    /// Return raw backing storage to the pool (what
    /// [`PackBuffer::into_bytes`] yields).
    pub fn recycle_bytes(&self, bytes: Vec<u8>) {
        if bytes.capacity() == 0 {
            return;
        }
        self.recycles.set(self.recycles.get() + 1);
        let mut free = self.free.borrow_mut();
        let at = free.partition_point(|v| v.capacity() < bytes.capacity());
        if free.len() < POOL_CAP {
            free.insert(at, bytes);
        } else if at > 0 {
            // Full: the smallest pooled allocation makes room.
            free.remove(0);
            free.insert(at - 1, bytes);
        }
    }

    /// Number of pooled allocations currently available.
    pub fn pooled(&self) -> usize {
        self.free.borrow().len()
    }

    /// Cumulative checkout/reuse/recycle counters — the engine folds these
    /// into each rank's metrics registry when tracing.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            checkouts: self.checkouts.get(),
            reuses: self.reuses.get(),
            recycles: self.recycles.get(),
        }
    }
}

/// IEEE 802.3 CRC32 (the `cksum`/zlib polynomial), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            // lint: allow(W001) — table index i < 256 always fits in u32
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in bytes {
        // lint: allow(W002) — masked to 8 bits, the table index fits usize
        c = table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Error returned by [`PackBuffer::patch_u64`] for an out-of-range slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchError {
    /// Byte offset of the attempted 8-byte write.
    pub at: usize,
    /// Length of the buffer at the time of the write.
    pub len: usize,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "patch offset {} out of buffer: 8-byte write into a {}-byte buffer",
            self.at, self.len
        )
    }
}

impl std::error::Error for PatchError {}

impl fmt::Display for PackBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackBuffer({} elems, {} bytes)",
            self.elems,
            self.bytes.len()
        )
    }
}

/// Error returned when an [`UnpackCursor`] runs past the end of the buffer
/// or is left with trailing bytes it was told to exhaust.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnpackError {
    /// Byte offset at which the failed read started.
    pub at: usize,
    /// Bytes available past that offset.
    pub remaining: usize,
}

impl fmt::Display for UnpackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unpack past end of buffer: 8-byte read at offset {} with only {} bytes left",
            self.at, self.remaining
        )
    }
}

impl std::error::Error for UnpackError {}

/// Sequential reader over a [`PackBuffer`]'s wire bytes.
#[derive(Debug, Clone)]
pub struct UnpackCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// An index element as `usize`.
#[inline]
fn index_of(v: u64) -> usize {
    // lint: allow(W002) — same-address-space reads of values packed from usize
    v as usize
}

/// An 8-byte slice as an array.
#[inline]
fn le8(chunk: &[u8]) -> [u8; 8] {
    let mut out = [0u8; 8];
    out.copy_from_slice(chunk);
    out
}

impl<'a> UnpackCursor<'a> {
    fn take8(&mut self) -> Result<[u8; 8], UnpackError> {
        let end = self.pos + 8;
        if end > self.bytes.len() {
            return Err(UnpackError {
                at: self.pos,
                remaining: self.bytes.len() - self.pos,
            });
        }
        let out = le8(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(out)
    }

    /// Read one index element, panicking on truncation (the common case in
    /// scheme code, where the sender is in the same address space and the
    /// format is known).
    pub fn read_u64(&mut self) -> u64 {
        // lint: allow(E002) — documented panicking convenience over try_read_u64
        self.try_read_u64().expect("truncated pack buffer")
    }

    /// Read one index element as `usize`.
    pub fn read_usize(&mut self) -> usize {
        index_of(self.read_u64())
    }

    /// Read one value element.
    pub fn read_f64(&mut self) -> f64 {
        // lint: allow(E002) — documented panicking convenience over try_read_f64
        self.try_read_f64().expect("truncated pack buffer")
    }

    /// Fallible read of one index element.
    pub fn try_read_u64(&mut self) -> Result<u64, UnpackError> {
        self.take8().map(u64::from_le_bytes)
    }

    /// Fallible read of one LEB128 varint element (at most 10 bytes).
    /// Reports truncation and over-long encodings as an [`UnpackError`] at
    /// the varint's first byte.
    pub fn try_read_varint(&mut self) -> Result<u64, UnpackError> {
        let start = self.pos;
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(UnpackError {
                    at: start,
                    remaining: self.bytes.len() - start,
                });
            };
            self.pos += 1;
            if shift == 63 && byte > 1 {
                // An over-long encoding would overflow 64 bits.
                return Err(UnpackError {
                    at: start,
                    remaining: self.bytes.len() - start,
                });
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Read one varint element, panicking on truncation.
    pub fn read_varint(&mut self) -> u64 {
        // lint: allow(E002) — documented panicking convenience over try_read_varint
        self.try_read_varint().expect("truncated pack buffer")
    }

    /// Fallible read of `n` raw framing bytes (headers, magics).
    pub fn try_read_raw(&mut self, n: usize) -> Result<&'a [u8], UnpackError> {
        let Some(end) = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()) else {
            return Err(UnpackError {
                at: self.pos,
                remaining: self.bytes.len() - self.pos,
            });
        };
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Fallible read of one value element.
    pub fn try_read_f64(&mut self) -> Result<f64, UnpackError> {
        self.take8().map(f64::from_le_bytes)
    }

    /// Fallible read of one index element as `usize`.
    pub fn try_read_usize(&mut self) -> Result<usize, UnpackError> {
        self.try_read_u64().map(index_of)
    }

    /// Take the bytes of `n` consecutive 8-byte elements with one bounds
    /// check. On truncation the cursor stops at, and the error names, the
    /// first element that does not fit — exactly where `n` single reads
    /// would have failed.
    fn take8_run(&mut self, n: usize) -> Result<&'a [u8], UnpackError> {
        let fit = (self.bytes.len() - self.pos) / 8;
        if n > fit {
            self.pos += fit * 8;
            return Err(UnpackError {
                at: self.pos,
                remaining: self.bytes.len() - self.pos,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n * 8];
        self.pos += n * 8;
        Ok(out)
    }

    /// Fallible read of `n` index elements into a fresh vector.
    pub fn try_read_usize_vec(&mut self, n: usize) -> Result<Vec<usize>, UnpackError> {
        let run = self.take8_run(n)?;
        Ok(run
            .chunks_exact(8)
            .map(|c| index_of(u64::from_le_bytes(le8(c))))
            .collect())
    }

    /// Fallible read of `n` value elements into a fresh vector.
    pub fn try_read_f64_vec(&mut self, n: usize) -> Result<Vec<f64>, UnpackError> {
        let run = self.take8_run(n)?;
        Ok(run
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(le8(c)))
            .collect())
    }

    /// Read `n` index elements into a fresh vector.
    pub fn read_usize_vec(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.read_usize()).collect()
    }

    /// Read `n` value elements into a fresh vector.
    pub fn read_f64_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.read_f64()).collect()
    }

    /// Byte offset of the next read — how much of the buffer has been
    /// consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True if the cursor has consumed the whole buffer.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut b = PackBuffer::new();
        b.push_u64(42);
        b.push_f64(2.5);
        b.push_u64(7);
        assert_eq!(b.elem_count(), 3);
        assert_eq!(b.byte_len(), 24);

        let mut c = b.cursor();
        assert_eq!(c.read_u64(), 42);
        assert_eq!(c.read_f64(), 2.5);
        assert_eq!(c.read_usize(), 7);
        assert!(c.is_exhausted());
    }

    #[test]
    fn round_trip_slices() {
        let mut b = PackBuffer::new();
        b.push_usize_slice(&[1, 2, 3]);
        b.push_f64_slice(&[0.5, -1.5]);
        b.push_u64_slice(&[9, 10]);
        assert_eq!(b.elem_count(), 7);

        let mut c = b.cursor();
        assert_eq!(c.read_usize_vec(3), vec![1, 2, 3]);
        assert_eq!(c.read_f64_vec(2), vec![0.5, -1.5]);
        assert_eq!(c.read_u64(), 9);
        assert_eq!(c.read_u64(), 10);
        assert!(c.is_exhausted());
    }

    #[test]
    fn truncated_read_reports_offset() {
        let mut b = PackBuffer::new();
        b.push_u64(1);
        let mut c = b.cursor();
        c.read_u64();
        let err = c.try_read_u64().unwrap_err();
        assert_eq!(
            err,
            UnpackError {
                at: 8,
                remaining: 0
            }
        );
        assert!(err.to_string().contains("offset 8"));
    }

    #[test]
    fn bulk_reads_fail_at_the_first_element_that_does_not_fit() {
        // Two whole elements, then a cut 4 bytes into the 3rd.
        let mut b = PackBuffer::new();
        b.push_u64(1);
        b.push_u64(2);
        b.push_raw(&[3, 0, 0, 0]);
        let want = UnpackError {
            at: 16,
            remaining: 4,
        };
        let mut c = b.cursor();
        assert_eq!(c.try_read_f64_vec(3).unwrap_err(), want);
        assert_eq!(c.position(), 16);
        let mut c = b.cursor();
        assert_eq!(c.try_read_usize_vec(4).unwrap_err(), want);
        // The same error the element-by-element reads report.
        let mut c = b.cursor();
        let single = (0..3)
            .map(|_| c.try_read_f64())
            .collect::<Result<Vec<_>, _>>();
        assert_eq!(single.unwrap_err(), want);
        let mut c = b.cursor();
        assert_eq!(c.try_read_usize_vec(2).unwrap(), vec![1, 2]);
        assert_eq!(c.remaining(), 4);
    }

    #[test]
    #[should_panic(expected = "truncated pack buffer")]
    fn infallible_read_panics_on_truncation() {
        let b = PackBuffer::new();
        let mut c = b.cursor();
        let _ = c.read_f64();
    }

    #[test]
    fn negative_and_special_values_survive() {
        let mut b = PackBuffer::new();
        b.push_f64(-0.0);
        b.push_f64(f64::MAX);
        b.push_f64(f64::MIN_POSITIVE);
        let mut c = b.cursor();
        assert_eq!(c.read_f64(), -0.0);
        assert_eq!(c.read_f64(), f64::MAX);
        assert_eq!(c.read_f64(), f64::MIN_POSITIVE);
    }

    #[test]
    fn with_capacity_does_not_affect_contents() {
        let mut a = PackBuffer::new();
        let mut b = PackBuffer::with_capacity(100);
        a.push_u64(5);
        b.push_u64(5);
        assert_eq!(a, b);
    }

    #[test]
    fn placeholder_patching() {
        let mut b = PackBuffer::new();
        let slot = b.push_u64_placeholder();
        b.push_f64(1.5);
        b.patch_u64(slot, 99).unwrap();
        assert_eq!(b.elem_count(), 2);
        let mut c = b.cursor();
        assert_eq!(c.read_u64(), 99);
        assert_eq!(c.read_f64(), 1.5);
    }

    #[test]
    fn patch_out_of_range_is_an_error() {
        let mut b = PackBuffer::new();
        let err = b.patch_u64(0, 1).unwrap_err();
        assert_eq!(err, PatchError { at: 0, len: 0 });
        assert!(err.to_string().contains("patch offset 0"));
        b.push_u64(7);
        assert_eq!(b.patch_u64(1, 2).unwrap_err(), PatchError { at: 1, len: 8 });
        // The failed patches must not have altered the contents.
        assert_eq!(b.cursor().read_u64(), 7);
    }

    #[test]
    fn crc32_known_vectors_and_sensitivity() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        let mut b = PackBuffer::new();
        b.push_u64(42);
        b.push_f64(1.5);
        let before = b.crc32();
        b.flip_bit(17);
        assert_ne!(b.crc32(), before, "a single bit flip must change the CRC");
        b.flip_bit(17);
        assert_eq!(b.crc32(), before, "flipping back restores it");
    }

    #[test]
    fn flip_bit_on_empty_buffer_is_noop() {
        let mut b = PackBuffer::new();
        b.flip_bit(123);
        assert!(b.is_empty());
    }

    #[test]
    fn empty_buffer_properties() {
        let b = PackBuffer::new();
        assert!(b.is_empty());
        assert_eq!(b.elem_count(), 0);
        assert!(b.cursor().is_exhausted());
    }

    #[test]
    fn bulk_slice_pushes_match_scalar_pushes() {
        let us: Vec<usize> = vec![0, 1, 255, 256, 1 << 20, usize::MAX >> 1];
        let fs: Vec<f64> = vec![0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, -7.25];
        let mut bulk = PackBuffer::new();
        bulk.push_usize_slice(&us);
        bulk.push_f64_slice(&fs);
        bulk.push_u64_slice(&[3, u64::MAX]);
        let mut scalar = PackBuffer::new();
        for &v in &us {
            scalar.push_u64(v as u64);
        }
        for &v in &fs {
            scalar.push_f64(v);
        }
        scalar.push_u64(3);
        scalar.push_u64(u64::MAX);
        assert_eq!(
            bulk, scalar,
            "bulk pushes must be byte-identical to scalar pushes"
        );
    }

    #[test]
    fn varint_round_trip_boundaries() {
        let vals = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut b = PackBuffer::new();
        for &v in &vals {
            b.push_varint(v);
        }
        assert_eq!(b.elem_count(), vals.len() as u64);
        let mut c = b.cursor();
        for &v in &vals {
            assert_eq!(c.read_varint(), v);
        }
        assert!(c.is_exhausted());
        // Encoded widths: 0..127 take one byte, u64::MAX takes ten.
        let mut one = PackBuffer::new();
        one.push_varint(127);
        assert_eq!(one.byte_len(), 1);
        let mut ten = PackBuffer::new();
        ten.push_varint(u64::MAX);
        assert_eq!(ten.byte_len(), 10);
    }

    #[test]
    fn varint_truncation_and_overlong_are_errors() {
        let mut b = PackBuffer::new();
        b.push_raw(&[0x80, 0x80]); // continuation bits with no terminator
        assert!(b.cursor().try_read_varint().is_err());
        let mut o = PackBuffer::new();
        o.push_raw(&[0xff; 10]); // 10th byte would overflow 64 bits
        assert!(o.cursor().try_read_varint().is_err());
    }

    #[test]
    fn raw_bytes_do_not_count_as_elements() {
        let mut b = PackBuffer::new();
        b.push_raw(&[b'S', b'2', 3]);
        b.push_u64(5);
        assert_eq!(b.elem_count(), 1, "framing bytes are not logical elements");
        assert_eq!(b.byte_len(), 11);
        let mut c = b.cursor();
        assert_eq!(c.try_read_raw(3).unwrap(), &[b'S', b'2', 3]);
        assert_eq!(c.read_u64(), 5);
        assert!(c.try_read_raw(1).is_err());
    }

    #[test]
    fn raw_read_past_usize_max_is_an_error() {
        let mut b = PackBuffer::new();
        b.push_raw(&[1, 2, 3]);
        let mut c = b.cursor();
        c.try_read_raw(2).unwrap();
        assert_eq!(
            c.try_read_raw(usize::MAX).unwrap_err(),
            UnpackError {
                at: 2,
                remaining: 1
            }
        );
        assert_eq!(c.position(), 2, "a failed read consumes nothing");
        assert_eq!(c.try_read_raw(1).unwrap(), &[3]);
    }

    #[test]
    fn zeroed_appends_are_filled_in_place_and_credited() {
        let mut b = PackBuffer::new();
        b.push_raw(&[9]);
        b.push_zeroed(3, 2).copy_from_slice(&[4, 5, 6]);
        assert_eq!(b.as_bytes(), &[9, 4, 5, 6]);
        assert_eq!(b.elem_count(), 2);
    }

    #[test]
    fn chunks_credit_their_element_share() {
        // Split a 3-element buffer into two byte-level chunks; the credited
        // element counts sum back to the original regardless of where the
        // byte split landed.
        let mut whole = PackBuffer::new();
        whole.push_u64_slice(&[7, 8, 9]);
        let bytes = whole.as_bytes();
        let mut first = PackBuffer::new();
        first.push_chunk(&bytes[..10], 2);
        let mut second = PackBuffer::new();
        second.push_chunk(&bytes[10..], 1);
        assert_eq!(first.elem_count() + second.elem_count(), whole.elem_count());
        assert_eq!(first.byte_len() + second.byte_len(), whole.byte_len());
        let mut joined = PackBuffer::new();
        joined.push_chunk(first.as_bytes(), first.elem_count());
        joined.push_chunk(second.as_bytes(), second.elem_count());
        assert_eq!(joined.as_bytes(), whole.as_bytes());
        assert_eq!(joined.elem_count(), 3);
    }

    #[test]
    fn arena_recycles_backing_storage() {
        let arena = PackArena::new();
        let mut b = arena.checkout(1024);
        b.push_u64_slice(&[1, 2, 3]);
        let cap = b.bytes.capacity();
        arena.recycle(b);
        assert_eq!(arena.pooled(), 1);
        let b2 = arena.checkout(8);
        assert_eq!(
            arena.pooled(),
            0,
            "checkout must reuse the pooled allocation"
        );
        assert!(b2.is_empty(), "recycled buffers come back cleared");
        assert!(b2.bytes.capacity() >= cap);
        // Recycling an unallocated buffer is a no-op.
        arena.recycle(PackBuffer::new());
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn arena_hands_out_largest_allocation_first() {
        let arena = PackArena::new();
        arena.recycle_bytes(Vec::with_capacity(16));
        arena.recycle_bytes(Vec::with_capacity(4096));
        arena.recycle_bytes(Vec::with_capacity(256));
        assert_eq!(arena.pooled(), POOL_CAP.min(3));
        let b = arena.checkout(0);
        assert!(b.bytes.capacity() >= 4096);
        assert_eq!(arena.pooled(), POOL_CAP.min(3) - 1);
    }

    #[test]
    fn arena_pool_stays_bounded_and_keeps_the_largest() {
        // A receiver that never checks out: every payload is recycled.
        let arena = PackArena::new();
        for i in 0..1000 {
            arena.recycle_bytes(Vec::with_capacity(1 + i * 7919 % 1000));
            assert!(arena.pooled() <= POOL_CAP);
        }
        assert_eq!(arena.pooled(), POOL_CAP);
        assert_eq!(arena.stats().recycles, 1000);
        let largest = arena.checkout(0).bytes.capacity();
        assert!(largest >= 1000, "largest pooled capacity {largest}");
        // A full pool drops an incoming allocation smaller than all it holds.
        for _ in 0..POOL_CAP {
            arena.recycle_bytes(Vec::with_capacity(5000));
        }
        arena.recycle_bytes(Vec::with_capacity(8));
        assert_eq!(arena.stats().recycles, 1000 + POOL_CAP as u64 + 1);
        let caps: Vec<usize> = (0..POOL_CAP)
            .map(|_| arena.checkout(0).bytes.capacity())
            .collect();
        assert!(caps.iter().all(|&c| c >= 5000), "{caps:?}");
    }
}
