//! LSB-first bit packing in fixed blocks, the v3 index transport.
//!
//! A packed stream carries `u64` values in blocks of up to [`BLOCK`]
//! values. Each block opens with one width byte `w` (the bit width of the
//! block's largest value, `0..=64`), followed by `ceil(len·w / 8)` payload
//! bytes holding the block's values packed LSB-first. A block of all-zero
//! values therefore costs exactly one byte — the common case for the
//! dense-run deltas the v3 codec feeds through here.
//!
//! Values arrive and leave as iterators, so an encoder prices a stream
//! with [`packed_size`] and writes it with [`write_packed`] straight from
//! the data it derives the values from, and a decoder walks them with
//! [`PackedValues`]; at most one block is staged, on the stack.
//!
//! [`take_packed`] validates the width bytes and bounds every payload
//! read before anything is decoded, so truncated or corrupt streams
//! surface as [`UnpackError`]s, never panics or unbounded allocations: a
//! stream of `n` values needs at least `ceil(n / BLOCK)` bytes, which
//! caps `n` before the caller allocates for it.

use sparsedist_multicomputer::pack::{UnpackCursor, UnpackError};

/// Values per block (one width byte each).
pub const BLOCK: usize = 128;

/// Bits needed to represent `v` (0 for `v == 0`).
pub fn bits_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Bytes [`write_packed`] would write for `vals`.
pub fn packed_size(vals: impl IntoIterator<Item = u64>) -> usize {
    let mut vals = vals.into_iter();
    let mut total = 0;
    loop {
        // The widest value of a block sets the same top bit as their union.
        let (len, union) = vals
            .by_ref()
            .take(BLOCK)
            .fold((0, 0), |(len, union), v| (len + 1, union | v));
        if len == 0 {
            return total;
        }
        total += 1 + (len * bits_for(union) as usize).div_ceil(8);
    }
}

/// Write the packed encoding of `vals` to the front of `out` (which must
/// hold at least [`packed_size`] bytes) and return the bytes written.
pub fn write_packed(out: &mut [u8], vals: impl IntoIterator<Item = u64>) -> usize {
    let mut vals = vals.into_iter();
    let mut block = [0u64; BLOCK];
    let mut at = 0;
    loop {
        let mut len = 0;
        let mut union = 0;
        for v in vals.by_ref().take(BLOCK) {
            block[len] = v;
            union |= v;
            len += 1;
        }
        if len == 0 {
            return at;
        }
        let w = bits_for(union);
        out[at] = w as u8;
        at += 1;
        let mut acc: u128 = 0;
        let mut nbits: u32 = 0;
        for &v in &block[..len] {
            acc |= (v as u128) << nbits;
            nbits += w;
            while nbits >= 8 {
                out[at] = acc as u8;
                at += 1;
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out[at] = acc as u8;
            at += 1;
        }
    }
}

fn oob(cursor: &UnpackCursor<'_>) -> UnpackError {
    UnpackError {
        at: cursor.position(),
        remaining: cursor.remaining(),
    }
}

/// Validate a stream of `n` values written by [`write_packed`] at the
/// cursor, step past it, and return its bytes for [`PackedValues`].
///
/// Fails with [`UnpackError`] on truncation, a width byte above 64, or a
/// count `n` the remaining bytes cannot possibly hold.
pub fn take_packed<'a>(cursor: &mut UnpackCursor<'a>, n: usize) -> Result<&'a [u8], UnpackError> {
    // Every block costs at least its width byte: reject a count that
    // outruns the buffer before walking it.
    if n.div_ceil(BLOCK) > cursor.remaining() {
        return Err(oob(cursor));
    }
    let mut start = cursor.clone();
    let mut left = n;
    while left > 0 {
        let len = left.min(BLOCK);
        let w = cursor.try_read_raw(1)?[0] as usize;
        if w > 64 {
            return Err(oob(cursor));
        }
        cursor.try_read_raw((len * w).div_ceil(8))?;
        left -= len;
    }
    start.try_read_raw(cursor.position() - start.position())
}

/// The values of a stream already validated by [`take_packed`], decoded
/// one at a time.
pub struct PackedValues<'a> {
    bytes: &'a [u8],
    at: usize,
    left: usize,
    block_left: usize,
    width: u32,
    acc: u128,
    nbits: u32,
}

impl<'a> PackedValues<'a> {
    /// Iterate the `n` values of `bytes` as returned by [`take_packed`].
    pub fn new(bytes: &'a [u8], n: usize) -> Self {
        PackedValues {
            bytes,
            at: 0,
            left: n,
            block_left: 0,
            width: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// The next stream byte; validated streams never run short, and a
    /// short one reads as zeros rather than panicking.
    fn byte(&mut self) -> u8 {
        let b = self.bytes.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        b
    }
}

impl Iterator for PackedValues<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        if self.block_left == 0 {
            // Blocks are byte-aligned: a new one drops the last's padding.
            self.width = u32::from(self.byte()).min(64);
            self.block_left = self.left.min(BLOCK);
            self.acc = 0;
            self.nbits = 0;
        }
        self.left -= 1;
        self.block_left -= 1;
        while self.nbits < self.width {
            self.acc |= u128::from(self.byte()) << self.nbits;
            self.nbits += 8;
        }
        let v = match self.width {
            64 => self.acc as u64,
            w => self.acc as u64 & ((1u64 << w) - 1),
        };
        self.acc >>= self.width;
        self.nbits -= self.width;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_multicomputer::pack::PackBuffer;

    fn roundtrip(vals: &[u64]) {
        let size = packed_size(vals.iter().copied());
        let mut bytes = vec![0u8; size];
        assert_eq!(write_packed(&mut bytes, vals.iter().copied()), size);
        let mut buf = PackBuffer::new();
        buf.push_raw(&bytes);
        let mut c = buf.cursor();
        let stream = take_packed(&mut c, vals.len()).unwrap();
        assert!(c.is_exhausted());
        assert_eq!(stream, bytes.as_slice());
        let back: Vec<u64> = PackedValues::new(stream, vals.len()).collect();
        assert_eq!(back, vals);
    }

    #[test]
    fn round_trips_across_widths_and_block_boundaries() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[0; 500]);
        roundtrip(&[1, 0, 1, 1, 0]);
        roundtrip(&(0..1000u64).collect::<Vec<_>>());
        roundtrip(&[u64::MAX, 0, 1, u64::MAX]);
        roundtrip(&(0..129).map(|i| i * 37 % 1000).collect::<Vec<_>>());
    }

    #[test]
    fn all_zero_blocks_cost_one_byte_each() {
        assert_eq!(packed_size([0; 128]), 1);
        assert_eq!(packed_size([0; 256]), 2);
        // A 7-bit block: 1 width byte + ceil(128·7/8) payload.
        assert_eq!(packed_size([100; 128]), 1 + 112);
    }

    #[test]
    fn truncated_or_corrupt_streams_error_without_panicking() {
        let vals = 0..300u64;
        let mut bytes = vec![0u8; packed_size(vals.clone())];
        write_packed(&mut bytes, vals);
        for cut in [0, 1, 5, bytes.len() - 1] {
            let mut buf = PackBuffer::new();
            buf.push_raw(&bytes[..cut]);
            assert!(take_packed(&mut buf.cursor(), 300).is_err(), "cut {cut}");
        }
        // Width byte above 64.
        let mut buf = PackBuffer::new();
        buf.push_raw(&[65, 0, 0, 0]);
        assert!(take_packed(&mut buf.cursor(), 1).is_err());
        // Count that cannot fit the remaining bytes is rejected up front.
        let mut buf = PackBuffer::new();
        buf.push_raw(&[0]);
        assert!(take_packed(&mut buf.cursor(), usize::MAX).is_err());
    }
}
