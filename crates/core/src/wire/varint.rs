//! Varint and zigzag primitives plus the streaming delta-varint
//! index-run writer and reader behind v3's delta index codec.
//!
//! LEB128 encoding itself lives in the pack layer
//! ([`PackBuffer::push_varint`] / `UnpackCursor::try_read_varint`); this
//! module adds the size accounting the value-plane RLE census needs
//! ([`varint_len`]), the signed-to-unsigned fold for deltas that may go
//! backwards ([`zigzag`]/[`unzigzag`]), and the segment-resetting run
//! writer/reader.

use sparsedist_multicomputer::pack::{PackBuffer, UnpackCursor, UnpackError};

/// Bytes a LEB128 varint encoding of `v` occupies (1..=10).
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    let bits = 64 - v.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Fold a signed delta into an unsigned value with small magnitudes
/// staying small: `0, -1, 1, -2, 2, …` map to `0, 1, 2, 3, 4, …`.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Streaming writer for sorted index runs that reset at segment
/// boundaries (the travelling `CO` indices of one CRS row / CCS column,
/// or one ED segment's `C_ij` run).
///
/// The first index after a [`IndexRunWriter::reset`] is written as an
/// absolute varint and the rest as varint deltas from their predecessor.
#[derive(Debug, Clone, Default)]
pub struct IndexRunWriter {
    prev: u64,
    started: bool,
}

impl IndexRunWriter {
    /// A writer positioned at a segment boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark a segment boundary: the next index is written absolute.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Append one index of the current segment's sorted run.
    pub fn push(&mut self, buf: &mut PackBuffer, v: usize) {
        let v = v as u64;
        debug_assert!(!self.started || v >= self.prev, "index run is not sorted");
        buf.push_varint(if self.started { v - self.prev } else { v });
        self.prev = v;
        self.started = true;
    }
}

/// Streaming reader matching [`IndexRunWriter`], with the same
/// segment-boundary [`IndexRunReader::reset`] protocol. Corrupt deltas
/// that would overflow the running sum wrap rather than panic;
/// structural validation is the caller's layer.
#[derive(Debug, Clone, Default)]
pub struct IndexRunReader {
    prev: u64,
    started: bool,
}

impl IndexRunReader {
    /// A reader positioned at a segment boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark a segment boundary: the next index read is absolute.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Read one index of the current segment's run.
    pub fn next(&mut self, cursor: &mut UnpackCursor<'_>) -> Result<usize, UnpackError> {
        let d = cursor.try_read_varint()?;
        self.prev = if self.started {
            self.prev.wrapping_add(d)
        } else {
            d
        };
        self.started = true;
        Ok(self.prev as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_len_matches_packed_bytes() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut b = PackBuffer::new();
            b.push_varint(v);
            assert_eq!(b.byte_len(), varint_len(v), "v={v}");
        }
    }

    #[test]
    fn zigzag_round_trips_and_keeps_small_magnitudes_small() {
        for v in [0i64, -1, 1, -2, 2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "v={v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }
}
