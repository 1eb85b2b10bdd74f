//! The pluggable codec stack: one [`Codec`] per wire format.
//!
//! Schemes no longer know byte layouts. They collect the logical streams
//! of a message — a monotone pointer, sorted per-segment index runs,
//! values — and hand them to the [`Codec`] their [`WirePolicy`] selects:
//!
//! 1. [`Codec::plan`] maps the policy's [`CodecChoice`] to the message's
//!    negotiation byte `desc` — never the streams' contents, so a
//!    sender's descriptor is a pure function of its [`WirePolicy`];
//! 2. [`Codec::begin_message`] writes the self-describing header;
//! 3. `encode_indices`/`encode_values` (columnar triples, CFS) or
//!    `encode_pairs` (count-prefixed segments, ED) lay down the payload.
//!
//! The receiver calls [`Codec::open_message`] on the configured format,
//! which validates the header and returns the negotiation byte; a v3
//! receiver rejects any other magic with a typed
//! [`CompressError::WireHeader`].
//!
//! Invariants every codec upholds:
//!
//! * **Byte identity for v1**: the streams [`V1Raw`] produces are
//!   bit-identical to the seed layout (goldens and fault corpora keep
//!   validating).
//! * **Element transparency**: a message's [`PackBuffer::elem_count`] is
//!   the same under every codec, so `T_Data` and every other virtual-time
//!   charge is format-independent. Codecs move bytes, never ops.
//! * **No panics on malformed input**: decode paths return typed errors
//!   and bound every allocation by what the buffer can actually hold.

use super::v3::V3Packed;
use super::{UnpackedTriple, WireFormat};
use crate::compress::CompressError;
use crate::error::SparsedistError;
use sparsedist_multicomputer::pack::{PackBuffer, UnpackCursor, UnpackError};
use sparsedist_multicomputer::MachineModel;

/// Which v3 index/value encodings a scheme run lets the sender use.
///
/// v1 has exactly one layout, so the choice only matters under
/// [`WireFormat::V3`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CodecChoice {
    /// Raw `u64` indices and raw `f64` values (v1's layout behind a v3
    /// header).
    Raw,
    /// Per-segment delta-varint index runs, raw values.
    Delta,
    /// Bit-packed index runs and byte-transposed value planes — the
    /// maximum-shrink layout.
    #[default]
    Packed,
}

impl CodecChoice {
    /// Lower-case label for CLI and table output.
    pub fn label(self) -> &'static str {
        match self {
            CodecChoice::Raw => "raw",
            CodecChoice::Delta => "delta",
            CodecChoice::Packed => "packed",
        }
    }
}

impl std::fmt::Display for CodecChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything a sender needs to put a message on the wire: the format
/// and the codec choice within it.
#[derive(Debug, Clone, Copy)]
pub struct WirePolicy {
    /// The wire format this side speaks.
    pub format: WireFormat,
    /// The v3 codec selection mode.
    pub choice: CodecChoice,
}

impl WirePolicy {
    /// A policy for `format` with the default codec choice.
    pub fn of(format: WireFormat) -> Self {
        WirePolicy {
            format,
            choice: CodecChoice::default(),
        }
    }

    /// A fully explicit policy. `_model` is ignored: no codec choice
    /// depends on the machine model, and the parameter stays only for
    /// callers that still pass one.
    pub fn new(format: WireFormat, choice: CodecChoice, _model: MachineModel) -> Self {
        WirePolicy { format, choice }
    }
}

impl Default for WirePolicy {
    fn default() -> Self {
        WirePolicy::of(WireFormat::default())
    }
}

/// One wire format's byte layout, over arena-backed [`PackBuffer`]s.
///
/// The index side always travels as a `(pointer, indices)` pair: the
/// monotone CRS/CCS pointer (segment boundaries) and the per-segment
/// sorted index runs. `encode_pairs`/`decode_pairs` carry the same
/// logical content in the ED schemes' count-prefixed segment layout
/// (`pointer.len() - 1` count fields instead of `pointer.len()` pointer
/// entries, preserving the ED element count of `segments + 2·nnz`).
pub trait Codec {
    /// The negotiation byte a message sent under `choice` carries.
    fn plan(&self, choice: CodecChoice) -> u8;

    /// Write the self-describing header (nothing for v1). Framing bytes
    /// only: the buffer's element count is unchanged.
    fn begin_message(&self, buf: &mut PackBuffer, desc: u8);

    /// Validate the header and return the message's negotiation byte
    /// (`0` under v1, which has no header).
    fn open_message(&self, cursor: &mut UnpackCursor<'_>) -> Result<u8, CompressError>;

    /// Append the pointer and per-segment index runs.
    fn encode_indices(&self, buf: &mut PackBuffer, pointer: &[usize], indices: &[usize], desc: u8);

    /// Read back a `(pointer, indices)` pair for `nsegments` segments.
    fn decode_indices(
        &self,
        cursor: &mut UnpackCursor<'_>,
        nsegments: usize,
        desc: u8,
    ) -> Result<(Vec<usize>, Vec<usize>), SparsedistError>;

    /// Append the value stream.
    fn encode_values(&self, buf: &mut PackBuffer, values: &[f64], desc: u8);

    /// Read back `n` values.
    fn decode_values(
        &self,
        cursor: &mut UnpackCursor<'_>,
        n: usize,
        desc: u8,
    ) -> Result<Vec<f64>, SparsedistError>;

    /// Append the ED segment layout: per segment a count field, then the
    /// segment's `(index, value)` content.
    fn encode_pairs(
        &self,
        buf: &mut PackBuffer,
        pointer: &[usize],
        indices: &[usize],
        values: &[f64],
        desc: u8,
    );

    /// Read back a message written by [`Codec::encode_pairs`] for
    /// `nsegments` segments, as an `(pointer, indices, values)` triple.
    fn decode_pairs(
        &self,
        cursor: &mut UnpackCursor<'_>,
        nsegments: usize,
        desc: u8,
    ) -> Result<UnpackedTriple, SparsedistError>;
}

/// The v1 codec: raw little-endian `u64`/`f64` fields, no header —
/// byte-identical to the seed repo's streams.
pub struct V1Raw;

/// The singleton codec instances [`codec_for`] hands out.
pub static V1_RAW: V1Raw = V1Raw;
/// See [`V1_RAW`].
pub static V3_PACKED: V3Packed = V3Packed;

/// The codec implementing `format`.
pub fn codec_for(format: WireFormat) -> &'static dyn Codec {
    match format {
        WireFormat::V1 => &V1_RAW,
        WireFormat::V3 => &V3_PACKED,
    }
}

fn oob(cursor: &UnpackCursor<'_>) -> UnpackError {
    UnpackError {
        at: cursor.position(),
        remaining: cursor.remaining(),
    }
}

/// Reject an element count whose minimal encoding cannot fit the bytes
/// left, before allocating for it. `min_bytes_per` is the smallest
/// possible wire footprint of one element under the active encoding.
pub(super) fn guard_count(
    cursor: &UnpackCursor<'_>,
    n: usize,
    min_bytes_per: usize,
) -> Result<(), UnpackError> {
    match n.checked_mul(min_bytes_per) {
        Some(need) if need <= cursor.remaining() => Ok(()),
        _ => Err(oob(cursor)),
    }
}

impl Codec for V1Raw {
    fn plan(&self, _: CodecChoice) -> u8 {
        0
    }

    fn begin_message(&self, _buf: &mut PackBuffer, _desc: u8) {}

    fn open_message(&self, _cursor: &mut UnpackCursor<'_>) -> Result<u8, CompressError> {
        Ok(0)
    }

    fn encode_indices(
        &self,
        buf: &mut PackBuffer,
        pointer: &[usize],
        indices: &[usize],
        _desc: u8,
    ) {
        buf.push_usize_slice(pointer);
        buf.push_usize_slice(indices);
    }

    fn decode_indices(
        &self,
        cursor: &mut UnpackCursor<'_>,
        nsegments: usize,
        _desc: u8,
    ) -> Result<(Vec<usize>, Vec<usize>), SparsedistError> {
        let pointer = cursor.try_read_usize_vec(nsegments + 1)?;
        let nnz = pointer.last().copied().unwrap_or(0);
        guard_count(cursor, nnz, 8)?;
        let indices = cursor.try_read_usize_vec(nnz)?;
        Ok((pointer, indices))
    }

    fn encode_values(&self, buf: &mut PackBuffer, values: &[f64], _desc: u8) {
        buf.push_f64_slice(values);
    }

    fn decode_values(
        &self,
        cursor: &mut UnpackCursor<'_>,
        n: usize,
        _desc: u8,
    ) -> Result<Vec<f64>, SparsedistError> {
        guard_count(cursor, n, 8)?;
        Ok(cursor.try_read_f64_vec(n)?)
    }

    fn encode_pairs(
        &self,
        buf: &mut PackBuffer,
        pointer: &[usize],
        indices: &[usize],
        values: &[f64],
        _desc: u8,
    ) {
        for seg in 0..pointer.len().saturating_sub(1) {
            buf.push_u64((pointer[seg + 1] - pointer[seg]) as u64);
            for k in pointer[seg]..pointer[seg + 1] {
                buf.push_u64(indices[k] as u64);
                buf.push_f64(values[k]);
            }
        }
    }

    /// A failed count read is a [`CompressError::PointerLength`], a
    /// failed pair read a [`CompressError::LengthMismatch`].
    fn decode_pairs(
        &self,
        cursor: &mut UnpackCursor<'_>,
        nsegments: usize,
        _desc: u8,
    ) -> Result<UnpackedTriple, SparsedistError> {
        let mut pointer = Vec::with_capacity(nsegments + 1);
        pointer.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for seg in 0..nsegments {
            let count = cursor
                .try_read_usize()
                .map_err(|_| CompressError::PointerLength {
                    expected: nsegments + 1,
                    actual: seg + 1,
                })?;
            let total = pointer[seg]
                .checked_add(count)
                .ok_or(CompressError::Codec {
                    reason: "segment counts overflow",
                })?;
            pointer.push(total);
            for _ in 0..count {
                let pair = cursor.try_read_usize().and_then(|idx| {
                    indices.push(idx);
                    cursor.try_read_f64()
                });
                let v = pair.map_err(|_| CompressError::LengthMismatch {
                    pointer_total: total,
                    indices: indices.len(),
                    values: values.len(),
                })?;
                values.push(v);
            }
        }
        Ok((pointer, indices, values))
    }
}

/// Per-stream byte footprint of one message under one policy, raw vs
/// encoded — the numbers behind the CLI's `--streams` report and the
/// README bytes/element table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamBytes {
    /// Pointer + index stream at 8 bytes per element.
    pub index_raw: usize,
    /// Pointer + index stream as the codec encodes it.
    pub index_encoded: usize,
    /// Value stream at 8 bytes per element.
    pub value_raw: usize,
    /// Value stream as the codec encodes it.
    pub value_encoded: usize,
}

impl StreamBytes {
    /// Sum another message's streams into this tally.
    pub fn add(&mut self, other: StreamBytes) {
        self.index_raw += other.index_raw;
        self.index_encoded += other.index_encoded;
        self.value_raw += other.value_raw;
        self.value_encoded += other.value_encoded;
    }
}

/// Measure the per-stream bytes of one `(pointer, indices, values)`
/// message under `policy`, encoding each stream in columnar form. Header
/// bytes are not counted (they are per-message framing, not stream
/// payload).
pub fn measure_streams(
    pointer: &[usize],
    indices: &[usize],
    values: &[f64],
    policy: &WirePolicy,
) -> StreamBytes {
    let codec = codec_for(policy.format);
    let desc = codec.plan(policy.choice);
    let mut ib = PackBuffer::new();
    codec.encode_indices(&mut ib, pointer, indices, desc);
    let mut vb = PackBuffer::new();
    codec.encode_values(&mut vb, values, desc);
    StreamBytes {
        index_raw: 8 * (pointer.len() + indices.len()),
        index_encoded: ib.byte_len(),
        value_raw: 8 * values.len(),
        value_encoded: vb.byte_len(),
    }
}
