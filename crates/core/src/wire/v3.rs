//! The v3 wire format: self-describing per-stream compression.
//!
//! A v3 message opens with `[b'S', b'3', desc]` where `desc` is the
//! **negotiation byte** the sender's codec choice selects:
//!
//! | bits  | meaning                                                |
//! |-------|--------------------------------------------------------|
//! | `0-1` | index codec: `00` raw `u64`, `01` per-segment delta varints, `10` bit-packed runs |
//! | `2`   | values travel as 8 byte-transposed planes instead of raw `f64` |
//! | `3-7` | reserved, must be zero                                 |
//!
//! The pointer stream is *always* a varint-delta monotone run — it is
//! tiny and monotone by construction, so there is nothing to negotiate.
//!
//! **Bit-packed index runs** ([`IDX_PACKED`]) split the travelling
//! indices into two streams, each packed by [`super::bitpack`]:
//! the zigzag deltas of each non-empty segment's *first* index (segment
//! starts drift slowly in either direction across a CRS part), and the
//! strictly-positive within-segment deltas minus one (dense runs pack to
//! near zero bits). Stream lengths are derivable from the pointer, so no
//! extra framing is needed.
//!
//! **Byte-transposed value planes** ([`VAL_PLANES`]) regroup the `n`
//! values' little-endian bytes into 8 planes of `n` bytes. Each plane is
//! tagged and encoded independently as whichever of raw / dictionary /
//! RLE is smallest — exponent and high-mantissa planes of realistic data
//! collapse to a handful of distinct bytes, while low-mantissa noise
//! planes stay raw. A plane is only a wire layout, never a host buffer:
//! one run-open bitmap per plane, built from the XOR of neighbouring
//! `f64` words, drives both censuses and the RLE writer, which read each
//! byte straight out of the words; the decoder ORs every plane's bytes
//! into zeroed `u64` words. Values come back bit for bit.
//!
//! **Masked value sections.** A planes section that holds a +0.0 word
//! (all 64 bits zero; `-0.0`, NaN and subnormals are kept) opens with
//! tag 3 (`PLANE_MASKED`) where plane 0's tag would be. Its ⌈n/64⌉ nonzero
//! masks follow as 8 planes — bit `j` of mask `k` is set iff value
//! `64k + j` is not +0.0, and bits past `n` must be clear — then the `k`
//! kept words as 8 more planes (none when `k` is 0). An SFC part is a
//! dense local array, mostly +0.0 words, and each of them costs one mask
//! bit. Dropping words never lengthens a raw, dictionary or RLE plane,
//! so a masked section exceeds the unmasked one by at most its tag and
//! mask planes; a section without a +0.0 word is written unmasked, after
//! a test that stops at the first zero. The encoder builds the masks and
//! gathers the kept words in one pass.
//!
//! Which encodings the sender uses is the run's [`CodecChoice`] alone:
//! the default `packed` forces maximum shrink, `raw` and `delta` keep
//! the cheaper layouts. The choice never reads a message's contents, so
//! every message of a run carries the same descriptor; the receiver
//! still accepts any valid one.
//!
//! Like every codec, v3 moves **bytes, never ops**: a message's logical
//! element count is identical under every `desc`, so all virtual-time
//! phase totals are format-independent.

use super::bitpack::{packed_size, take_packed, write_packed, PackedValues};
use super::codec::{guard_count, Codec, CodecChoice};
use super::varint::{unzigzag, varint_len, zigzag, IndexRunReader, IndexRunWriter};
use super::{push_monotone_run, take_header, UnpackedTriple};
use crate::compress::CompressError;
use crate::error::SparsedistError;
use sparsedist_multicomputer::pack::{PackBuffer, UnpackCursor};

/// Magic bytes opening every v3 message.
pub const MAGIC_V3: [u8; 2] = [b'S', b'3'];

/// Index codec: raw little-endian `u64` per index.
pub const IDX_RAW: u8 = 0b00;
/// Index codec: per-segment delta varints.
pub const IDX_DELTA: u8 = 0b01;
/// Index codec: bit-packed first/within delta streams.
pub const IDX_PACKED: u8 = 0b10;
/// Mask of the index-codec bits (`0b11` itself is invalid).
pub const IDX_MASK: u8 = 0b11;
/// Values travel as 8 byte-transposed planes.
pub const VAL_PLANES: u8 = 0b100;
/// All descriptor bits a v3 header may carry.
pub const DESC_MASK: u8 = IDX_MASK | VAL_PLANES;

/// Value-plane tag: `n` raw bytes follow.
const PLANE_RAW: u8 = 0;
/// Value-plane tag: dictionary size, dictionary, bit-packed codes.
const PLANE_DICT: u8 = 1;
/// Value-plane tag: varint run count, then `(varint len, byte)` runs.
const PLANE_RLE: u8 = 2;
/// Value-section tag, where plane 0's tag would be: the section's
/// nonzero masks as 8 planes, then the words they keep as 8 more.
const PLANE_MASKED: u8 = 3;

fn codec_err(reason: &'static str) -> CompressError {
    CompressError::Codec { reason }
}

/// The v3 codec. See the module docs for the byte layout.
pub struct V3Packed;

impl Codec for V3Packed {
    fn plan(&self, choice: CodecChoice) -> u8 {
        match choice {
            CodecChoice::Raw => IDX_RAW,
            CodecChoice::Delta => IDX_DELTA,
            CodecChoice::Packed => IDX_PACKED | VAL_PLANES,
        }
    }

    fn begin_message(&self, buf: &mut PackBuffer, desc: u8) {
        debug_assert_eq!(desc & !DESC_MASK, 0, "unknown v3 descriptor bits");
        debug_assert_ne!(desc & IDX_MASK, IDX_MASK, "invalid v3 index codec");
        buf.push_raw(&[MAGIC_V3[0], MAGIC_V3[1], desc]);
    }

    fn open_message(&self, cursor: &mut UnpackCursor<'_>) -> Result<u8, CompressError> {
        let (found, complete) = take_header(cursor);
        let desc = found[2];
        if !complete
            || found[..2] != MAGIC_V3
            || desc & !DESC_MASK != 0
            || desc & IDX_MASK == IDX_MASK
        {
            return Err(CompressError::WireHeader { found });
        }
        Ok(desc)
    }

    fn encode_indices(&self, buf: &mut PackBuffer, pointer: &[usize], indices: &[usize], desc: u8) {
        push_monotone_run(buf, pointer);
        encode_index_stream(buf, pointer, indices, desc);
    }

    fn decode_indices(
        &self,
        cursor: &mut UnpackCursor<'_>,
        nsegments: usize,
        desc: u8,
    ) -> Result<(Vec<usize>, Vec<usize>), SparsedistError> {
        guard_count(cursor, nsegments + 1, 1)?;
        let mut pointer = Vec::with_capacity(nsegments + 1);
        let mut prev = 0usize;
        for i in 0..nsegments + 1 {
            let d = cursor.try_read_varint()? as usize;
            prev = if i == 0 {
                d
            } else {
                prev.checked_add(d)
                    .ok_or(codec_err("pointer run overflows"))?
            };
            pointer.push(prev);
        }
        if pointer[0] != 0 {
            return Err(CompressError::PointerStart.into());
        }
        let indices = decode_index_stream(cursor, &pointer, desc)?;
        Ok((pointer, indices))
    }

    fn encode_values(&self, buf: &mut PackBuffer, values: &[f64], desc: u8) {
        if values.is_empty() {
            return;
        }
        if desc & VAL_PLANES == 0 {
            buf.push_f64_slice(values);
            return;
        }
        let n = values.len() as u64;
        if !has_zero_word(values) {
            let planes = Planes::new(values);
            planes.write(buf.push_zeroed(planes.cost(), n));
            return;
        }
        let (masks, kept) = split_zero_words(values);
        let (masks, kept) = (Planes::new(&masks), Planes::new(&kept));
        let out = buf.push_zeroed(1 + masks.cost() + kept.cost(), n);
        out[0] = PLANE_MASKED;
        let (mask_out, kept_out) = out[1..].split_at_mut(masks.cost());
        masks.write(mask_out);
        kept.write(kept_out);
    }

    fn decode_values(
        &self,
        cursor: &mut UnpackCursor<'_>,
        n: usize,
        desc: u8,
    ) -> Result<Vec<f64>, SparsedistError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        if desc & VAL_PLANES == 0 {
            guard_count(cursor, n, 8)?;
            return Ok(cursor.try_read_f64_vec(n)?);
        }
        if n.checked_mul(8).is_none() {
            return Err(codec_err("value planes overflow").into());
        }
        let masked = cursor
            .clone()
            .try_read_raw(1)
            .is_ok_and(|tag| tag[0] == PLANE_MASKED);
        let words = if masked {
            cursor.try_read_raw(1)?;
            decode_masked(cursor, n)?
        } else {
            decode_planes(cursor, n)?
        };
        Ok(words.into_iter().map(f64::from_bits).collect())
    }

    fn encode_pairs(
        &self,
        buf: &mut PackBuffer,
        pointer: &[usize],
        indices: &[usize],
        values: &[f64],
        desc: u8,
    ) {
        // The pointer tail as varint deltas is exactly the per-segment
        // count stream — `nsegments` varints, `nsegments` elements,
        // matching v1's one count field per segment.
        for seg in 0..pointer.len().saturating_sub(1) {
            buf.push_varint((pointer[seg + 1] - pointer[seg]) as u64);
        }
        encode_index_stream(buf, pointer, indices, desc);
        self.encode_values(buf, values, desc);
    }

    fn decode_pairs(
        &self,
        cursor: &mut UnpackCursor<'_>,
        nsegments: usize,
        desc: u8,
    ) -> Result<UnpackedTriple, SparsedistError> {
        guard_count(cursor, nsegments, 1)?;
        let mut pointer = Vec::with_capacity(nsegments + 1);
        pointer.push(0usize);
        let mut total = 0usize;
        for seg in 0..nsegments {
            let count = cursor
                .try_read_varint()
                .map_err(|_| CompressError::PointerLength {
                    expected: nsegments + 1,
                    actual: seg + 1,
                })? as usize;
            total = total
                .checked_add(count)
                .ok_or(codec_err("segment counts overflow"))?;
            pointer.push(total);
        }
        let indices = decode_index_stream(cursor, &pointer, desc)?;
        let values = self.decode_values(cursor, total, desc)?;
        Ok((pointer, indices, values))
    }
}

/// Append the travelling-index stream for `desc`'s index codec (the
/// pointer is written separately by the caller). Always credits exactly
/// `indices.len()` logical elements.
fn encode_index_stream(buf: &mut PackBuffer, pointer: &[usize], indices: &[usize], desc: u8) {
    match desc & IDX_MASK {
        IDX_DELTA => {
            let mut run = IndexRunWriter::new();
            for seg in 0..pointer.len().saturating_sub(1) {
                run.reset();
                for &idx in &indices[pointer[seg]..pointer[seg + 1]] {
                    run.push(buf, idx);
                }
            }
        }
        IDX_PACKED => {
            let size = packed_index_bytes(pointer, indices);
            let out = buf.push_zeroed(size, indices.len() as u64);
            let at = write_packed(out, firsts(pointer, indices));
            write_packed(&mut out[at..], within(pointer, indices));
        }
        _ => buf.push_usize_slice(indices),
    }
}

/// Read back the stream written by [`encode_index_stream`], using the
/// (already decoded, monotone) pointer for segment structure.
fn decode_index_stream(
    cursor: &mut UnpackCursor<'_>,
    pointer: &[usize],
    desc: u8,
) -> Result<Vec<usize>, SparsedistError> {
    let nsegments = pointer.len().saturating_sub(1);
    let nnz = pointer.last().copied().unwrap_or(0);
    for i in 1..pointer.len() {
        if pointer[i] < pointer[i - 1] {
            return Err(CompressError::PointerNotMonotone { at: i }.into());
        }
    }
    match desc & IDX_MASK {
        IDX_DELTA => {
            guard_count(cursor, nnz, 1)?;
            let mut indices = Vec::with_capacity(nnz);
            let mut run = IndexRunReader::new();
            for seg in 0..nsegments {
                run.reset();
                for _ in pointer[seg]..pointer[seg + 1] {
                    indices.push(run.next(cursor)?);
                }
            }
            Ok(indices)
        }
        IDX_PACKED => {
            // Both streams are validated before any index is rebuilt, so
            // a bad index can only be reported once the bytes are whole.
            let nonempty = pointer.windows(2).filter(|w| w[0] < w[1]).count();
            let mut firsts = PackedValues::new(take_packed(cursor, nonempty)?, nonempty);
            let mut within =
                PackedValues::new(take_packed(cursor, nnz - nonempty)?, nnz - nonempty);
            let mut indices = Vec::with_capacity(nnz);
            let mut prev_first = 0i64;
            for w in pointer.windows(2) {
                if w[0] == w[1] {
                    continue;
                }
                prev_first = prev_first.wrapping_add(unzigzag(firsts.next().unwrap_or_default()));
                let first = usize::try_from(prev_first)
                    .map_err(|_| codec_err("negative index after zigzag delta"))?;
                indices.push(first);
                let mut prev = first;
                for d in within.by_ref().take(w[1] - w[0] - 1) {
                    prev = prev.wrapping_add(d as usize).wrapping_add(1);
                    indices.push(prev);
                }
            }
            Ok(indices)
        }
        _ => {
            guard_count(cursor, nnz, 8)?;
            Ok(cursor.try_read_usize_vec(nnz)?)
        }
    }
}

/// The first bit-packable stream behind [`IDX_PACKED`]: zigzag deltas of
/// each non-empty segment's first index.
fn firsts<'a>(pointer: &'a [usize], indices: &'a [usize]) -> impl Iterator<Item = u64> + 'a {
    let mut prev_first = 0i64;
    pointer.windows(2).filter(|w| w[0] < w[1]).map(move |w| {
        let first = indices[w[0]] as i64;
        let delta = zigzag(first - prev_first);
        prev_first = first;
        delta
    })
}

/// The second bit-packable stream behind [`IDX_PACKED`]: within-segment
/// deltas minus one.
fn within<'a>(pointer: &'a [usize], indices: &'a [usize]) -> impl Iterator<Item = u64> + 'a {
    pointer.windows(2).flat_map(move |w| {
        indices[w[0]..w[1]].windows(2).map(|pair| {
            debug_assert!(pair[1] > pair[0], "index run is not sorted");
            (pair[1] - pair[0] - 1) as u64
        })
    })
}

/// Byte `p` of `v`'s little-endian bits: its byte in value plane `p`.
fn plane_byte(v: f64, p: usize) -> u8 {
    (v.to_bits() >> (8 * p)) as u8
}

/// Transpose the 8×8 byte matrix whose rows are the words of `x`: byte
/// `j` of word `i` moves to byte `i` of word `j`. It is its own inverse.
fn transpose8(mut x: [u64; 8]) -> [u64; 8] {
    for (step, shift, mask) in [
        (4, 32, 0x0000_0000_ffff_ffff_u64),
        (2, 16, 0x0000_ffff_0000_ffff),
        (1, 8, 0x00ff_00ff_00ff_00ff),
    ] {
        for i in (0..8).filter(|i| i & step == 0) {
            let t = ((x[i] >> shift) ^ x[i + step]) & mask;
            x[i] ^= t << shift;
            x[i + step] ^= t;
        }
    }
    x
}

/// Code width (bits) for a dictionary of `d` entries.
fn code_width(d: usize) -> u32 {
    match d {
        0..=1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        _ => 4,
    }
}

/// The low seven bits of every byte of a word.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// The run-open bitmaps of all 8 value planes, one `[u64; 8]` per 64
/// values: bit `j` of `opens[k][p]` is set iff byte `p` of value
/// `64k + j` differs from byte `p` of the value before it, i.e. iff a run
/// of plane `p` opens there (never at value 0). Each value is XORed with
/// the one before it; the nonzero bytes of eight such differences make
/// one word whose byte `p` holds plane `p`'s eight bits, and an 8×8 byte
/// transpose of a block's eight words sorts the bits by plane.
fn plane_opens(values: &[f64]) -> Vec<[u64; 8]> {
    let mut prev = values.first().map_or(0, |v| v.to_bits());
    let mut opens = Vec::with_capacity(values.len().div_ceil(64));
    for block in values.chunks(64) {
        let mut rows = [0u64; 8];
        for (row, group) in rows.iter_mut().zip(block.chunks(8)) {
            // A short last group repeats its last value, which opens nothing.
            let last = group[group.len() - 1].to_bits();
            let words: [u64; 8] = match <&[f64; 8]>::try_from(group) {
                Ok(whole) => whole.map(f64::to_bits),
                Err(_) => std::array::from_fn(|j| group.get(j).map_or(last, |v| v.to_bits())),
            };
            for (j, &w) in words.iter().enumerate() {
                let diff = w ^ prev;
                prev = w;
                // The top bit of each nonzero byte (adding 0x7f cannot
                // carry out of a byte whose top bit is masked off),
                // moved down to bit `j` of its byte.
                *row |= ((((diff & LOW7) + LOW7) | diff) & !LOW7) >> (7 - j);
            }
        }
        opens.push(transpose8(rows));
    }
    opens
}

/// The run count and exact byte cost of the RLE encoding of plane `p` of
/// `n` values, or `None` once that cost is known to exceed `limit`.
fn rle_census(n: usize, opens: &[[u64; 8]], p: usize, limit: usize) -> Option<(usize, usize)> {
    let mut runs = usize::from(n > 0);
    // Bytes that run lengths add beyond one varint byte each.
    let mut long = 0;
    let mut start = 0;
    for (k, o) in opens.iter().enumerate() {
        let bits = o[p];
        if bits == 0 {
            continue;
        }
        runs += bits.count_ones() as usize;
        // Only the first run a chunk closes can be 64 bytes or longer.
        let len = 64 * k + bits.trailing_zeros() as usize - start;
        if len >= 0x80 {
            long += varint_len(len as u64) - 1;
        }
        start = 64 * k + 63 - bits.leading_zeros() as usize;
        // An RLE plane costs at least its tag, a count byte and two
        // bytes a run.
        if 2 + 2 * runs + long > limit {
            return None;
        }
    }
    if n > 0 {
        long += varint_len((n - start) as u64) - 1;
    }
    let cost = 1 + varint_len(runs as u64) + 2 * runs + long;
    (cost <= limit).then_some((runs, cost))
}

/// The distinct bytes of plane `p` as a 256-bit set, or `None` if there
/// are more than 16. They are the first byte and the bytes at the run
/// opens, so only those are visited.
fn dict_census(values: &[f64], opens: &[[u64; 8]], p: usize) -> Option<[u64; 4]> {
    // Membership is a byte table, not the set's words: after the first few
    // bytes a visit only loads, so visits do not wait on one another.
    let mut seen = [false; 256];
    let mut set = [0u64; 4];
    let mut d = 0;
    let mut add = |v: f64| {
        let b = usize::from(plane_byte(v, p));
        if !seen[b] {
            seen[b] = true;
            set[b / 64] |= 1 << (b % 64);
            d += 1;
        }
        d <= 16
    };
    if let Some(&first) = values.first() {
        add(first);
    }
    for (block, o) in values.chunks(64).zip(opens) {
        let mut bits = o[p];
        while bits != 0 {
            if !add(block[bits.trailing_zeros() as usize]) {
                return None;
            }
            bits &= bits - 1;
        }
    }
    Some(set)
}

/// How a plane will be encoded, chosen by [`plan_plane`].
enum PlanePlan {
    Raw,
    /// The plane's distinct bytes as a 256-bit set.
    Dict([u64; 4]),
    /// The plane's run count.
    Rle(usize),
}

/// Pick the smallest encoding for plane `p` of `values` and return it with
/// its exact byte cost (including the tag byte). Ties break dictionary <
/// RLE < raw so the choice — and therefore the stream — is deterministic.
fn plan_plane(values: &[f64], opens: &[[u64; 8]], p: usize) -> (PlanePlan, usize) {
    let n = values.len();
    let mut best = (PlanePlan::Raw, 1 + n);
    if let Some((runs, cost)) = rle_census(n, opens, p, best.1) {
        best = (PlanePlan::Rle(runs), cost);
    }
    if let Some(set) = dict_census(values, opens, p) {
        let d = set.iter().map(|w| w.count_ones() as usize).sum();
        let cost = 2 + d + (n * code_width(d) as usize).div_ceil(8);
        if cost <= best.1 {
            best = (PlanePlan::Dict(set), cost);
        }
    }
    best
}

/// A run of values planned as 8 byte planes: its run opens and each
/// plane's plan with its exact byte cost.
struct Planes<'a> {
    values: &'a [f64],
    opens: Vec<[u64; 8]>,
    plans: [(PlanePlan, usize); 8],
}

impl<'a> Planes<'a> {
    fn new(values: &'a [f64]) -> Self {
        let opens = plane_opens(values);
        let plans = std::array::from_fn(|p| plan_plane(values, &opens, p));
        Planes {
            values,
            opens,
            plans,
        }
    }

    /// The bytes of all 8 planes, tags included. An empty run writes
    /// nothing, as an empty value section does.
    fn cost(&self) -> usize {
        if self.values.is_empty() {
            return 0;
        }
        self.plans.iter().map(|(_, cost)| cost).sum()
    }

    /// Write the 8 planes into `out`, which is exactly [`Planes::cost`]
    /// long.
    fn write(&self, out: &mut [u8]) {
        if self.values.is_empty() {
            return;
        }
        let (values, opens) = (self.values, &self.opens);
        let mut rest = out;
        // Raw planes are written last, all in one pass over the values.
        let mut raw: [Option<&mut [u8]>; 8] = Default::default();
        for (p, (plan, cost)) in self.plans.iter().enumerate() {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(*cost);
            rest = tail;
            match *plan {
                PlanePlan::Raw => {
                    out[0] = PLANE_RAW;
                    raw[p] = Some(&mut out[1..]);
                }
                PlanePlan::Dict(set) => write_dict(out, values, opens, p, set),
                PlanePlan::Rle(runs) => write_rle(out, values, opens, p, runs),
            }
        }
        write_raw(values, raw);
    }
}

/// Whether any of `values` is +0.0, all 64 bits zero. It stops at the
/// first 64-value block holding one; within a block the test has no
/// branch.
fn has_zero_word(values: &[f64]) -> bool {
    values.chunks(64).any(|block| {
        block
            .iter()
            .fold(false, |zero, v| zero | (v.to_bits() == 0))
    })
}

/// Split `values` in one pass into their nonzero masks and the values
/// they keep. Bit `j` of mask `k` is set iff value `64k + j` is not +0.0;
/// the masks are carried as `f64` bits so the plane planner takes them as
/// it takes values. Each block's kept values are gathered without a
/// branch into a block-sized buffer, then appended.
fn split_zero_words(values: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut masks = Vec::with_capacity(values.len().div_ceil(64));
    let mut kept = Vec::new();
    let mut gathered = [0.0; 64];
    for block in values.chunks(64) {
        let mut mask = 0u64;
        let mut k = 0;
        for (j, &v) in block.iter().enumerate() {
            let keep = v.to_bits() != 0;
            gathered[k] = v;
            k += usize::from(keep);
            mask |= u64::from(keep) << j;
        }
        masks.push(f64::from_bits(mask));
        kept.extend_from_slice(&gathered[..k]);
    }
    (masks, kept)
}

/// Write `v` as a LEB128 varint to the front of `out`; returns its length.
fn put_varint(out: &mut [u8], mut v: u64) -> usize {
    let mut at = 0;
    while v >= 0x80 {
        out[at] = (v & 0x7f) as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Write one RLE run, its varint length and then its byte, to the front
/// of `out`; returns its length.
fn put_run(out: &mut [u8], len: usize, b: u8) -> usize {
    match out.get_mut(..2) {
        Some(pair) if len < 0x80 => {
            pair.copy_from_slice(&[len as u8, b]);
            2
        }
        _ => {
            let at = put_varint(out, len as u64);
            out[at] = b;
            at + 1
        }
    }
}

/// The little-endian word at `bytes[at..at + 8]`.
fn word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Write the `n` bytes of every raw plane, `raw[p]` for plane `p`, eight
/// values at a time: one 8×8 byte transpose of eight words gives each
/// plane its eight bytes. Without a raw plane there is nothing to write.
fn write_raw(values: &[f64], mut raw: [Option<&mut [u8]>; 8]) {
    if raw.iter().all(Option::is_none) {
        return;
    }
    let whole = values.len() / 8 * 8;
    for (at, group) in (0..).step_by(8).zip(values.chunks_exact(8)) {
        let rows = transpose8(std::array::from_fn(|j| group[j].to_bits()));
        for (dst, row) in raw.iter_mut().zip(rows) {
            if let Some(dst) = dst {
                dst[at..at + 8].copy_from_slice(&row.to_le_bytes());
            }
        }
    }
    for (p, dst) in raw.iter_mut().enumerate() {
        if let Some(dst) = dst {
            for (byte, &v) in dst[whole..].iter_mut().zip(&values[whole..]) {
                *byte = plane_byte(v, p);
            }
        }
    }
}

/// Write plane `p` of `values` as a dictionary of the byte set `seen`
/// into `out`, which is exactly the plan's cost long.
fn write_dict(out: &mut [u8], values: &[f64], opens: &[[u64; 8]], p: usize, seen: [u64; 4]) {
    // The ascending dictionary and each byte's code in it.
    let mut table = [0u8; 256];
    let mut d = 0;
    out[0] = PLANE_DICT;
    for (w, mut bits) in seen.into_iter().enumerate() {
        while bits != 0 {
            let b = w * 64 + bits.trailing_zeros() as usize;
            out[2 + d] = b as u8;
            table[b] = d as u8;
            d += 1;
            bits &= bits - 1;
        }
    }
    out[1] = d as u8;
    let out = &mut out[2 + d..];
    let code = |v: f64| table[usize::from(plane_byte(v, p))];
    match code_width(d) {
        0 => {}
        1 => flip_codes(out, opens, p, values.len(), code(values[0])),
        2 => pack_codes::<2>(out, values, code),
        3 => pack_codes::<3>(out, values, code),
        _ => pack_codes::<4>(out, values, code),
    }
}

/// Write plane `p` of `values` as its `runs` runs into `out`, which is
/// exactly the plan's cost long. RLE is never planned for an empty plane.
fn write_rle(out: &mut [u8], values: &[f64], opens: &[[u64; 8]], p: usize, runs: usize) {
    out[0] = PLANE_RLE;
    let mut at = 1 + put_varint(&mut out[1..], runs as u64);
    let mut start = 0;
    let mut byte = plane_byte(values[0], p);
    for ((base, block), o) in (0..).step_by(64).zip(values.chunks(64)).zip(opens) {
        let mut bits = o[p];
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            at += put_run(&mut out[at..], base + j - start, byte);
            byte = plane_byte(block[j], p);
            start = base + j;
        }
    }
    put_run(&mut out[at..], values.len() - start, byte);
}

/// The 1-bit codes of a two-entry dictionary plane: the code starts at
/// `first` and flips at every run open (a prefix XOR of the bitmap).
fn flip_codes(out: &mut [u8], opens: &[[u64; 8]], p: usize, n: usize, first: u8) {
    let mut carry = 0u64.wrapping_sub(u64::from(first));
    for (dst, o) in out.chunks_mut(8).zip(opens) {
        let mut x = o[p];
        for shift in [1, 2, 4, 8, 16, 32] {
            x ^= x << shift;
        }
        let codes = x ^ carry;
        carry = 0u64.wrapping_sub(codes >> 63);
        dst.copy_from_slice(&codes.to_le_bytes()[..dst.len()]);
    }
    // Code bits past the last value stay zero.
    if let Some(last) = out.last_mut().filter(|_| n % 8 != 0) {
        *last &= (1 << (n % 8)) - 1;
    }
}

/// Bit-pack `codes` at `K` bits each, LSB-first, into `out` (exactly
/// `ceil(len·K / 8)` bytes): every eight codes fill `K` whole bytes.
fn pack_codes<const K: usize>(out: &mut [u8], values: &[f64], code: impl Fn(f64) -> u8) {
    let pack = |group: &[f64]| {
        let mut acc = 0u32;
        for (j, &v) in group.iter().enumerate() {
            acc |= u32::from(code(v)) << (j * K);
        }
        acc.to_le_bytes()
    };
    let groups = values.chunks_exact(8);
    let last = pack(groups.remainder());
    let (full, tail) = out.split_at_mut(values.len() / 8 * K);
    for (dst, group) in full.chunks_exact_mut(K).zip(groups) {
        dst.copy_from_slice(&pack(group)[..K]);
    }
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Inverse of [`pack_codes`]: OR into each word the pre-shifted entry of
/// `lut` its code names, or fail if any code is `d` or more.
fn unpack_codes<const K: usize>(
    words: &mut [u64],
    code_bytes: &[u8],
    lut: &[u64; 16],
    d: usize,
) -> Result<(), SparsedistError> {
    let mask = (1u32 << K) - 1;
    let mut past_end = false;
    let mut unpack = |dst: &mut [u64], src: &[u8]| {
        let mut w = [0u8; 4];
        w[..src.len()].copy_from_slice(src);
        let acc = u32::from_le_bytes(w);
        for (j, word) in dst.iter_mut().enumerate() {
            let code = ((acc >> (j * K)) & mask) as usize;
            *word |= lut[code];
            past_end |= code >= d;
        }
    };
    // Every eight codes fill `K` whole bytes; only the last group is short.
    let (full, tail) = code_bytes.split_at(words.len() / 8 * K);
    let mut groups = words.chunks_exact_mut(8);
    for (dst, src) in (&mut groups).zip(full.chunks_exact(K)) {
        unpack(dst, src);
    }
    unpack(groups.into_remainder(), tail);
    if past_end {
        return Err(codec_err("value-plane dictionary code out of range").into());
    }
    Ok(())
}

/// OR a run of `len` copies of `bits` into the words after the first
/// `filled`, or return `false` if it does not fit. A run of zero bytes
/// only advances `filled`.
fn or_run(words: &mut [u64], filled: &mut usize, len: usize, bits: u64) -> bool {
    let Some(run) = words[*filled..].get_mut(..len) else {
        return false;
    };
    if bits != 0 {
        run.iter_mut().for_each(|w| *w |= bits);
    }
    *filled += len;
    true
}

/// OR the `n` bytes of every raw plane, `raw[p]` for plane `p`, and the
/// bytes of the constant planes, `constant`, into place in `words`, eight
/// values at a time: one 8×8 byte transpose of eight bytes from each raw
/// plane gives the eight words their bytes.
fn or_raw(words: &mut [u64], raw: [Option<&[u8]>; 8], constant: u64) {
    if raw.iter().all(Option::is_none) {
        if constant != 0 {
            words.iter_mut().for_each(|w| *w |= constant);
        }
        return;
    }
    let whole = words.len() / 8 * 8;
    let mut rows = [0u64; 8];
    for (at, group) in (0..).step_by(8).zip(words.chunks_exact_mut(8)) {
        for (row, bytes) in rows.iter_mut().zip(&raw) {
            if let Some(b) = bytes {
                *row = word(b, at);
            }
        }
        for (w, row) in group.iter_mut().zip(transpose8(rows)) {
            *w |= row | constant;
        }
    }
    for (i, w) in words.iter_mut().enumerate().skip(whole) {
        *w |= constant;
        for (p, bytes) in raw.iter().enumerate() {
            if let Some(bytes) = bytes {
                *w |= u64::from(bytes[i]) << (8 * p);
            }
        }
    }
}

/// Read back `n` words written as 8 planes by [`Planes::write`]; `n`
/// times 8 must not overflow. An empty run reads nothing.
fn decode_planes(cursor: &mut UnpackCursor<'_>, n: usize) -> Result<Vec<u64>, SparsedistError> {
    let mut words = vec![0u64; n];
    if n == 0 {
        return Ok(words);
    }
    let mut raw = [None; 8];
    let mut constant = 0;
    for (p, slot) in raw.iter_mut().enumerate() {
        *slot = decode_plane(cursor, &mut words, &mut constant, p)?;
    }
    or_raw(&mut words, raw, constant);
    Ok(words)
}

/// Read back the `n` words of a [`PLANE_MASKED`] section after its tag:
/// the nonzero masks, then the words they keep, scattered by the mask
/// bits into +0.0 everywhere else.
fn decode_masked(cursor: &mut UnpackCursor<'_>, n: usize) -> Result<Vec<u64>, SparsedistError> {
    let masks = decode_planes(cursor, n.div_ceil(64))?;
    let tail = n % 64;
    if tail != 0 && masks.last().is_some_and(|&m| m >> tail != 0) {
        return Err(codec_err("value-plane mask bit past the value count").into());
    }
    let k = masks.iter().map(|m| m.count_ones() as usize).sum();
    let kept = decode_planes(cursor, k)?;
    let mut words = vec![0u64; n];
    let mut at = 0;
    for (block, &mask) in words.chunks_mut(64).zip(&masks) {
        let mut bits = mask;
        while bits != 0 {
            block[bits.trailing_zeros() as usize] = kept[at];
            at += 1;
            bits &= bits - 1;
        }
    }
    Ok(words)
}

/// Read back plane `p`. A raw plane's bytes are returned and a constant
/// plane's byte is ORed into `constant`, both for [`or_raw`]; any other
/// plane ORs its bytes into place in `words` (the message's `n` values,
/// zeroed before the first plane).
fn decode_plane<'a>(
    cursor: &mut UnpackCursor<'a>,
    words: &mut [u64],
    constant: &mut u64,
    p: usize,
) -> Result<Option<&'a [u8]>, SparsedistError> {
    let n = words.len();
    let shift = 8 * p;
    let tag = cursor.try_read_raw(1)?[0];
    match tag {
        PLANE_RAW => {
            guard_count(cursor, n, 1)?;
            return Ok(Some(cursor.try_read_raw(n)?));
        }
        PLANE_DICT => {
            let d = cursor.try_read_raw(1)?[0] as usize;
            if !(1..=16).contains(&d) {
                return Err(codec_err("value-plane dictionary size out of range").into());
            }
            let dict = cursor.try_read_raw(d)?;
            let k = code_width(d);
            let nbytes = n
                .checked_mul(k as usize)
                .ok_or(codec_err("value-plane code stream overflows"))?
                .div_ceil(8);
            let code_bytes = cursor.try_read_raw(nbytes)?;
            // Code `c` ORs in `lut[c]`; codes past the dictionary OR in 0
            // and fail once the plane is read.
            let mut lut = [0u64; 16];
            for (entry, &b) in lut.iter_mut().zip(dict) {
                *entry = u64::from(b) << shift;
            }
            let unpack = match k {
                0 => {
                    *constant |= lut[0];
                    return Ok(None);
                }
                1 => unpack_codes::<1>,
                2 => unpack_codes::<2>,
                3 => unpack_codes::<3>,
                _ => unpack_codes::<4>,
            };
            unpack(words, code_bytes, &lut, d)?;
        }
        PLANE_RLE => {
            let nruns = cursor.try_read_varint()? as usize;
            guard_count(cursor, nruns, 2)?;
            let mut filled = 0;
            let exceed = || codec_err("value-plane RLE runs exceed the value count");
            let mut left = nruns;
            while left > 0 {
                // Most runs are one length byte and the value byte: parse
                // a stretch of those straight from the bytes.
                let stretch = (2 * left).min(cursor.remaining());
                let pairs = cursor.clone().try_read_raw(stretch)?;
                let mut short = 0;
                let mut fits = true;
                for pair in pairs.chunks_exact(2) {
                    let len = usize::from(pair[0]);
                    if !(1..0x80).contains(&len) {
                        break;
                    }
                    short += 1;
                    fits = or_run(words, &mut filled, len, u64::from(pair[1]) << shift);
                    if !fits {
                        break;
                    }
                }
                cursor.try_read_raw(2 * short)?;
                if !fits {
                    return Err(exceed().into());
                }
                left -= short;
                if left == 0 {
                    break;
                }
                // Any other run reads field by field, so errors name the
                // same offsets.
                let len = cursor.try_read_varint()? as usize;
                if len == 0 {
                    return Err(codec_err("value-plane RLE run of length zero").into());
                }
                let b = cursor.try_read_raw(1)?[0];
                if !or_run(words, &mut filled, len, u64::from(b) << shift) {
                    return Err(exceed().into());
                }
                left -= 1;
            }
            if filled != n {
                return Err(codec_err("value-plane RLE runs fall short of the value count").into());
            }
        }
        _ => return Err(codec_err("unknown value-plane tag").into()),
    }
    Ok(None)
}

/// Exact byte cost of the [`IDX_PACKED`] encoding of the index stream.
fn packed_index_bytes(pointer: &[usize], indices: &[usize]) -> usize {
    packed_size(firsts(pointer, indices)) + packed_size(within(pointer, indices))
}

#[cfg(test)]
mod tests {
    use super::super::codec::{codec_for, V3_PACKED};
    use super::super::WireFormat;
    use super::*;

    fn fig7_triple() -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (
            vec![0, 2, 2, 5],
            vec![1, 6, 0, 3, 7],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
    }

    fn roundtrip_triple(desc: u8) {
        let (ro, co, vl) = fig7_triple();
        let mut b = PackBuffer::new();
        V3_PACKED.begin_message(&mut b, desc);
        V3_PACKED.encode_indices(&mut b, &ro, &co, desc);
        V3_PACKED.encode_values(&mut b, &vl, desc);
        assert_eq!(
            b.elem_count(),
            (ro.len() + 2 * vl.len()) as u64,
            "desc {desc:#05b}: element count must be format-independent"
        );
        let mut c = b.cursor();
        assert_eq!(V3_PACKED.open_message(&mut c).unwrap(), desc);
        let (ro2, co2) = V3_PACKED
            .decode_indices(&mut c, ro.len() - 1, desc)
            .unwrap();
        let vl2 = V3_PACKED.decode_values(&mut c, vl.len(), desc).unwrap();
        assert!(c.is_exhausted(), "desc {desc:#05b}");
        assert_eq!((ro2, co2, vl2), (ro, co, vl), "desc {desc:#05b}");
    }

    #[test]
    fn triple_round_trips_under_every_descriptor() {
        for idx in [IDX_RAW, IDX_DELTA, IDX_PACKED] {
            for val in [0, VAL_PLANES] {
                roundtrip_triple(idx | val);
            }
        }
    }

    #[test]
    fn pairs_round_trip_with_ed_element_count() {
        let (ro, co, vl) = fig7_triple();
        for idx in [IDX_RAW, IDX_DELTA, IDX_PACKED] {
            let desc = idx | VAL_PLANES;
            let mut b = PackBuffer::new();
            V3_PACKED.begin_message(&mut b, desc);
            V3_PACKED.encode_pairs(&mut b, &ro, &co, &vl, desc);
            // ED element count: one count per segment + 2·nnz.
            assert_eq!(b.elem_count(), (ro.len() - 1 + 2 * vl.len()) as u64);
            let mut c = b.cursor();
            assert_eq!(V3_PACKED.open_message(&mut c).unwrap(), desc);
            let (ro2, co2, vl2) = V3_PACKED.decode_pairs(&mut c, ro.len() - 1, desc).unwrap();
            assert!(c.is_exhausted());
            assert_eq!((ro2, co2, vl2), (ro.clone(), co.clone(), vl.clone()));
        }
    }

    #[test]
    fn empty_segments_and_empty_messages_round_trip() {
        for (ro, co) in [
            (vec![0usize, 0, 0, 0], vec![]),
            (vec![0usize], vec![]),
            (vec![0usize, 0, 3, 3, 4], vec![7, 8, 9, 2]),
        ] {
            let vl: Vec<f64> = co.iter().map(|&i| i as f64).collect();
            for idx in [IDX_RAW, IDX_DELTA, IDX_PACKED] {
                let desc = idx | VAL_PLANES;
                let mut b = PackBuffer::new();
                V3_PACKED.begin_message(&mut b, desc);
                V3_PACKED.encode_indices(&mut b, &ro, &co, desc);
                V3_PACKED.encode_values(&mut b, &vl, desc);
                let mut c = b.cursor();
                assert_eq!(V3_PACKED.open_message(&mut c).unwrap(), desc);
                let (ro2, co2) = V3_PACKED
                    .decode_indices(&mut c, ro.len() - 1, desc)
                    .unwrap();
                let vl2 = V3_PACKED.decode_values(&mut c, vl.len(), desc).unwrap();
                assert_eq!((ro2, co2, vl2), (ro.clone(), co.clone(), vl.clone()));
            }
        }
    }

    #[test]
    fn packed_descriptor_shrinks_a_dense_run() {
        // A dense row: 500 consecutive indices, constant-ish values.
        let pointer = vec![0usize, 500];
        let indices: Vec<usize> = (100..600).collect();
        let values: Vec<f64> = (0..500).map(|i| 1.0 + (i % 16) as f64 / 16.0).collect();
        let mut packed = PackBuffer::new();
        let desc = IDX_PACKED | VAL_PLANES;
        V3_PACKED.begin_message(&mut packed, desc);
        V3_PACKED.encode_indices(&mut packed, &pointer, &indices, desc);
        V3_PACKED.encode_values(&mut packed, &values, desc);

        let mut raw = PackBuffer::new();
        V3_PACKED.begin_message(&mut raw, IDX_RAW);
        V3_PACKED.encode_indices(&mut raw, &pointer, &indices, IDX_RAW);
        V3_PACKED.encode_values(&mut raw, &values, IDX_RAW);

        assert_eq!(packed.elem_count(), raw.elem_count());
        // Consecutive indices pack to ~0 bits; 16 distinct values leave
        // at most two meaningful mantissa planes.
        assert!(
            packed.byte_len() * 4 < raw.byte_len(),
            "packed {} vs raw {}",
            packed.byte_len(),
            raw.byte_len()
        );
    }

    #[test]
    fn v3_receiver_rejects_v2_headers() {
        // The retired v2 header ('S2' plus its flag byte) is not v3 magic:
        // the receiver reports the found bytes typed instead of decoding.
        for flags in [0b00, 0b10, 0b11] {
            let mut b = PackBuffer::new();
            b.push_raw(&[b'S', b'2', flags]);
            b.push_varint(0);
            assert_eq!(
                V3_PACKED.open_message(&mut b.cursor()),
                Err(CompressError::WireHeader {
                    found: [b'S', b'2', flags]
                })
            );
        }
    }

    #[test]
    fn malformed_v3_streams_error_without_panicking() {
        let (ro, co, vl) = fig7_triple();
        let desc = IDX_PACKED | VAL_PLANES;
        let mut b = PackBuffer::new();
        V3_PACKED.begin_message(&mut b, desc);
        V3_PACKED.encode_indices(&mut b, &ro, &co, desc);
        V3_PACKED.encode_values(&mut b, &vl, desc);
        let bytes = b.as_bytes();
        // Truncations at every interesting boundary.
        for cut in 0..bytes.len() {
            let mut t = PackBuffer::new();
            t.push_raw(&bytes[..cut]);
            let mut c = t.cursor();
            let r = V3_PACKED.open_message(&mut c).and_then(|desc| {
                let (p, _) = V3_PACKED
                    .decode_indices(&mut c, ro.len() - 1, desc)
                    .map_err(|_| CompressError::Codec { reason: "idx" })?;
                V3_PACKED
                    .decode_values(&mut c, p.last().copied().unwrap_or(0), desc)
                    .map_err(|_| CompressError::Codec { reason: "val" })?;
                Ok(())
            });
            assert!(r.is_err(), "cut at {cut} of {}", bytes.len());
        }
        // Reserved descriptor bits and the invalid index codec.
        for bad in [0b1000u8, 0b11] {
            let mut t = PackBuffer::new();
            t.push_raw(&[b'S', b'3', bad]);
            assert!(V3_PACKED.open_message(&mut t.cursor()).is_err(), "{bad:#b}");
        }
        // Wrong magic entirely.
        let mut t = PackBuffer::new();
        t.push_raw(&[b'X', b'3', 0]);
        assert!(V3_PACKED.open_message(&mut t.cursor()).is_err());
    }

    #[test]
    fn malformed_value_planes_are_typed_errors() {
        fn try_decode(payload: &[u8], n: usize) -> Result<Vec<f64>, SparsedistError> {
            let mut b = PackBuffer::new();
            b.push_raw(payload);
            let mut c = b.cursor();
            V3_PACKED.decode_values(&mut c, n, VAL_PLANES)
        }
        let codec = |reason| Err(SparsedistError::from(CompressError::Codec { reason }));
        let unpack = |at, remaining| {
            Err(SparsedistError::Unpack(
                sparsedist_multicomputer::pack::UnpackError { at, remaining },
            ))
        };
        // A raw plane shorter than the value count.
        assert_eq!(try_decode(&[PLANE_RAW, 1, 2], 5), unpack(1, 2));
        // Dictionary size 0 and 17 are out of range.
        let size = "value-plane dictionary size out of range";
        assert_eq!(try_decode(&[PLANE_DICT, 0], 1), codec(size));
        assert_eq!(try_decode(&[PLANE_DICT, 17], 1), codec(size));
        // Code 3 of a three-entry dictionary (2-bit codes 0, 1, 2, 3).
        assert_eq!(
            try_decode(&[PLANE_DICT, 3, 5, 6, 7, 0b11_10_01_00], 4),
            codec("value-plane dictionary code out of range")
        );
        // RLE run of length zero.
        assert_eq!(
            try_decode(&[PLANE_RLE, 1, 0, 42], 1),
            codec("value-plane RLE run of length zero")
        );
        // RLE runs overshooting the value count, also after a long run.
        let exceed = "value-plane RLE runs exceed the value count";
        assert_eq!(try_decode(&[PLANE_RLE, 1, 9, 42], 1), codec(exceed));
        assert_eq!(
            try_decode(&[PLANE_RLE, 2, 0x80, 0x01, 1, 2, 2], 129),
            codec(exceed)
        );
        // RLE runs falling short.
        assert_eq!(
            try_decode(&[PLANE_RLE, 1, 1, 42], 3),
            codec("value-plane RLE runs fall short of the value count")
        );
        // Unknown plane tag.
        assert_eq!(try_decode(&[9], 1), codec("unknown value-plane tag"));
        // A two-byte run length cut after its first byte.
        assert_eq!(
            try_decode(&[PLANE_RLE, 2, 0x80, 0x01, 5, 0x80], 200),
            unpack(5, 1)
        );
        // A truncated RLE plane names the first missing field, also after
        // a multi-byte run length: here the last run's value byte.
        assert_eq!(
            try_decode(&[PLANE_RLE, 3, 0xad, 1, 64, 1, 63, 5], 179),
            unpack(8, 0)
        );
        // The second plane fails once the first decoded whole.
        assert_eq!(
            try_decode(&[PLANE_DICT, 1, 0, PLANE_RAW, 7], 2),
            unpack(4, 1)
        );
        // A masked section of 3 values whose one mask sets bit 5, then
        // bit 2: each plane a one-entry dictionary.
        let mask_planes = |mask: u64| -> Vec<u8> {
            (0..8)
                .flat_map(|p| [PLANE_DICT, 1, (mask >> (8 * p)) as u8])
                .collect()
        };
        assert_eq!(
            try_decode(&[&[PLANE_MASKED][..], &mask_planes(1 << 5)].concat(), 3),
            codec("value-plane mask bit past the value count")
        );
        // Bit 2 keeps value 2, whose planes are cut off.
        assert_eq!(
            try_decode(&[&[PLANE_MASKED][..], &mask_planes(1 << 2)].concat(), 3),
            unpack(25, 0)
        );
        // The masks and the kept words are plain planes: no nested mask.
        assert_eq!(
            try_decode(&[PLANE_MASKED, PLANE_MASKED], 3),
            codec("unknown value-plane tag")
        );
    }

    /// Values whose plane `p` is `bytes` and whose other planes are zero.
    fn values_with_plane(bytes: &[u8], p: usize) -> Vec<f64> {
        bytes
            .iter()
            .map(|&b| f64::from_bits(u64::from(b) << (8 * p)))
            .collect()
    }

    #[test]
    fn plane_encodings_pick_the_exact_minimum() {
        let plan = |bytes: &[u8]| {
            let values = values_with_plane(bytes, 5);
            plan_plane(&values, &plane_opens(&values), 5)
        };
        // Constant plane: dict (3 bytes) beats RLE (4) and raw (n+1).
        let (_, cost) = plan(&[7u8; 100]);
        assert_eq!(cost, 3);
        // Two alternating bytes: dict with 1-bit codes.
        let alt: Vec<u8> = (0..100).map(|i| if i % 2 == 0 { 3 } else { 9 }).collect();
        let (chosen, cost) = plan(&alt);
        assert!(matches!(chosen, PlanePlan::Dict(_)));
        assert_eq!(cost, 2 + 2 + 100usize.div_ceil(8));
        // High-entropy plane: raw.
        let noise: Vec<u8> = (0..=255u8).collect();
        let (chosen, cost) = plan(&noise);
        assert!(matches!(chosen, PlanePlan::Raw));
        assert_eq!(cost, 257);
        // Empty plane: raw tag only.
        let (_, cost) = plan(&[]);
        assert_eq!(cost, 1);
    }

    /// A small deterministic generator for the randomized checks.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }
    }

    /// The encoding [`write_plane`] must give a plane, built
    /// one byte at a time from explicit runs and a sorted dictionary.
    fn reference_plane(bytes: &[u8]) -> Vec<u8> {
        fn varint(out: &mut Vec<u8>, mut v: usize) {
            while v >= 0x80 {
                out.push((v & 0x7f) as u8 | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
        }
        let mut runs: Vec<(usize, u8)> = Vec::new();
        for &b in bytes {
            match runs.last_mut() {
                Some((len, last)) if *last == b => *len += 1,
                _ => runs.push((1, b)),
            }
        }
        let mut best = [&[PLANE_RAW][..], bytes].concat();
        let mut rle = vec![PLANE_RLE];
        varint(&mut rle, runs.len());
        for &(len, b) in &runs {
            varint(&mut rle, len);
            rle.push(b);
        }
        if rle.len() <= best.len() {
            best = rle;
        }
        let dict: std::collections::BTreeSet<u8> = bytes.iter().copied().collect();
        if dict.len() <= 16 {
            let dict: Vec<u8> = dict.into_iter().collect();
            let k = code_width(dict.len()) as usize;
            let mut out = vec![PLANE_DICT, dict.len() as u8];
            out.extend_from_slice(&dict);
            let mut codes = vec![0u8; (bytes.len() * k).div_ceil(8)];
            for (i, b) in bytes.iter().enumerate() {
                let code = dict.binary_search(b).unwrap();
                for bit in 0..k {
                    codes[(i * k + bit) / 8] |= ((code >> bit & 1) as u8) << ((i * k + bit) % 8);
                }
            }
            out.extend_from_slice(&codes);
            if out.len() <= best.len() {
                best = out;
            }
        }
        best
    }

    /// A random message length around the 8-value word and 64-value chunk
    /// boundaries, sometimes long enough for a 3-byte run length.
    fn random_len(rng: &mut Lcg) -> usize {
        match rng.below(8) {
            0 | 1 => rng.below(20),
            2 | 3 => 56 + rng.below(80),
            4..=6 => rng.below(400),
            _ => 16300 + rng.below(200),
        }
    }

    /// A random plane of `n` bytes: noise, a few distinct bytes, or runs.
    fn random_plane(rng: &mut Lcg, n: usize) -> Vec<u8> {
        let distinct = [1, 2, 3, 4, 5, 8, 9, 16, 17, 256][rng.below(10)] as u64;
        let mut bytes = Vec::with_capacity(n);
        while bytes.len() < n {
            let len = match rng.below(3) {
                0 => 1,
                1 => 1 + rng.below(12),
                _ => 1 + rng.below(300),
            };
            let b = (rng.next() % distinct) as u8;
            bytes.extend(std::iter::repeat_n(b, len.min(n - bytes.len())));
        }
        bytes
    }

    /// The 8 reference planes of `words`, nothing for an empty run.
    fn reference_planes(words: &[u64]) -> Vec<u8> {
        if words.is_empty() {
            return Vec::new();
        }
        (0..8)
            .flat_map(|p| {
                let bytes: Vec<u8> = words.iter().map(|w| (w >> (8 * p)) as u8).collect();
                reference_plane(&bytes)
            })
            .collect()
    }

    /// The value section the encoder must write for `values`: without a
    /// +0.0 word their 8 planes; with one, the masked tag, the planes of
    /// the masks (set bit by bit) and the planes of the kept words.
    fn reference_section(values: &[f64]) -> Vec<u8> {
        let words: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        if !words.contains(&0) {
            return reference_planes(&words);
        }
        let mut masks = vec![0u64; words.len().div_ceil(64)];
        for (i, &w) in words.iter().enumerate() {
            if w != 0 {
                masks[i / 64] |= 1 << (i % 64);
            }
        }
        let kept: Vec<u64> = words.into_iter().filter(|&w| w != 0).collect();
        [
            vec![PLANE_MASKED],
            reference_planes(&masks),
            reference_planes(&kept),
        ]
        .concat()
    }

    #[test]
    fn planes_match_a_per_byte_reference() {
        // Eight independent random planes per message, and in some
        // messages runs of +0.0 words: the encoder writes each section as
        // the reference does, the planner prices exactly what is written,
        // and every value decodes back bit for bit. The kept words' planes
        // are never longer than all the words' planes.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Lcg(7);
        let mut masked = 0;
        for case in 0..400 {
            let n = random_len(&mut rng);
            let planes: Vec<Vec<u8>> = (0..8).map(|_| random_plane(&mut rng, n)).collect();
            let mut values: Vec<f64> = (0..n)
                .map(|i| f64::from_le_bytes(std::array::from_fn(|p| planes[p][i])))
                .collect();
            if rng.below(2) == 0 {
                let keep = random_plane(&mut rng, n);
                for (v, k) in values.iter_mut().zip(keep) {
                    if k == 0 {
                        *v = 0.0;
                    }
                }
            }
            let mut buf = PackBuffer::new();
            V3_PACKED.encode_values(&mut buf, &values, VAL_PLANES);
            if n == 0 {
                assert!(buf.as_bytes().is_empty());
                continue;
            }
            let expect = reference_section(&values);
            assert_eq!(buf.as_bytes(), expect, "case {case}: n {n}");
            if expect[0] == PLANE_MASKED {
                masked += 1;
                let words = bits(&values);
                let kept: Vec<u64> = words.iter().copied().filter(|&w| w != 0).collect();
                assert!(
                    reference_planes(&kept).len() <= reference_planes(&words).len(),
                    "case {case}: dropping the zero words lengthened the planes"
                );
            }

            let mut c = buf.cursor();
            let back = V3_PACKED.decode_values(&mut c, n, VAL_PLANES).unwrap();
            assert!(c.is_exhausted());
            assert_eq!(bits(&back), bits(&values), "case {case}");
        }
        assert!(masked > 50, "only {masked} masked sections");
    }

    #[test]
    fn plane_opens_mark_every_byte_change() {
        // Sparse random bytes: runs and changes in every plane, at every
        // tail length of the 8-value groups and 64-value blocks.
        let mut rng = Lcg(11);
        for n in (0..=200usize).chain([1000, 4097]) {
            let values: Vec<f64> = (0..n)
                .map(|_| f64::from_bits((rng.next() << 31 | rng.next()) & rng.next() << 29))
                .collect();
            let opens = plane_opens(&values);
            assert_eq!(opens.len(), n.div_ceil(64));
            for p in 0..8 {
                let want: Vec<usize> = (1..n)
                    .filter(|&i| plane_byte(values[i], p) != plane_byte(values[i - 1], p))
                    .collect();
                let got: Vec<usize> = (0..64 * opens.len())
                    .filter(|&i| opens[i / 64][p] >> (i % 64) & 1 == 1)
                    .collect();
                assert_eq!(got, want, "n {n} plane {p}");
            }
        }
    }

    /// A random CRS-like part: sorted indices per segment, some segments
    /// empty, values with a few repeated high bytes.
    fn random_part(rng: &mut Lcg) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let mut pointer = vec![0];
        let mut indices = Vec::new();
        for _ in 0..40 {
            let mut at = rng.below(50);
            for _ in 0..rng.below(12) {
                indices.push(at);
                let gap = if rng.below(2) == 0 { 3 } else { 300 };
                at += 1 + rng.below(gap);
            }
            pointer.push(indices.len());
        }
        let values = indices
            .iter()
            .map(|_| 1.0 + rng.below(1 << 20) as f64 / 1024.0)
            .collect();
        (pointer, indices, values)
    }

    #[test]
    fn priced_bytes_equal_the_bytes_written() {
        for (pointer, indices, values) in [fig7_triple(), random_part(&mut Lcg(3))] {
            // Header and pointer run, common to every index codec.
            let mut head = PackBuffer::new();
            V3_PACKED.begin_message(&mut head, IDX_RAW);
            push_monotone_run(&mut head, &pointer);
            let priced = [
                (IDX_RAW, 8 * indices.len()),
                (IDX_PACKED, packed_index_bytes(&pointer, &indices)),
            ];
            for (desc, bytes) in priced {
                let mut b = PackBuffer::new();
                V3_PACKED.begin_message(&mut b, desc);
                V3_PACKED.encode_indices(&mut b, &pointer, &indices, desc);
                assert_eq!(b.byte_len() - head.byte_len(), bytes, "desc {desc}");
            }
            let mut b = PackBuffer::new();
            V3_PACKED.encode_values(&mut b, &values, VAL_PLANES);
            assert_eq!(b.elem_count(), values.len() as u64);
        }
    }

    #[test]
    fn codec_for_returns_v3() {
        let mut b = PackBuffer::new();
        codec_for(WireFormat::V3).begin_message(&mut b, IDX_PACKED);
        assert_eq!(b.as_bytes(), [b'S', b'3', IDX_PACKED]);
    }
}
