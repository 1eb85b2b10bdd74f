//! The v3 wire format: negotiated per-stream compression.
//!
//! A v3 message opens with `[b'S', b'3', desc]` where `desc` is the
//! **negotiation byte** the sender chose per message:
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
//! planes stay raw. Bit-exactness is preserved: the transpose is a
//! permutation of the original bytes.
//!
//! Which encodings the sender actually uses is the [`CodecChoice`]: the
//! default `packed` forces maximum shrink, while `auto` prices every
//! candidate against the α-β
//! [`sparsedist_multicomputer::MachineModel`] — bytes cost
//! `t_data / 8` each (the model charges `T_Data` per 8-byte element) and
//! encode work costs `t_op` per estimated operation — making the paper's
//! Remark-5 compress-or-not crossover a per-message runtime decision.
//!
//! Like every codec, v3 moves **bytes, never ops**: a message's logical
//! element count is identical under every `desc`, so all virtual-time
//! phase totals are format-independent.

use super::bitpack::{packed_size, take_packed, write_packed, PackedValues};
use super::codec::{guard_count, Codec, CodecChoice, WirePolicy};
use super::varint::{unzigzag, varint_len, zigzag, IndexRunReader, IndexRunWriter};
use super::{push_monotone_run, take_header, UnpackedTriple};
use crate::compress::CompressError;
use crate::error::SparsedistError;
use sparsedist_multicomputer::pack::{PackBuffer, UnpackCursor};
use std::cell::RefCell;

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

fn codec_err(reason: &'static str) -> CompressError {
    CompressError::Codec { reason }
}

/// The v3 codec. See the module docs for the byte layout.
pub struct V3Packed;

impl Codec for V3Packed {
    fn plan(
        &self,
        _index_bound: usize,
        pointer: &[usize],
        indices: &[usize],
        values: &[f64],
        policy: &WirePolicy,
    ) -> u8 {
        match policy.choice {
            CodecChoice::Raw => IDX_RAW,
            CodecChoice::Delta => IDX_DELTA,
            CodecChoice::Packed => IDX_PACKED | VAL_PLANES,
            CodecChoice::Auto => auto_desc(pointer, indices, values, policy),
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
        let n = values.len();
        with_planes(n, |planes| {
            let plans = plan_planes(values, planes);
            let total = plans.iter().map(|(_, cost)| cost).sum();
            let out = buf.push_zeroed(total, n as u64);
            let mut at = 0;
            for ((plan, cost), plane) in plans.iter().zip(planes.chunks_exact(n)) {
                write_plane(&mut out[at..at + cost], plane, plan);
                at += cost;
            }
        });
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
        with_planes(n, |planes| {
            for plane in planes.chunks_exact_mut(n) {
                decode_plane(cursor, plane)?;
            }
            Ok(join_planes(planes, n))
        })
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

thread_local! {
    /// The eight byte planes of the message being encoded or decoded,
    /// kept per thread so consecutive messages reuse one allocation.
    static PLANES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's plane scratch, sized to 8 planes of `n`
/// bytes: plane `p` is `planes[p·n..][..n]`.
fn with_planes<R>(n: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    PLANES.with_borrow_mut(|planes| {
        if planes.len() < 8 * n {
            planes.resize(8 * n, 0);
        }
        f(&mut planes[..8 * n])
    })
}

/// The little-endian word at `bytes[at..at + 8]`.
fn word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
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

/// Write little-endian byte `p` of every value into plane `p` of
/// `planes` (see [`with_planes`]), eight values per transpose.
fn split_planes(values: &[f64], planes: &mut [u8]) {
    let n = values.len();
    let whole = n - n % 8;
    for (b, block) in values[..whole].chunks_exact(8).enumerate() {
        let rows = transpose8(std::array::from_fn(|i| block[i].to_bits()));
        for (p, row) in rows.iter().enumerate() {
            planes[p * n + 8 * b..][..8].copy_from_slice(&row.to_le_bytes());
        }
    }
    for (i, v) in values.iter().enumerate().skip(whole) {
        for (p, byte) in v.to_le_bytes().into_iter().enumerate() {
            planes[p * n + i] = byte;
        }
    }
}

/// Inverse of [`split_planes`]: reassemble the `n` values.
fn join_planes(planes: &[u8], n: usize) -> Vec<f64> {
    let whole = n - n % 8;
    let mut out = Vec::with_capacity(n);
    for at in (0..whole).step_by(8) {
        let rows = transpose8(std::array::from_fn(|p| word(planes, p * n + at)));
        out.extend(rows.map(f64::from_bits));
    }
    for i in whole..n {
        out.push(f64::from_le_bytes(std::array::from_fn(|p| {
            planes[p * n + i]
        })));
    }
    out
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

/// Multiplier that gathers bit `8j` of a word into bit `56 + j`.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// Bit `j` is set iff `chunk[j]` (at most 64 bytes) differs from the
/// byte before it — `prev` for `j = 0` — i.e. iff a new run opens there.
/// Eight bytes are compared at a time, against themselves shifted back
/// one byte.
fn run_opens(chunk: &[u8], prev: u8) -> u64 {
    let mut opens = 0;
    let mut last = u64::from(prev) << 56;
    let words = chunk.chunks_exact(8);
    let tail = words.remainder();
    for (k, w) in words.enumerate() {
        let cur = word(w, 0);
        let diff = cur ^ (cur << 8 | last >> 56);
        last = cur;
        // The top bit of each nonzero byte (adding 0x7f cannot carry out
        // of a byte whose top bit is masked off), one bit per byte.
        let tops = (((diff & LOW7) + LOW7) | diff) & !LOW7;
        opens |= ((tops >> 7).wrapping_mul(GATHER) >> 56) << (8 * k);
    }
    let mut prev = (last >> 56) as u8;
    for (j, &b) in tail.iter().enumerate() {
        opens |= u64::from(b != prev) << (chunk.len() - tail.len() + j);
        prev = b;
    }
    opens
}

/// [`run_opens`] of each 64-byte chunk of a plane, with the chunk's
/// offset.
fn chunk_opens(bytes: &[u8]) -> impl Iterator<Item = (usize, u64)> + '_ {
    let mut prev = bytes.first().copied().unwrap_or_default();
    bytes.chunks(64).enumerate().map(move |(k, chunk)| {
        let opens = run_opens(chunk, prev);
        prev = chunk[chunk.len() - 1];
        (64 * k, opens)
    })
}

/// The run count and exact byte cost of the RLE encoding of a plane, or
/// `None` once that cost is known to exceed `limit`.
fn rle_census(bytes: &[u8], limit: usize) -> Option<(usize, usize)> {
    let mut runs = usize::from(!bytes.is_empty());
    // Bytes that run lengths add beyond one varint byte each.
    let mut long = 0;
    let mut start = 0;
    for (base, opens) in chunk_opens(bytes) {
        if opens == 0 {
            continue;
        }
        runs += opens.count_ones() as usize;
        // Only the first run a chunk closes can be 64 bytes or longer.
        long += varint_len((base + opens.trailing_zeros() as usize - start) as u64) - 1;
        start = base + 63 - opens.leading_zeros() as usize;
        // An RLE plane costs at least its tag, a count byte and two
        // bytes a run.
        if 2 + 2 * runs + long > limit {
            return None;
        }
    }
    if !bytes.is_empty() {
        long += varint_len((bytes.len() - start) as u64) - 1;
    }
    let cost = 1 + varint_len(runs as u64) + 2 * runs + long;
    (cost <= limit).then_some((runs, cost))
}

/// The distinct bytes of a plane as a 256-bit set, or `None` if there
/// are more than 16.
fn dict_census(bytes: &[u8]) -> Option<[u64; 4]> {
    let mut seen = [false; 256];
    for chunk in bytes.chunks(64) {
        for &b in chunk {
            seen[usize::from(b)] = true;
        }
        if seen.iter().filter(|&&s| s).count() > 16 {
            return None;
        }
    }
    let mut set = [0u64; 4];
    for (b, _) in seen.iter().enumerate().filter(|(_, &s)| s) {
        set[b / 64] |= 1 << (b % 64);
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

/// Pick the smallest encoding for a plane and return it with its exact
/// byte cost (including the tag byte). Ties break dictionary < RLE < raw
/// so the choice — and therefore the stream — is deterministic.
fn plan_plane(bytes: &[u8]) -> (PlanePlan, usize) {
    let n = bytes.len();
    let mut best = (PlanePlan::Raw, 1 + n);
    if let Some((runs, cost)) = rle_census(bytes, best.1) {
        best = (PlanePlan::Rle(runs), cost);
    }
    if let Some(set) = dict_census(bytes) {
        let d = set.iter().map(|w| w.count_ones() as usize).sum();
        let cost = 2 + d + (n * code_width(d) as usize).div_ceil(8);
        if cost <= best.1 {
            best = (PlanePlan::Dict(set), cost);
        }
    }
    best
}

/// Transpose `values` into `planes` and plan every plane.
fn plan_planes(values: &[f64], planes: &mut [u8]) -> [(PlanePlan, usize); 8] {
    split_planes(values, planes);
    let n = values.len();
    std::array::from_fn(|p| plan_plane(&planes[p * n..][..n]))
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

/// Write one plane under its plan into `out`, which is exactly the plan's
/// cost long.
fn write_plane(out: &mut [u8], bytes: &[u8], plan: &PlanePlan) {
    match *plan {
        PlanePlan::Raw => {
            out[0] = PLANE_RAW;
            out[1..].copy_from_slice(bytes);
        }
        PlanePlan::Dict(seen) => {
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
            let codes = bytes.iter().map(|&b| table[usize::from(b)]);
            match code_width(d) {
                0 => {}
                1 => pack_codes::<1>(out, codes),
                2 => pack_codes::<2>(out, codes),
                3 => pack_codes::<3>(out, codes),
                _ => pack_codes::<4>(out, codes),
            }
        }
        PlanePlan::Rle(runs) => {
            out[0] = PLANE_RLE;
            let mut at = 1 + put_varint(&mut out[1..], runs as u64);
            let mut start = 0;
            for (base, mut opens) in chunk_opens(bytes) {
                while opens != 0 {
                    let pos = base + opens.trailing_zeros() as usize;
                    at += put_varint(&mut out[at..], (pos - start) as u64);
                    out[at] = bytes[start];
                    at += 1;
                    start = pos;
                    opens &= opens - 1;
                }
            }
            // RLE is never planned for an empty plane.
            at += put_varint(&mut out[at..], (bytes.len() - start) as u64);
            out[at] = bytes[start];
        }
    }
}

/// Bit-pack `codes` at `K` bits each, LSB-first, into `out` (exactly
/// `ceil(len·K / 8)` bytes): every eight codes fill `K` whole bytes.
fn pack_codes<const K: usize>(out: &mut [u8], mut codes: impl Iterator<Item = u8>) {
    let whole = out.len() / K * K;
    let (full, tail) = out.split_at_mut(whole);
    let mut pack = |n: usize| {
        let mut acc = 0u32;
        for (j, c) in codes.by_ref().take(n).enumerate() {
            acc |= u32::from(c) << (j * K);
        }
        acc.to_le_bytes()
    };
    for dst in full.chunks_exact_mut(K) {
        dst.copy_from_slice(&pack(8)[..K]);
    }
    let last = pack(8);
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Inverse of [`pack_codes`]: fill `out` with the dictionary entries its
/// codes name, or fail if any code is past the dictionary.
fn unpack_codes<const K: usize>(
    out: &mut [u8],
    code_bytes: &[u8],
    dict: &[u8],
) -> Result<(), SparsedistError> {
    let mut lut = [0u8; 16];
    lut[..dict.len()].copy_from_slice(dict);
    let mask = (1u32 << K) - 1;
    let mut past_end = false;
    for (dst, src) in out.chunks_mut(8).zip(code_bytes.chunks(K)) {
        let mut w = [0u8; 4];
        // Whole groups take a fixed-size copy; only the last can be short.
        if let Ok(whole) = <[u8; K]>::try_from(src) {
            w[..K].copy_from_slice(&whole);
        } else {
            w[..src.len()].copy_from_slice(src);
        }
        let acc = u32::from_le_bytes(w);
        for (j, byte) in dst.iter_mut().enumerate() {
            let code = ((acc >> (j * K)) & mask) as usize;
            *byte = lut[code];
            past_end |= code >= dict.len();
        }
    }
    if past_end {
        return Err(codec_err("value-plane dictionary code out of range").into());
    }
    Ok(())
}

/// Append a run of `len` copies of `b` to the `filled` bytes of `out`,
/// or return `false` if it does not fit.
fn fill_run(out: &mut [u8], filled: &mut usize, len: usize, b: u8) -> bool {
    if len > out.len() - *filled {
        return false;
    }
    // A short run is one 16-byte write where it fits; the runs after it
    // overwrite the excess.
    match out.get_mut(*filled..*filled + 16) {
        Some(dst) if len <= 16 => dst.copy_from_slice(&[b; 16]),
        _ => out[*filled..*filled + len].fill(b),
    }
    *filled += len;
    true
}

/// Read back one plane into `out` (the plane's `n` bytes).
fn decode_plane(cursor: &mut UnpackCursor<'_>, out: &mut [u8]) -> Result<(), SparsedistError> {
    let n = out.len();
    let tag = cursor.try_read_raw(1)?[0];
    match tag {
        PLANE_RAW => {
            guard_count(cursor, n, 1)?;
            out.copy_from_slice(cursor.try_read_raw(n)?);
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
            if k == 0 {
                out.fill(dict[0]);
                return Ok(());
            }
            let unpack = match k {
                1 => unpack_codes::<1>,
                2 => unpack_codes::<2>,
                3 => unpack_codes::<3>,
                _ => unpack_codes::<4>,
            };
            unpack(out, code_bytes, dict)?;
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
                    fits = fill_run(out, &mut filled, len, pair[1]);
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
                if !fill_run(out, &mut filled, len, b) {
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
    Ok(())
}

/// Exact byte cost of the [`IDX_DELTA`] encoding of the index stream.
fn delta_index_bytes(pointer: &[usize], indices: &[usize]) -> usize {
    let mut total = 0;
    for seg in 0..pointer.len().saturating_sub(1) {
        let mut prev = 0u64;
        let mut fresh = true;
        for &idx in &indices[pointer[seg]..pointer[seg + 1]] {
            let v = idx as u64;
            total += varint_len(if fresh { v } else { v - prev });
            prev = v;
            fresh = false;
        }
    }
    total
}

/// Exact byte cost of the [`IDX_PACKED`] encoding of the index stream.
fn packed_index_bytes(pointer: &[usize], indices: &[usize]) -> usize {
    packed_size(firsts(pointer, indices)) + packed_size(within(pointer, indices))
}

/// Exact byte cost of the [`VAL_PLANES`] encoding of `values`.
fn planes_bytes(values: &[f64]) -> usize {
    with_planes(values.len(), |planes| {
        plan_planes(values, planes)
            .iter()
            .map(|(_, cost)| cost)
            .sum()
    })
}

/// The `auto` negotiator: price every candidate encoding of each stream
/// against the α-β model and keep the cheapest. A byte on the wire costs
/// `t_data / 8` (the model charges `T_Data` per 8-byte element); encode
/// work is estimated at `nnz / 4` ops for bit-packing an index stream
/// and one op per value for the plane transpose, while the raw and
/// delta paths ride the existing encode loops at no extra charge. This
/// is Remark 5's compress-or-not crossover decided per message at
/// runtime.
fn auto_desc(pointer: &[usize], indices: &[usize], values: &[f64], policy: &WirePolicy) -> u8 {
    let byte_t = policy.model.t_data / 8.0;
    let t_op = policy.model.t_op;

    let nnz = indices.len();
    let raw_bytes = 8 * nnz;
    let delta_bytes = delta_index_bytes(pointer, indices);
    let packed_bytes = packed_index_bytes(pointer, indices);
    let cheap_bytes = delta_bytes.min(raw_bytes);
    let packed_cost = packed_bytes as f64 * byte_t + (nnz as f64 / 4.0) * t_op;
    let idx = if packed_cost < cheap_bytes as f64 * byte_t {
        IDX_PACKED
    } else if delta_bytes <= raw_bytes {
        IDX_DELTA
    } else {
        IDX_RAW
    };

    let n = values.len();
    let val = if n > 0
        && planes_bytes(values) as f64 * byte_t + n as f64 * t_op < (8 * n) as f64 * byte_t
    {
        VAL_PLANES
    } else {
        0
    };

    idx | val
}

#[cfg(test)]
mod tests {
    use super::super::codec::{codec_for, V3_PACKED};
    use super::super::WireFormat;
    use super::*;
    use sparsedist_multicomputer::MachineModel;

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
        // Unknown plane tag.
        assert!(try_decode(&[9], 1).is_err());
        // Dictionary size 0 and 17 are out of range.
        assert!(try_decode(&[PLANE_DICT, 0], 1).is_err());
        assert!(try_decode(&[PLANE_DICT, 17], 1).is_err());
        // RLE run of length zero.
        assert!(try_decode(&[PLANE_RLE, 1, 0, 42], 1).is_err());
        // RLE runs overshooting the value count.
        assert!(try_decode(&[PLANE_RLE, 1, 9, 42], 1).is_err());
        // RLE runs falling short.
        assert!(try_decode(&[PLANE_RLE, 1, 1, 42], 3).is_err());
        // A truncated RLE plane names the first missing field, also after
        // a multi-byte run length: here the last run's value byte.
        assert_eq!(
            try_decode(&[PLANE_RLE, 3, 0xad, 1, 64, 1, 63, 5], 179),
            Err(SparsedistError::Unpack(
                sparsedist_multicomputer::pack::UnpackError {
                    at: 8,
                    remaining: 0
                }
            ))
        );
    }

    #[test]
    fn auto_negotiation_follows_the_machine_model() {
        // n=1000-ish realistic shape: sorted sparse indices, values in [1, 2).
        let nnz = 400;
        let pointer: Vec<usize> = (0..=100).map(|i| i * nnz / 100).collect();
        let indices: Vec<usize> = (0..nnz).map(|i| (i % 4) * 250 + i / 4).collect();
        let values: Vec<f64> = (0..nnz).map(|i| 1.0 + (i % 64) as f64 / 64.0).collect();
        let auto = |model: MachineModel| {
            let policy = WirePolicy::new(WireFormat::V3, CodecChoice::Auto, model);
            V3_PACKED.plan(1000, &pointer, &indices, &values, &policy)
        };
        // A network-bound machine pays dearly per byte: compress hard.
        assert_eq!(auto(MachineModel::network_bound()), IDX_PACKED | VAL_PLANES);
        // A compute-bound machine keeps the free delta varints but skips
        // the op-charged transforms.
        assert_eq!(auto(MachineModel::compute_bound()), IDX_DELTA);
        // The decision actually flips between models — Remark 5 at runtime.
        assert_ne!(
            auto(MachineModel::network_bound()),
            auto(MachineModel::compute_bound())
        );
    }

    #[test]
    fn plane_encodings_pick_the_exact_minimum() {
        // Constant plane: dict (3 bytes) beats RLE (4) and raw (n+1).
        let (_, cost) = plan_plane(&[7u8; 100]);
        assert_eq!(cost, 3);
        // Two alternating bytes: dict with 1-bit codes.
        let alt: Vec<u8> = (0..100).map(|i| if i % 2 == 0 { 3 } else { 9 }).collect();
        let (plan, cost) = plan_plane(&alt);
        assert!(matches!(plan, PlanePlan::Dict(_)));
        assert_eq!(cost, 2 + 2 + 100usize.div_ceil(8));
        // High-entropy plane: raw.
        let noise: Vec<u8> = (0..=255u8).collect();
        let (plan, cost) = plan_plane(&noise);
        assert!(matches!(plan, PlanePlan::Raw));
        assert_eq!(cost, 257);
        // Empty plane: raw tag only.
        let (_, cost) = plan_plane(&[]);
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

    /// The encoding [`plan_plane`] + [`write_plane`] must produce, built
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

    /// A random plane: noise, a few distinct bytes, or runs, at lengths
    /// around the 8-byte word and 64-byte chunk boundaries.
    fn random_plane(rng: &mut Lcg) -> Vec<u8> {
        let n = match rng.below(8) {
            0 | 1 => rng.below(20),
            2 | 3 => 56 + rng.below(80),
            4..=6 => rng.below(400),
            _ => 16300 + rng.below(200),
        };
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

    #[test]
    fn census_and_writer_match_a_per_byte_reference() {
        let mut rng = Lcg(7);
        for case in 0..2000 {
            let bytes = random_plane(&mut rng);
            let (plan, cost) = plan_plane(&bytes);
            let mut out = vec![0u8; cost];
            write_plane(&mut out, &bytes, &plan);
            assert_eq!(out, reference_plane(&bytes), "case {case}: {bytes:?}");

            let mut buf = PackBuffer::new();
            buf.push_raw(&out);
            let mut back = vec![0u8; bytes.len()];
            let mut c = buf.cursor();
            decode_plane(&mut c, &mut back).unwrap();
            assert!(c.is_exhausted());
            assert_eq!(back, bytes, "case {case}");
        }
    }

    #[test]
    fn planes_transpose_and_join_at_every_tail_length() {
        for n in 0..=20 {
            let values: Vec<f64> = (0..n as u64)
                .map(|i| f64::from_bits(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                .collect();
            let mut planes = vec![0u8; 8 * n];
            split_planes(&values, &mut planes);
            for (i, v) in values.iter().enumerate() {
                for (p, byte) in v.to_le_bytes().into_iter().enumerate() {
                    assert_eq!(planes[p * n + i], byte, "n {n} value {i} plane {p}");
                }
            }
            let back = join_planes(&planes, n);
            assert_eq!(
                back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
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
                (IDX_DELTA, delta_index_bytes(&pointer, &indices)),
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
            assert_eq!(b.byte_len(), planes_bytes(&values));
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
