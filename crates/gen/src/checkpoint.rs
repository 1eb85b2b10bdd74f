//! Checkpointing distributed sparse state to disk.
//!
//! Long-running sparse pipelines checkpoint their distributed arrays so a
//! later run (possibly with a different processor count, via
//! redistribution) can resume without repeating the distribution phase.
//! The format is deliberately simple and fully self-describing:
//!
//! ```text
//! <dir>/manifest.txt      "sparsedist-checkpoint v1\nranks <p>\n"
//! <dir>/rank_<i>.sdc      MAGIC, VERSION, kind, rows, cols,
//!                         pointer_len, pointer…, nnz, indices…, values…,
//!                         CRC32 (over everything before it)
//! ```
//!
//! All integers are little-endian `u64`, values are `f64` — the same wire
//! encoding the simulated machine uses, so the pack/unpack machinery is
//! reused verbatim. The trailing CRC32 word catches single-bit flips that
//! the structural validators cannot (e.g. a corrupted `f64` value).

use sparsedist_core::compress::{CompressError, CompressKind, LocalCompressed};
use sparsedist_core::error::SparsedistError;
use sparsedist_multicomputer::pack::crc32;
use sparsedist_multicomputer::PackBuffer;
use std::fmt;
use std::fs;
use std::path::Path;

const MAGIC: u64 = 0x5344_434b_3031_7673; // "SDCK01vs"
const VERSION: u64 = 2;

/// Error from saving or loading a checkpoint.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A rank file is malformed.
    Corrupt {
        /// Which rank's file.
        rank: usize,
        /// What was wrong.
        reason: String,
    },
    /// The manifest is missing or malformed.
    BadManifest(String),
    /// A rank file failed compressed-array validation.
    Invalid {
        /// Which rank's file.
        rank: usize,
        /// The structural violation.
        source: CompressError,
    },
    /// The loaded local arrays do not fit the partition they are resumed
    /// under (another partition, rank count or array shape).
    Layout(SparsedistError),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "i/o error: {e}"),
            CkptError::Corrupt { rank, reason } => write!(f, "rank {rank} file corrupt: {reason}"),
            CkptError::BadManifest(why) => write!(f, "bad manifest: {why}"),
            CkptError::Invalid { rank, source } => {
                write!(f, "rank {rank} array invalid: {source}")
            }
            CkptError::Layout(e) => write!(f, "checkpoint does not fit the partition: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// The kind word of each format: its position here.
const KINDS: [CompressKind; 2] = [CompressKind::Crs, CompressKind::Ccs];

fn encode(local: &LocalCompressed) -> PackBuffer {
    let mut buf = PackBuffer::new();
    buf.push_u64(MAGIC);
    buf.push_u64(VERSION);
    let kind = KINDS.iter().position(|&k| k == local.kind());
    // lint: allow(E002) — KINDS lists every CompressKind variant, so the position always exists
    buf.push_u64(kind.expect("KINDS lists every kind") as u64);
    let (rows, cols) = local.shape();
    buf.push_u64(rows as u64);
    buf.push_u64(cols as u64);
    buf.push_u64(local.pointer().len() as u64);
    buf.push_usize_slice(local.pointer());
    buf.push_u64(local.nnz() as u64);
    buf.push_usize_slice(local.indices());
    buf.push_f64_slice(local.values());
    let crc = buf.crc32();
    buf.push_u64(u64::from(crc));
    buf
}

fn decode(rank: usize, bytes: &[u8]) -> Result<LocalCompressed, CkptError> {
    let corrupt = |reason: &str| CkptError::Corrupt {
        rank,
        reason: reason.into(),
    };
    if bytes.len() % 8 != 0 {
        return Err(corrupt("length not a multiple of 8"));
    }
    // The last word is a CRC32 over everything before it; reject early on a
    // mismatch so bit flips surface as a checksum error, not a parse error.
    if bytes.len() < 3 * 8 {
        return Err(corrupt("too short for header and checksum"));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    // Identify the file type before integrity-checking it, so a wrong-magic
    // file reads as "not a checkpoint" rather than "corrupt checkpoint".
    let mut w = [0u8; 8];
    w.copy_from_slice(&body[..8]);
    if u64::from_le_bytes(w) != MAGIC {
        return Err(corrupt("bad magic"));
    }
    w.copy_from_slice(&body[8..16]);
    if u64::from_le_bytes(w) != VERSION {
        return Err(corrupt("unsupported version"));
    }
    w.copy_from_slice(footer);
    let stored = u64::from_le_bytes(w);
    let computed = u64::from(crc32(body));
    if stored != computed {
        return Err(corrupt(&format!(
            "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    let mut buf = PackBuffer::new();
    for chunk in body.chunks_exact(8) {
        let mut w = [0u8; 8];
        w.copy_from_slice(chunk);
        buf.push_u64(u64::from_le_bytes(w));
    }
    let mut c = buf.cursor();
    let mut next = |what: &str| {
        c.try_read_u64().map_err(|_| CkptError::Corrupt {
            rank,
            reason: format!("truncated at {what}"),
        })
    };
    if next("magic")? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if next("version")? != VERSION {
        return Err(corrupt("unsupported version"));
    }
    let kind = next("kind")?;
    let rows = next("rows")? as usize;
    let cols = next("cols")? as usize;
    let plen = next("pointer length")? as usize;
    if plen > bytes.len() / 8 {
        return Err(corrupt("pointer length exceeds file"));
    }
    let mut pointer = Vec::with_capacity(plen);
    for _ in 0..plen {
        pointer.push(next("pointer entries")? as usize);
    }
    let nnz = next("nnz")? as usize;
    if nnz > bytes.len() / 8 {
        return Err(corrupt("nnz exceeds file"));
    }
    let mut indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(next("indices")? as usize);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(c.try_read_f64().map_err(|_| CkptError::Corrupt {
            rank,
            reason: "truncated at values".into(),
        })?);
    }
    if !c.is_exhausted() {
        return Err(corrupt("trailing bytes"));
    }
    let kind = usize::try_from(kind)
        .ok()
        .and_then(|k| KINDS.get(k))
        .ok_or_else(|| corrupt(&format!("unknown kind {kind}")))?;
    LocalCompressed::from_raw(*kind, rows, cols, pointer, indices, values)
        .map_err(|source| CkptError::Invalid { rank, source })
}

/// Save a distributed array's local parts into `dir` (created if absent).
pub fn save(dir: impl AsRef<Path>, locals: &[LocalCompressed]) -> Result<(), CkptError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    fs::write(
        dir.join("manifest.txt"),
        format!("sparsedist-checkpoint v1\nranks {}\n", locals.len()),
    )?;
    for (rank, local) in locals.iter().enumerate() {
        fs::write(
            dir.join(format!("rank_{rank}.sdc")),
            encode(local).as_bytes(),
        )?;
    }
    Ok(())
}

/// Load a checkpoint saved by [`save`].
pub fn load(dir: impl AsRef<Path>) -> Result<Vec<LocalCompressed>, CkptError> {
    let dir = dir.as_ref();
    let manifest = fs::read_to_string(dir.join("manifest.txt"))
        .map_err(|e| CkptError::BadManifest(format!("cannot read manifest: {e}")))?;
    let mut lines = manifest.lines();
    if lines.next() != Some("sparsedist-checkpoint v1") {
        return Err(CkptError::BadManifest("unknown header line".into()));
    }
    let ranks: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("ranks "))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| CkptError::BadManifest("missing 'ranks <p>' line".into()))?;
    let mut out = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let bytes = fs::read(dir.join(format!("rank_{rank}.sdc")))?;
        out.push(decode(rank, &bytes)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::dense::paper_array_a;
    use sparsedist_core::partition::{Partition, RowBlock};
    use sparsedist_core::schemes::{run_scheme, SchemeKind};
    use sparsedist_multicomputer::{MachineModel, Multicomputer};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join("sparsedist_ckpt_tests")
            .join(name);
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_locals(kind: CompressKind) -> Vec<LocalCompressed> {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
        run_scheme(SchemeKind::Ed, &machine, &a, &part, kind)
            .unwrap()
            .locals
    }

    #[test]
    fn round_trip_crs_and_ccs() {
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let dir = tmpdir(&format!("rt_{kind}"));
            let locals = sample_locals(kind);
            save(&dir, &locals).unwrap();
            let back = load(&dir).unwrap();
            assert_eq!(back, locals);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn resumed_state_reassembles() {
        let dir = tmpdir("resume");
        let locals = sample_locals(CompressKind::Crs);
        save(&dir, &locals).unwrap();
        let back = load(&dir).unwrap();
        let part = RowBlock::new(10, 8, 4);
        let mut global = sparsedist_core::dense::Dense2D::zeros(10, 8);
        for (pid, local) in back.iter().enumerate() {
            for (lr, lc, v) in local.to_dense().iter_nonzero() {
                let (gr, gc) = part.to_global(pid, lr, lc);
                global.set(gr, gc, v);
            }
        }
        assert_eq!(global, paper_array_a());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_rank_file_detected() {
        let dir = tmpdir("corrupt");
        let locals = sample_locals(CompressKind::Crs);
        save(&dir, &locals).unwrap();
        // Truncate rank 2's file mid-stream.
        let path = dir.join("rank_2.sdc");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.to_string().contains("rank 2"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_detected() {
        let dir = tmpdir("magic");
        let locals = sample_locals(CompressKind::Crs);
        save(&dir, &locals).unwrap();
        let path = dir.join("rank_0.sdc");
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    /// Rewrite `bytes` so its CRC footer matches its (possibly tampered)
    /// body again — models an attacker-consistent file, which must then be
    /// caught by the structural validators instead of the checksum.
    fn refresh_crc(bytes: &mut [u8]) {
        let n = bytes.len();
        let crc = u64::from(crc32(&bytes[..n - 8]));
        bytes[n - 8..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn tampered_indices_fail_validation() {
        let dir = tmpdir("tamper");
        let locals = sample_locals(CompressKind::Crs);
        save(&dir, &locals).unwrap();
        let path = dir.join("rank_0.sdc");
        let mut bytes = fs::read(&path).unwrap();
        // Overwrite the first column index (after magic, version, kind,
        // rows, cols, plen, pointer(5), nnz = 11 words) with a huge value,
        // then make the checksum consistent so validation is what trips.
        let off = 8 * 11;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        refresh_crc(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, CkptError::Invalid { rank: 0, .. }), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_kind_word_is_corrupt() {
        let dir = tmpdir("kind");
        save(&dir, &sample_locals(CompressKind::Ccs)).unwrap();
        let path = dir.join("rank_3.sdc");
        let mut bytes = fs::read(&path).unwrap();
        // The kind word follows magic and version.
        bytes[16..24].copy_from_slice(&7u64.to_le_bytes());
        refresh_crc(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let err = load(&dir).unwrap_err();
        assert_eq!(err.to_string(), "rank 3 file corrupt: unknown kind 7");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_bit_flip_fails_checksum() {
        let dir = tmpdir("bitflip");
        let locals = sample_locals(CompressKind::Crs);
        save(&dir, &locals).unwrap();
        let path = dir.join("rank_1.sdc");
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit inside the values region — structurally harmless (a
        // valid f64 stays a valid f64), so only the CRC can catch it.
        let mid = bytes.len() - 24;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert!(err.to_string().contains("rank 1"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_detected() {
        let dir = tmpdir("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load(&dir), Err(CkptError::BadManifest(_))));
        fs::remove_dir_all(&dir).ok();
    }
}
