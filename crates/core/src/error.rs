//! The workspace error hierarchy.
//!
//! Scheme drivers ([`crate::schemes::run_scheme`] and friends) run SPMD
//! closures whose communication can now fail — the simulated multicomputer
//! injects faults, peers can be declared dead, and retry budgets run out.
//! Everything those paths can hit funnels into [`SparsedistError`] so
//! callers (the CLI, examples, tests) see one `Result` type instead of a
//! panic.

use crate::compress::CompressError;
use crate::partition::PartitionError;
use sparsedist_multicomputer::engine::CommError;
use sparsedist_multicomputer::pack::{PatchError, UnpackError};
use std::fmt;

/// Any failure a distribution, gather or redistribution run can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SparsedistError {
    /// A communication failure from the simulated interconnect (retries
    /// exhausted, dead peer, early-exit peer).
    Comm(CommError),
    /// A received stream failed structural validation (CRS/CCS/ED
    /// invariants).
    Compress(CompressError),
    /// A received buffer was shorter than its own framing describes.
    Unpack(UnpackError),
    /// A pack-buffer back-patch landed outside the buffer (ED encoder).
    Patch(PatchError),
    /// The scheme's source rank is dead under the fault plan — there is no
    /// surviving copy of the global array to distribute from.
    SourceDead {
        /// The dead source rank.
        rank: usize,
    },
    /// Mid-stream recovery failed: a destination died and no surviving
    /// rank remains to re-home its parts onto.
    NoSurvivors {
        /// The part that could not be re-homed.
        part: usize,
    },
    /// The requested machine size exceeds the event loop's ceiling
    /// ([`sparsedist_multicomputer::EngineKind::max_procs`]), so the
    /// request is rejected up front instead of panicking in the machine
    /// constructor.
    MachineTooLarge {
        /// The requested processor count.
        procs: usize,
        /// The largest machine the engine supports.
        max: usize,
    },
    /// A partition constructor's `try_new` got a zero extent: an empty
    /// array, no processors, or a zero grid or block side.
    Partition(PartitionError),
    /// Local arrays adopted into a distributed array (from a checkpoint,
    /// say) do not fit its machine or partition.
    LocalsMismatch {
        /// What disagrees, e.g. `"local 0 shape"`.
        what: String,
        /// What the machine and partition call for and what the local
        /// arrays hold, e.g. `"expected 23x70, found 90x18"`. Boxed, so
        /// the variant stays smaller than `Io` and does not grow every
        /// `Result` the scheme drivers return.
        detail: Box<str>,
    },
    /// A host filesystem operation failed (trace export, ledger dumps).
    /// Carries the path and the rendered `io::Error` — `std::io::Error` is
    /// neither `Clone` nor `PartialEq`, which this enum requires.
    Io {
        /// The path the operation touched.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl SparsedistError {
    /// Wrap an `io::Error` from an operation on `path`.
    pub fn io(path: impl Into<String>, err: std::io::Error) -> Self {
        SparsedistError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for SparsedistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparsedistError::Comm(e) => write!(f, "communication failed: {e}"),
            SparsedistError::Compress(e) => write!(f, "invalid compressed stream: {e}"),
            SparsedistError::Unpack(e) => write!(f, "malformed buffer: {e}"),
            SparsedistError::Patch(e) => write!(f, "encode back-patch failed: {e}"),
            SparsedistError::SourceDead { rank } => {
                write!(f, "source rank {rank} is dead; nothing can be distributed")
            }
            SparsedistError::NoSurvivors { part } => {
                write!(f, "no surviving rank left to re-home part {part} onto")
            }
            SparsedistError::MachineTooLarge { procs, max } => {
                write!(
                    f,
                    "--procs {procs} exceeds the largest supported machine ({max} ranks)"
                )
            }
            SparsedistError::Partition(e) => write!(f, "{e}"),
            SparsedistError::LocalsMismatch { what, detail } => {
                write!(f, "{what} mismatch: {detail}")
            }
            SparsedistError::Io { path, message } => {
                write!(f, "{path}: {message}")
            }
        }
    }
}

impl std::error::Error for SparsedistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparsedistError::Comm(e) => Some(e),
            SparsedistError::Compress(e) => Some(e),
            SparsedistError::Unpack(e) => Some(e),
            SparsedistError::Patch(e) => Some(e),
            SparsedistError::SourceDead { .. } => None,
            SparsedistError::NoSurvivors { .. } => None,
            SparsedistError::MachineTooLarge { .. } => None,
            SparsedistError::Partition(e) => Some(e),
            SparsedistError::LocalsMismatch { .. } => None,
            SparsedistError::Io { .. } => None,
        }
    }
}

impl From<CommError> for SparsedistError {
    fn from(e: CommError) -> Self {
        SparsedistError::Comm(e)
    }
}

impl From<CompressError> for SparsedistError {
    fn from(e: CompressError) -> Self {
        SparsedistError::Compress(e)
    }
}

impl From<UnpackError> for SparsedistError {
    fn from(e: UnpackError) -> Self {
        SparsedistError::Unpack(e)
    }
}

impl From<PartitionError> for SparsedistError {
    fn from(e: PartitionError) -> Self {
        SparsedistError::Partition(e)
    }
}

impl From<PatchError> for SparsedistError {
    fn from(e: PatchError) -> Self {
        SparsedistError::Patch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_the_inner_story() {
        let e = SparsedistError::from(CommError::PeerDead { rank: 3 });
        assert!(e.to_string().contains("rank 3 is dead"), "{e}");
        let e = SparsedistError::SourceDead { rank: 0 };
        assert!(e.to_string().contains("source rank 0"), "{e}");
        let e = SparsedistError::MachineTooLarge {
            procs: 200_000,
            max: 131_072,
        };
        assert!(e.to_string().contains("--procs 200000"), "{e}");
        assert!(e.to_string().contains("131072"), "{e}");
    }

    #[test]
    fn io_variant_carries_path_and_message() {
        let e = SparsedistError::io(
            "/tmp/trace.json",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        assert!(e.to_string().contains("/tmp/trace.json"), "{e}");
        assert!(e.to_string().contains("denied"), "{e}");
        assert_eq!(e.clone(), e);
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = SparsedistError::from(CommError::Disconnected { peer: 1 });
        assert!(e.source().is_some());
        assert!(SparsedistError::SourceDead { rank: 0 }.source().is_none());
    }
}
