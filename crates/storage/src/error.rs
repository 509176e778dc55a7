//! Typed storage errors.
//!
//! Recovery is the one code path that must *never* panic and *never*
//! fabricate data: every way a file can disappoint — unreadable, wrong
//! magic, wrong version, failed checksum, structurally invalid contents —
//! maps to a variant here, so `Store::recover` can uphold its contract of
//! "a state equivalent to some acknowledged prefix, or a typed error".

use std::fmt;
use std::path::Path;

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io {
        /// File (or directory) the operation touched.
        file: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// A file exists but its contents cannot be trusted: bad magic, failed
    /// checksum, impossible lengths, invalid value tags, out-of-order WAL
    /// sequence numbers.
    Corrupt {
        /// The offending file.
        file: String,
        /// What exactly failed to validate.
        detail: String,
    },
    /// The file's format version is newer than this build understands.
    UnsupportedVersion {
        /// The offending file.
        file: String,
        /// Version found in the header.
        found: u32,
    },
    /// `append_batch`/`checkpoint` was called before `recover` — the store
    /// refuses to write until the WAL tail has been validated (and a torn
    /// tail truncated), otherwise an append could land after garbage.
    NotRecovered,
    /// The data directory has no valid generation (no manifest, no
    /// generation-0 WAL) yet contains snapshot/WAL files. No crash at any
    /// point in the write protocol produces this state, so the files are
    /// someone's data the store refuses to silently sweep — most likely a
    /// deleted manifest or a directory mix-up. The offending files are
    /// named so the operator can move or remove them deliberately.
    StrayState {
        /// The data directory.
        dir: String,
        /// The stray files found in it (names, sorted).
        files: Vec<String>,
    },
}

impl StorageError {
    pub(crate) fn io(file: &Path, source: std::io::Error) -> StorageError {
        StorageError::Io {
            file: file.display().to_string(),
            source,
        }
    }

    pub(crate) fn corrupt(file: &Path, detail: impl Into<String>) -> StorageError {
        StorageError::Corrupt {
            file: file.display().to_string(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { file, source } => write!(f, "{file}: {source}"),
            StorageError::Corrupt { file, detail } => write!(f, "{file}: corrupt: {detail}"),
            StorageError::UnsupportedVersion { file, found } => {
                write!(f, "{file}: unsupported format version {found}")
            }
            StorageError::NotRecovered => {
                write!(f, "store must recover() before it accepts writes")
            }
            StorageError::StrayState { dir, files } => {
                write!(
                    f,
                    "{dir}: stray files with no valid generation (refusing to sweep): {}",
                    files.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
