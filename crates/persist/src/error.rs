//! Typed snapshot errors: every failure mode of the container and the
//! payload codecs maps to a variant — loading a damaged file must never
//! panic (property-tested in `tests/persist_roundtrip.rs`).

use std::io;

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the snapshot magic bytes.
    BadMagic,
    /// The snapshot was written with a format version other than the
    /// one this build reads (an older or a newer one).
    UnsupportedVersion {
        /// Version found in the container header.
        found: u16,
        /// The one version this build reads.
        supported: u16,
    },
    /// The payload checksum does not match the container trailer: the
    /// snapshot was corrupted in storage or transit.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum of the payload actually read.
        found: u64,
    },
    /// The input ended before the structure it promised (`context` names
    /// the field being read).
    Truncated {
        /// The field or structure that ran out of bytes.
        context: &'static str,
    },
    /// The bytes decoded but describe an inconsistent model (mismatched
    /// lengths, unknown tags, non-canonical values).
    Corrupt(String),
    /// The model cannot be snapshotted: it is not one of the lineup's
    /// fitted types (e.g. an ad-hoc test predictor without an
    /// `as_any` override).
    UnsupportedModel(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not an iim snapshot (bad magic bytes)"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version {supported})"
            ),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum mismatch: header says {expected:#018x}, got {found:#018x}"
            ),
            PersistError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            PersistError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            PersistError::UnsupportedModel(name) => {
                write!(f, "model {name:?} does not support snapshotting")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}
