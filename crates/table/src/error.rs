//! Typed errors for table construction and attach.
//!
//! Every scheme used to report create/open failures as bare `String`s;
//! those were fine for humans but invisible to `?`-based layering and
//! impossible to match on. `TableError` keeps the exact message detail (the
//! `Display` impl reproduces the old strings) while implementing
//! [`std::error::Error`] so callers can box, wrap, or branch on it.

use core::fmt;

/// Why a table could not be created in, or opened from, a pmem region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The region cannot hold the requested (or persisted) layout.
    RegionTooSmall {
        /// Bytes available.
        have: usize,
        /// Bytes the layout requires.
        need: usize,
    },
    /// The header magic does not identify the expected scheme.
    MagicMismatch {
        /// Magic found in the header.
        found: u64,
        /// Magic the caller expected.
        expected: u64,
    },
    /// The persisted key/value sizes disagree with the requested types.
    TypeMismatch {
        /// Key size recorded in the header.
        persisted_key: u64,
        /// Value size recorded in the header.
        persisted_value: u64,
        /// Key size of the requested type.
        requested_key: usize,
        /// Value size of the requested type.
        requested_value: usize,
    },
    /// Invalid construction parameters (power-of-two checks, geometry
    /// bounds). The string carries the specific complaint.
    Config(String),
    /// The persisted state is self-inconsistent or does not fit the region
    /// it claims to describe.
    Corrupt(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::RegionTooSmall { have, need } => {
                write!(f, "region too small: {have} < {need}")
            }
            TableError::MagicMismatch { found, expected } => write!(
                f,
                "header magic mismatch: found {found:#x}, expected {expected:#x}"
            ),
            TableError::TypeMismatch {
                persisted_key,
                persisted_value,
                requested_key,
                requested_value,
            } => write!(
                f,
                "type mismatch: persisted K/V sizes {persisted_key}/{persisted_value}, \
                 requested {requested_key}/{requested_value}"
            ),
            TableError::Config(msg) | TableError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for TableError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_message_detail() {
        assert_eq!(
            TableError::RegionTooSmall {
                have: 64,
                need: 4096
            }
            .to_string(),
            "region too small: 64 < 4096"
        );
        assert_eq!(
            TableError::MagicMismatch {
                found: 0xbad,
                expected: 0xf00d
            }
            .to_string(),
            "header magic mismatch: found 0xbad, expected 0xf00d"
        );
        assert_eq!(
            TableError::TypeMismatch {
                persisted_key: 8,
                persisted_value: 16,
                requested_key: 16,
                requested_value: 8,
            }
            .to_string(),
            "type mismatch: persisted K/V sizes 8/16, requested 16/8"
        );
        assert_eq!(
            TableError::Config("group_size 100 is not a power of two".into()).to_string(),
            "group_size 100 is not a power of two"
        );
    }

    #[test]
    fn is_a_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&TableError::Corrupt("x".into()));
    }
}
