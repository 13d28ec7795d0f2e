//! Unified error type shared by every PixelsDB crate.
//!
//! Each variant corresponds to one subsystem boundary, so a caller can tell
//! from the error alone which layer rejected the request (parser, planner,
//! executor, storage, ...). All variants carry a human-readable message.

use std::fmt;

/// The error type used across all PixelsDB crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// SQL lexing/parsing failure.
    Parse(String),
    /// Name resolution, type checking, or plan construction failure.
    Plan(String),
    /// Runtime failure while executing a plan.
    Exec(String),
    /// Columnar file format or object-store failure.
    Storage(String),
    /// Metadata (catalog) failure.
    Catalog(String),
    /// A referenced object (table, column, query, file) does not exist.
    NotFound(String),
    /// The request was well-formed but semantically invalid.
    Invalid(String),
    /// Underlying I/O failure.
    Io(String),
    /// Natural-language translation failure.
    Translate(String),
    /// Query-server scheduling / admission failure.
    Schedule(String),
    /// Feature that is recognized but not supported by this build.
    Unsupported(String),
}

impl Error {
    /// Short machine-readable category tag (used in logs and JSON payloads).
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Parse(_) => "parse",
            Error::Plan(_) => "plan",
            Error::Exec(_) => "exec",
            Error::Storage(_) => "storage",
            Error::Catalog(_) => "catalog",
            Error::NotFound(_) => "not_found",
            Error::Invalid(_) => "invalid",
            Error::Io(_) => "io",
            Error::Translate(_) => "translate",
            Error::Schedule(_) => "schedule",
            Error::Unsupported(_) => "unsupported",
        }
    }

    /// The message carried by this error.
    pub fn message(&self) -> &str {
        match self {
            Error::Parse(m)
            | Error::Plan(m)
            | Error::Exec(m)
            | Error::Storage(m)
            | Error::Catalog(m)
            | Error::NotFound(m)
            | Error::Invalid(m)
            | Error::Io(m)
            | Error::Translate(m)
            | Error::Schedule(m)
            | Error::Unsupported(m) => m,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind(), self.message())
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Convenience alias used across all PixelsDB crates.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = Error::Parse("unexpected token".into());
        assert_eq!(e.to_string(), "parse error: unexpected token");
        assert_eq!(e.kind(), "parse");
        assert_eq!(e.message(), "unexpected token");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert_eq!(e.kind(), "io");
        assert!(e.message().contains("gone"));
    }

    #[test]
    fn all_kinds_are_distinct() {
        let errs = [
            Error::Parse(String::new()),
            Error::Plan(String::new()),
            Error::Exec(String::new()),
            Error::Storage(String::new()),
            Error::Catalog(String::new()),
            Error::NotFound(String::new()),
            Error::Invalid(String::new()),
            Error::Io(String::new()),
            Error::Translate(String::new()),
            Error::Schedule(String::new()),
            Error::Unsupported(String::new()),
        ];
        let mut kinds: Vec<_> = errs.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), errs.len());
    }
}
