//! Typed API errors.
//!
//! Every failure a client can observe is an [`ApiError`]: a machine-readable
//! [`ErrorKind`] (stable across releases, encoded on the wire) plus a
//! human-readable message. Engine-internal error types are mapped into this
//! one surface at the session boundary, so transports and clients never see
//! implementation details.

use std::fmt;

/// Stable, machine-readable classification of an API failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The peer speaks a different protocol version.
    Version,
    /// The message could not be parsed.
    Malformed,
    /// A referenced relation id or name is not in the catalog.
    UnknownRelation,
    /// The referenced relation exists but has been dropped.
    RelationDropped,
    /// The requested scoring name is not in the engine's registry.
    UnknownScoring,
    /// The scoring parameters were rejected by the scoring factory.
    InvalidParams,
    /// The query itself is invalid (empty relation list, k = 0, dimension
    /// mismatch, …).
    InvalidQuery,
    /// The ProxRJ operator rejected or failed the run.
    Operator,
    /// Transport failure (connection lost, short read, …).
    Io,
    /// A cluster worker needed for the request is unreachable and no
    /// replica could take over.
    WorkerUnavailable,
    /// The cluster answered, but in a degraded state: part of the fleet is
    /// inconsistent or lost and the operation could not be completed
    /// exactly.
    Degraded,
    /// A worker's replicated catalog is at a different epoch than the
    /// coordinator snapshot that produced the request; the caller should
    /// re-snapshot and retry.
    StaleEpoch,
    /// The request kind is understood but not served by this endpoint
    /// (e.g. a cluster-internal message sent to a plain server).
    Unsupported,
    /// Anything else; a bug if ever observed.
    Internal,
}

impl ErrorKind {
    /// The stable wire token for this kind.
    pub fn code(&self) -> &'static str {
        match self {
            ErrorKind::Version => "version",
            ErrorKind::Malformed => "malformed",
            ErrorKind::UnknownRelation => "unknown-relation",
            ErrorKind::RelationDropped => "relation-dropped",
            ErrorKind::UnknownScoring => "unknown-scoring",
            ErrorKind::InvalidParams => "invalid-params",
            ErrorKind::InvalidQuery => "invalid-query",
            ErrorKind::Operator => "operator",
            ErrorKind::Io => "io",
            ErrorKind::WorkerUnavailable => "worker-unavailable",
            ErrorKind::Degraded => "degraded",
            ErrorKind::StaleEpoch => "stale-epoch",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire token back into a kind.
    pub fn from_code(code: &str) -> Option<ErrorKind> {
        Some(match code {
            "version" => ErrorKind::Version,
            "malformed" => ErrorKind::Malformed,
            "unknown-relation" => ErrorKind::UnknownRelation,
            "relation-dropped" => ErrorKind::RelationDropped,
            "unknown-scoring" => ErrorKind::UnknownScoring,
            "invalid-params" => ErrorKind::InvalidParams,
            "invalid-query" => ErrorKind::InvalidQuery,
            "operator" => ErrorKind::Operator,
            "io" => ErrorKind::Io,
            "worker-unavailable" => ErrorKind::WorkerUnavailable,
            "degraded" => ErrorKind::Degraded,
            "stale-epoch" => ErrorKind::StaleEpoch,
            "unsupported" => ErrorKind::Unsupported,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A typed API failure: stable kind + diagnostic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Machine-readable classification.
    pub kind: ErrorKind,
    /// Human-readable diagnostic (single line; newlines are replaced on the
    /// wire).
    pub message: String,
}

impl ApiError {
    /// Creates an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ApiError {
        ApiError {
            kind,
            message: message.into(),
        }
    }

    /// Convenience constructor for parse failures.
    pub fn malformed(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorKind::Malformed, message)
    }

    /// Convenience constructor for transport failures.
    pub fn io(err: std::io::Error) -> ApiError {
        ApiError::new(ErrorKind::Io, err.to_string())
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.code(), self.message)
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_codes() {
        let kinds = [
            ErrorKind::Version,
            ErrorKind::Malformed,
            ErrorKind::UnknownRelation,
            ErrorKind::RelationDropped,
            ErrorKind::UnknownScoring,
            ErrorKind::InvalidParams,
            ErrorKind::InvalidQuery,
            ErrorKind::Operator,
            ErrorKind::Io,
            ErrorKind::WorkerUnavailable,
            ErrorKind::Degraded,
            ErrorKind::StaleEpoch,
            ErrorKind::Unsupported,
            ErrorKind::Internal,
        ];
        for kind in kinds {
            assert_eq!(ErrorKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ErrorKind::from_code("no-such-kind"), None);
    }

    #[test]
    fn display_includes_kind_and_message() {
        let e = ApiError::new(ErrorKind::UnknownRelation, "no relation named hotels");
        assert_eq!(e.to_string(), "unknown-relation: no relation named hotels");
    }
}
