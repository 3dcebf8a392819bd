//! Errors surfaced by the serving layer.

use dynamis_core::EngineError;
use std::fmt;

/// Why a submission (or a wait on its ticket) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service has shut down, or its engine panicked — either way
    /// the update was never applied.
    Stopped,
    /// The bounded ingest queue is full right now (returned by the
    /// non-blocking `try_submit` paths only; the blocking paths wait).
    QueueFull,
    /// The engine rejected the update (duplicate edge, missing edge,
    /// dead vertex, …) — the typed [`EngineError`] reaches the caller
    /// through the ticket.
    Rejected(EngineError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Stopped => write!(f, "service has shut down"),
            ServeError::QueueFull => write!(f, "ingest queue is full"),
            ServeError::Rejected(e) => write!(f, "engine rejected the update: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Rejected(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(ServeError::Stopped.to_string().contains("shut down"));
        assert!(ServeError::QueueFull.to_string().contains("full"));
        let e = ServeError::Rejected(EngineError::DuplicateEdge(1, 2));
        assert!(e.to_string().contains("(1, 2)"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(ServeError::Stopped.source().is_none());
    }
}
