//! The workspace-wide error type.

use crate::slo::RejectReason;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the BAT serving stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BatError {
    /// A ranking request failed validation.
    InvalidRequest(String),
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// A cache worker ran out of capacity and could not admit an entry.
    CapacityExceeded(String),
    /// The admission controller refused the request on arrival. Typed (not
    /// stringly) so shed points can be counted and asserted on.
    Rejected {
        /// Why admission refused the request.
        reason: RejectReason,
    },
    /// The request was admitted but its deadline expired before service
    /// completed (swept from the queue, or finished too late to count).
    DeadlineExceeded,
}

impl fmt::Display for BatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            BatError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BatError::CapacityExceeded(msg) => write!(f, "capacity exceeded: {msg}"),
            BatError::Rejected { reason } => write!(f, "rejected: {reason}"),
            BatError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl Error for BatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = BatError::InvalidRequest("no candidates".into());
        assert_eq!(e.to_string(), "invalid request: no candidates");
    }

    #[test]
    fn typed_shed_variants_display() {
        let e = BatError::Rejected {
            reason: RejectReason::QueueFull,
        };
        assert_eq!(e.to_string(), "rejected: queue full");
        assert_eq!(BatError::DeadlineExceeded.to_string(), "deadline exceeded");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BatError>();
    }
}
