//! Error type shared by the simulation runtimes.

use std::error::Error;
use std::fmt;

use crate::event::ProcessId;

/// Errors surfaced by the kernel and the model runtimes built on it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The event budget was exhausted before every correct process decided.
    ///
    /// A correct protocol under a fair scheduler never hits this: delay rules
    /// expire, so every posted event is eventually delivered. The budget
    /// exists to turn accidental livelock (e.g. a protocol that re-issues
    /// scans forever because a precondition can never be met) into a
    /// diagnosable error instead of a hang.
    EventLimitExceeded {
        /// The configured maximum number of events.
        limit: u64,
    },
    /// A process index outside `0..n` was used.
    ProcessOutOfRange {
        /// The offending index.
        pid: ProcessId,
        /// The number of processes in the system.
        n: usize,
    },
    /// A configuration was rejected before the run started.
    InvalidConfig(String),
    /// A process attempted an operation its model forbids, e.g. writing to a
    /// register owned by another process (the SWMR integrity guarantee that
    /// the paper's shared-memory Byzantine model preserves).
    ModelViolation(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded before termination")
            }
            SimError::ProcessOutOfRange { pid, n } => {
                write!(
                    f,
                    "process index {pid} out of range for system of {n} processes"
                )
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::ModelViolation(msg) => write!(f, "model violation: {msg}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SimError::EventLimitExceeded { limit: 10 };
        assert_eq!(
            e.to_string(),
            "event limit of 10 exceeded before termination"
        );
        let e = SimError::ProcessOutOfRange { pid: 9, n: 4 };
        assert!(e.to_string().contains("process index 9"));
        let e = SimError::InvalidConfig("t may not exceed n".into());
        assert!(e.to_string().starts_with("invalid configuration"));
        let e = SimError::ModelViolation("write to foreign register".into());
        assert!(e.to_string().starts_with("model violation"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<SimError>();
    }
}
