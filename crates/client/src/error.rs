//! The error surface of the client contract.
//!
//! Every [`RangeStore`](crate::RangeStore) backend speaks these two
//! types: [`SubmitError`] for requests turned away at the door,
//! [`ServiceError`] for accepted requests that did not produce a value.
//! The contract — not one particular backend — owns its failure
//! vocabulary.

use ddrs_rangetree::BuildError;

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the queue is at capacity. Retry later or shed
    /// load; the depth at rejection time is included for telemetry.
    Overloaded {
        /// Queue depth observed when the submission was rejected.
        depth: usize,
    },
    /// The backend is shutting down (or has shut down) and accepts no
    /// new work.
    ShutDown,
    /// The request alone carries more ops than the backend's total
    /// queue capacity, so it could never be admitted no matter how long
    /// the caller waits. Unlike [`Overloaded`](SubmitError::Overloaded)
    /// this is **not** transient: retrying is futile — split the
    /// request, or raise the backend's `queue_capacity`.
    RequestTooLarge {
        /// Ops in the rejected request.
        ops: usize,
        /// The backend's configured queue capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { depth } => {
                write!(f, "service overloaded: request does not fit at queue depth {depth}")
            }
            SubmitError::ShutDown => write!(f, "service is shut down"),
            SubmitError::RequestTooLarge { ops, capacity } => write!(
                f,
                "request of {ops} ops exceeds the queue capacity {capacity} and can never \
                 be admitted"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted request did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request was still queued when its deadline passed; it never
    /// reached the machine.
    DeadlineExpired,
    /// The backend shut down (or its scheduler abandoned the request)
    /// before the request was served.
    ShuttingDown,
    /// The machine failed executing the request's batch (a simulated
    /// processor panicked). The backend itself survives; the message is
    /// the underlying failure.
    Machine(String),
    /// A write was rejected by sequential validation (duplicate or
    /// reserved id). The store is unchanged; the rejection is exactly
    /// what a sequential `insert_batch` at the same point in the commit
    /// order would have returned.
    Rejected(BuildError),
    /// The request's [`Consistency::AtLeast`](crate::Consistency)
    /// bound named a commit the store has not performed: `required` is
    /// the sequence number the request demanded to observe, `committed`
    /// the number of commits the store had performed at dispatch time
    /// (so sequence numbers `0..committed` were visible). A bound
    /// learned from a [`Commit`](crate::Commit) of the *same* store is
    /// always satisfied; this error means the bound came from the
    /// future or from a different store.
    Consistency {
        /// The commit sequence number the request required to observe.
        required: u64,
        /// Commits performed when the request was dispatched.
        committed: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DeadlineExpired => write!(f, "deadline expired before dispatch"),
            ServiceError::ShuttingDown => {
                write!(f, "service shut down before serving the request")
            }
            ServiceError::Machine(msg) => write!(f, "machine execution failed: {msg}"),
            ServiceError::Rejected(e) => write!(f, "write rejected: {e}"),
            ServiceError::Consistency { required, committed } => write!(
                f,
                "consistency bound unsatisfied: required commit {required}, \
                 store has committed {committed}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}
