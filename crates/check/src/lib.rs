//! Concurrency-discipline tooling for the `ddrs` scheduler stack.
//!
//! PRs 3–6 wrapped the paper's deterministic search structures in a
//! substantial amount of hand-rolled concurrency: a shared scheduler
//! core, per-shard worker threads with cross-shard merge countdowns,
//! epoch barriers with rollback, waker-based `Ticket` futures, and
//! poisoning/quarantine paths. This crate is the correctness-tooling
//! layer that mechanically enforces the locking discipline those
//! protocols rely on, in three complementary parts:
//!
//! 1. **A static lint pass** ([`lint`]) — a dependency-free token-wise
//!    analysis of the scheduler-stack sources (`sched`, `shard`,
//!    `client`, `trace`, `wal`, `net`) enforcing four domain lints
//!    with `file:line` diagnostics and `// ddrs-check: allow(<lint>)`
//!    escape hatches.
//!    Run it as `cargo run -p ddrs-check`. Being syntactic, it sees
//!    nesting *within* a function body; cross-function nesting is the
//!    runtime detector's job.
//! 2. **An instrumented lock runtime** ([`lock`]) — [`TrackedMutex`] /
//!    [`TrackedCondvar`] wrappers that maintain per-thread acquisition
//!    stacks and a global lock-order graph with cycle detection, so any
//!    run of the stress/fault suites doubles as a potential-deadlock
//!    detector: inversions are reported even on interleavings that did
//!    not actually deadlock. Active under `debug_assertions` or the
//!    `lock-check` feature; plain `std::sync` passthrough otherwise.
//! 3. **A deterministic interleaving explorer** ([`explore`]) — a tiny
//!    schedule enumerator used to exhaustively permute resolve/poll/drop
//!    orderings of the `Ticket` waker protocol in tests.
//!
//! The canonical lock order the lints and the runtime both enforce is
//! [`lint::CANONICAL_LOCK_ORDER`].

#![warn(missing_docs)]

pub mod explore;
pub mod lint;
pub mod lock;

pub use lint::{lint_source, lint_workspace, Diagnostic, Lint, LintSet};
pub use lock::{
    clear_lock_order_reports, lock_order_reports, tracking_active, TrackedCondvar, TrackedGuard,
    TrackedMutex,
};
