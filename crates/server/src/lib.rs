//! # pgq-server
//!
//! The session layer and its front door: one [`Engine`] that answers
//! the session grammar — [`pgq_parser::parse_command`] is that
//! grammar's one definition — and a threaded TCP line-protocol server
//! that serves it to any number of simultaneous sessions. The
//! `sqlpgq_shell` example is the same engine fed from a script file.
//!
//! * [`Engine`] — the shared state machine, one `match` over the typed
//!   [`pgq_parser::Command`]: parser catalog + live
//!   rows behind a mutex, staged view graphs inside a
//!   [`pgq_store::ConcurrentStore`], reads pinned to published
//!   [`pgq_store::StoreSnapshot`]s and evaluated lock-free on the
//!   morsel-parallel coded pipeline;
//! * [`Server`] — the accept loop + per-connection session threads;
//! * [`Client`] — a blocking client for tests and the benchmark's
//!   load generator.
//!
//! Concurrency contract (held by `tests/protocol.rs` here and the
//! snapshot-isolation suite in the workspace `tests/prop_store.rs`):
//! every query answers against exactly one published snapshot —
//! byte-identical to single-threaded evaluation of that snapshot — and
//! a writer batch either publishes completely or not at all. Malformed
//! input (bad statements, oversized lines, invalid UTF-8, mid-line
//! disconnects) produces typed `!! ` responses or a clean session end,
//! never a dead server or a poisoned store lock.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod server;

pub use engine::{split_statements, Engine, SessionState};
pub use server::{Client, Server, MAX_LINE, TERMINATOR};
