//! # uhaccd — the concurrent compile-and-run service
//!
//! A long-lived daemon exposing the uhacc compiler, static verifier,
//! linter, simulator, and profiler over a dependency-free HTTP/1.1 +
//! JSON API (`std::net` only; the workspace builds offline).
//!
//! ```console
//! $ uhaccd --port 8090 --workers 4 &
//! $ curl -s localhost:8090/health
//! $ curl -s -X POST localhost:8090/run -d '{"source":"...","n":65536}'
//! ```
//!
//! Three design rules:
//!
//! 1. **One renderer per output.** Every response body with a
//!    single-shot CLI equivalent is produced by the same
//!    `uhacc::driver` function `uhacc-cc` calls, so daemon and CLI
//!    agree byte for byte by construction.
//! 2. **Content-addressed caching.** Analyzed programs and compiled
//!    kernel artifacts are keyed on `program_key(source, options)` — a
//!    stable FNV-1a hash over the source text and the canonical
//!    serialized [`uhacc_core::CompilerOptions`] — and each program
//!    remembers the answers already given for it, so a repeated request
//!    runs no pass at all; hit / miss / eviction / compile accounting is
//!    surfaced at `/health`.
//! 3. **A shared device-worker pool.** A fixed set of worker threads
//!    drains one FIFO queue of requests; at most `--workers` simulator
//!    sessions execute concurrently and arrival order is service order.
//!    Sessions share immutable artifacts (`Arc<AnalyzedProgram>`,
//!    `Arc<CompiledRegion>`) and own all mutable state, so concurrent
//!    results are bit-identical to sequential ones.

pub mod http;
pub mod json;
pub mod pool;
pub mod service;

pub use pool::{PoolStats, WorkerPool};
pub use service::{serve, spawn, Daemon, DaemonConfig};
