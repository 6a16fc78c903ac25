//! `slip serve` — a long-running, multi-tenant sweep service.
//!
//! This crate turns the batch sweep machinery ([`sim_engine`] +
//! [`sweep_runner`]) into a daemon (DESIGN.md §11):
//!
//! * **Protocol** ([`protocol`]): newline-delimited JSON over TCP,
//!   built on `sweep_runner::json`. One request line per connection;
//!   the server answers with a stream of frames (`hello`, `cell`…,
//!   `done`). No external dependencies, `nc`-friendly.
//! * **Server** ([`server`]): a shared [`sweep_runner::pool::SharedPool`]
//!   schedules fused benchmark groups round-robin across concurrent
//!   runs, so a short
//!   sweep is not starved by a long one. Identical specs join the same
//!   run (run-level dedup, keyed by a canonical-spec fingerprint), and
//!   overlapping specs share per-cell results (cell-level dedup).
//!   Every fused group streams its trace, so no trace stays resident.
//! * **Resume**: every run persists through the standard sweep
//!   [`sweep_runner::journal::Journal`]; a disconnected client
//!   reconnects with its run id and an acked cell index and receives
//!   exactly the cells it missed. The journal also revives runs across
//!   server restarts.
//! * **Client** ([`client`]): the typed counterpart used by
//!   `slip submit` and the integration tests.
//!
//! Cells are executed by the same [`sim_engine::experiments::run_fused_group`]
//! path as offline `slip sweep`, grouped by the same rule, and payloads
//! are encoded with the same codec, so server-streamed results are
//! bit-identical to a one-shot sweep of the same spec.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{resume, shutdown, stats, submit, RunDone, RunStream};
pub use protocol::{Frame, Request, SweepSpec};
pub use server::{Server, ServerConfig};
