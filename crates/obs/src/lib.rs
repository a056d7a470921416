//! ascend-obs: the workspace's single observability and timing authority.
//!
//! Every other crate in the workspace is either *compute* (the SC kernels,
//! tensor ops, the engine forward) or *serving glue* (pool, HTTP front-end,
//! CLI). Compute must stay clock-free so outputs are bit-reproducible — the
//! `clippy::disallowed_methods` lint denies `Instant::now()` there — yet the
//! serving layer has to answer "where did this request spend its time?".
//! This crate resolves the tension by concentrating all timing in one place:
//!
//! - [`metrics`] — lock-free metric primitives ([`Counter`], [`Gauge`],
//!   log2-bucketed [`Histogram`]) plus a named [`Registry`] that renders
//!   Prometheus text for `GET /metrics`. Update paths are single relaxed
//!   atomic ops; the registry mutex is touched only at registration and
//!   render time.
//! - [`trace`] — request tracing: a [`TraceId`] minted at admission flows
//!   through `ServePool` jobs; workers record queue-wait and service spans
//!   into a bounded [`TraceBuffer`] ring, exportable as chrome://tracing
//!   JSON via `GET /debug/trace`.
//! - [`stage`] — the clock-free [`StageObserver`] protocol. The engine's
//!   forward emits `enter`/`exit` events for each [`Stage`] (patch-embed,
//!   attention, softmax, GELU, MLP, head) without ever reading a clock;
//!   the [`StageTimer`] implementation here is the sanctioned place where
//!   those events become durations.
//! - [`bench_json`] — the `BENCH_serve.json` perf-trajectory writer shared
//!   by loadgen and the throughput bench: each tool merges its own record
//!   into the file without clobbering the others.
//!
//! The crate is std-only, dependency-free, `#![forbid(unsafe_code)]`, and
//! held to the hot-path (panic-free) lint class: a metrics update must never
//! be able to take down a worker thread.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![warn(missing_docs)]

pub mod bench_json;
pub mod metrics;
pub mod stage;
pub mod trace;

pub use bench_json::BenchRecord;
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, Registry, HIST_BUCKETS};
pub use stage::{NoopObserver, Stage, StageObserver, StageTimer};
pub use trace::{Span, TraceBuffer, TraceId};
