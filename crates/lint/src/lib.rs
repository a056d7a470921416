//! `ascend-lint` — the workspace concurrency checker.
//!
//! The runtime suite proves ASCEND's serving guarantees dynamically:
//! parallel `ServePool` output is bit-identical to serial, drain completes,
//! the registry survives eviction under load. What no test reliably
//! catches is a deadlock window that strikes once in a million
//! interleavings. This crate is that static gate: a hand-rolled, std-only
//! token-level analysis over the workspace's own sources that follows
//! lock guards through their scopes.
//!
//! The panic surface, wall-clock reads, unordered containers, lossy codec
//! casts and `unsafe` are rustc/clippy lints instead, switched on per
//! crate root; `RULES.md` maps each to where it is enabled.
//!
//! * [`lexer`] — a real Rust surface lexer (comments, strings, raw
//!   strings, char literals, `#[cfg(test)]` regions), so rules never fire
//!   on commented-out or test code.
//! * [`scope`] — brace/scope structure over the token stream: function
//!   boundaries, lock-guard binding lifetimes, blocking/wait/call events.
//! * [`rules`] — the three concurrency rules (see `RULES.md`).
//! * [`waiver`] — `// ascend-lint: allow(rule) -- reason` escape hatch
//!   with a mandatory justification; unused and malformed waivers are
//!   themselves violations.
//! * [`workspace`] — file discovery and the whole-tree run.
//! * [`report`] — the `--check` / `--report` renderings.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod workspace;
