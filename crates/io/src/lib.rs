//! # ascend-io — persisted artifacts for the train-once / serve-many flow
//!
//! ASCEND's deployment story separates training from inference: the QAT
//! model is trained once, compiled once, and the serving fleet only ever
//! *loads* artifacts. This crate is the persistence layer that makes that
//! split real, with zero external dependencies (the build is offline):
//!
//! * [`format`](mod@format) — the hand-rolled binary container: an
//!   8-byte magic, a format version, an artifact kind, and a CRC-protected
//!   section table with one CRC32 per section payload. Every read path is
//!   bounds-checked and returns a typed [`sc_core::ScError`]; corrupt or
//!   truncated files can never panic or mis-load.
//! * [`checkpoint`] — [`checkpoint::ModelCheckpoint`]: the trained
//!   [`ascend_vit::VitModel`] as plain data (config, precision plan, every
//!   trainable tensor in bind order — including LSQ quantizer steps — BN
//!   running statistics, and an optional calibration batch so an engine can
//!   be compiled later without touching the training set).
//!
//! The compiled-engine artifact builds on [`format`](mod@format) too, but
//! lives in the `ascend` crate (`ScEngine::save`/`ScEngine::load`) because
//! it snapshots engine internals.
//!
//! ## `ASCNDART` container layout
//!
//! Every artifact file is one container: a fixed header, a CRC-protected
//! section table, then the section payloads. All integers little-endian.
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 8     | magic `ASCNDART` |
//! | 8      | 4     | format version (`u32`) |
//! | 12     | 4     | artifact kind (`u32`: 1 = model checkpoint, 2 = engine) |
//! | 16     | 4     | section count `n` (`u32`) |
//! | 20     | 4     | header CRC32 (over version, kind, count, and the table) |
//! | 24     | 24·n  | section table: per section a 4-byte tag, `u32` payload CRC32, `u64` offset, `u64` length |
//! | 24+24·n| —     | section payloads, contiguous, in table order |
//!
//! Section tags by kind — **model checkpoint** (`ascend-cli train`):
//!
//! | tag    | payload |
//! |--------|---------|
//! | `CFG ` | [`ascend_vit::VitConfig`] + [`ascend_vit::PrecisionPlan`] |
//! | `PRM ` | every trainable tensor, in bind order (incl. LSQ steps) |
//! | `NRM ` | BatchNorm running statistics per norm site |
//! | `CLB ` | optional calibration batch (patches + batch size) |
//!
//! **engine** (`ascend-cli compile`; codecs live in `ascend::artifact`):
//!
//! | tag    | payload |
//! |--------|---------|
//! | `ECFG` | ViT config, precision plan, engine config |
//! | `SMAX` | calibrated iterative-softmax configuration |
//! | `LAYR` | per layer: affines, GELU table, quantized linears, steps |
//! | `HEAD` | head affine, patch embed, classifier, cls token, pos embedding |
//!
//! Readers reject unknown magic/version/kind, any out-of-bounds section,
//! and any CRC mismatch with a typed [`sc_core::ScError::CorruptArtifact`]
//! — `crates/io/tests/corruption.rs` proves every truncation and bit flip
//! is caught.
//!
//! ## One reader
//!
//! [`format::Artifact`] is the only reader. [`format::Artifact::read_from`]
//! reads the whole file with one `fs::read` and checks the header CRC, the
//! section bounds and every payload CRC before any decoder runs; the
//! verified artifact then holds the file's bytes once and hands out each
//! section as a borrowed range of them. Every load — `ascend-cli`, a
//! [`ModelCheckpoint::load`], an `ScEngine::load`, and so every
//! `Session` build and registry warm — goes through this path, which is
//! the one `crates/io/tests/corruption.rs` sweeps.
//!
//! A missing file surfaces as [`sc_core::ScError::Io`] with
//! `not_found: true` (the registry's HTTP routes map it to 404); structural
//! damage stays [`sc_core::ScError::CorruptArtifact`] (500). Decoded
//! backends are shared `Arc`-style by the registry: M sessions over one
//! artifact hold one weight copy, and eviction accounting counts each
//! distinct backend once. Budget semantics, the `Cold → Warming → Warm`
//! state machine, and `--artifact name=path` examples live in the README's
//! "Serving over HTTP" section and in `crates/registry`.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![deny(clippy::cast_possible_truncation)]

pub mod checkpoint;
pub mod format;

pub use checkpoint::{CalibBatch, ModelCheckpoint};
pub use format::{Artifact, ArtifactKind, ArtifactWriter, SectionReader, SectionWriter};
