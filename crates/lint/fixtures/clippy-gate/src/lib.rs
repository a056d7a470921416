//! Seeded cases for the lints that carry the workspace invariants.
//!
//! Each module mirrors one place the workspace switches a lint on (or
//! leaves it off). A `// case: NAME` line opens a case, which runs to the
//! next case line; `//~ LINT[, LINT]` ends each line where that lint must
//! fire. `crates/lint/tests/clippy_gate.rs` asserts that clippy reports
//! exactly the marked `(file, line, lint)` set for every case.

pub mod codec;
pub mod cold;
pub mod expectations;
pub mod forward;
pub mod hot;
pub mod timing;
pub mod unsafety;
