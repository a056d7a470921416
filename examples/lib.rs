//! Shared helpers for the ASCEND example binaries.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}
