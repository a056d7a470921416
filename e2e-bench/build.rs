//! Captures the toolchain and build profile the benchmark binary was
//! built with, so every run record names them.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=E2E_RUSTC_VERSION={rustc_version}");
    println!("cargo:rustc-env=E2E_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
