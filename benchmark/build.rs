//! Stamps the compiler version and build profile into the binary, so
//! every result names the toolchain that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "?".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!(
        "cargo:rustc-env=BENCH_PROFILE={} opt-level={} debug={}",
        var("PROFILE"),
        var("OPT_LEVEL"),
        var("DEBUG")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
