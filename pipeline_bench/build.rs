//! Captures the toolchain and source revision for the host-context line.

use std::process::Command;

fn capture(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(Command::new(rustc).arg("--version"));
    // The repository root is this package's parent; git must not look
    // above it (a plain source checkout reports "unknown").
    let manifest =
        std::path::PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("package sits inside the repository");
    let mut git = Command::new("git");
    git.arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_GIT_REV={}", capture(&mut git));
    println!("cargo:rerun-if-changed=build.rs");
}
