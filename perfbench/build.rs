//! Stamps the compiler version and (when built from a git checkout) the
//! source revision into the binary, for the run's environment line.

use std::path::PathBuf;
use std::process::Command;

fn capture(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().replace(' ', "_"))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc = capture(Command::new(rustc).arg("--version"));
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc}");

    // The repository root is the parent of this package; git must not
    // look above it for a repository.
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.parent().unwrap_or(&manifest).to_path_buf();
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short", "HEAD"])
        .current_dir(&root);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={}", capture(&mut git));

    println!("cargo:rerun-if-changed=build.rs");
    let head = root.join(".git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
    }
}
