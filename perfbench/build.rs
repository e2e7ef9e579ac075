//! Records the compiler version and the source commit for the
//! provenance line every benchmark result carries.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // The commit of the checkout the benchmark is built from. Git may not
    // look above the checkout root, so a checkout that is not a git
    // repository reads "unknown" instead of some enclosing repository.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let root = Path::new(&manifest).parent().unwrap_or(Path::new("."));
    let ceiling = root.parent().unwrap_or(root);
    let commit = capture(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    for marker in [".git/HEAD", ".git/refs/heads"] {
        let path = root.join(marker);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}
