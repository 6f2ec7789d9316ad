//! Stamps the compiler version and source revision into the binary, so
//! every printed result names the toolchain and commit that produced it.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        stdout_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let rev = stdout_of(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(&manifest_dir),
    )
    .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // Outside a git checkout there is nothing to watch; naming a missing
    // file would rerun this script on every build.
    let git = Path::new(&manifest_dir).join("../.git");
    let head = git.join("HEAD");
    if let Ok(text) = std::fs::read_to_string(&head) {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(r) = text.trim().strip_prefix("ref: ") {
            let target = git.join(r);
            if target.exists() {
                println!("cargo:rerun-if-changed={}", target.display());
            }
        }
    }
}
