//! The program under test: the repository's release `reproduce` binary,
//! built from the checkout this harness lives in.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use paccport_trace::json::{self, Json};

/// The checkout root: this package sits one directory below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Build (or find up to date) the release `reproduce` binary and return its
/// path. Cargo decides the target directory, so `CARGO_TARGET_DIR` and
/// cargo configuration are honoured.
pub fn build_reproduce(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--quiet",
            "--package",
            "paccport-bench",
            "--bin",
            "reproduce",
            "--message-format=json-render-diagnostics",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building reproduce failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|m| m.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("reproduce")
        })
        .find_map(|m| {
            m.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo built no `reproduce` executable".to_string())
}

/// `nproc`, the CPU model and the compiler: what a reader needs to judge
/// whether two reports are comparable.
pub fn environment() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![("nproc", nproc.to_string()), ("cpu", cpu), ("rustc", rustc)]
}
