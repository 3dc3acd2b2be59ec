//! The host tag stamped on every result: results are compared only
//! between runs with the same tag.

use std::path::{Path, PathBuf};
use std::process::Command;

use fairem_core::fnv1a64;

/// `host: nproc=… rustc=… cpu=… source=…`. `source` is the git commit
/// when the working directory is a git checkout, else a digest of the
/// program's sources (`Cargo.*`, `src/`, `crates/`).
pub fn tag() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let cpu = crate::sys::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "host: nproc={nproc} rustc=\"{rustc}\" cpu=\"{cpu}\" source={}",
        source_id()
    )
}

fn source_id() -> String {
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok());
    if let Some(commit) = git {
        return format!("git:{}", commit.trim());
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect(Path::new(top), &mut files);
    }
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        buf.extend_from_slice(f.to_string_lossy().as_bytes());
        buf.push(0);
        if let Ok(body) = crate::sys::read(f) {
            buf.extend_from_slice(&body);
        }
    }
    format!("tree:{:016x}({} files)", fnv1a64(&buf), files.len())
}

fn collect(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else {
        for e in crate::sys::list(p) {
            collect(&e, out);
        }
    }
}
