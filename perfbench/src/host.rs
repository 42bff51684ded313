//! The host and provenance block every record carries, so numbers from
//! different machines or different code are never compared blind.

use crate::workloads::{fnv1a, FNV_OFFSET};
use std::path::{Path, PathBuf};

/// Worker threads of the tokio shim's global pool, by the shim's own rule
/// (one per core, clamped to 2..=16; the pool size is not configurable).
pub fn tokio_shim_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 16)
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(root.join(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() && entry.file_name() != "target" {
            collect_files(&path, out);
        } else if kind.is_file() {
            out.push(path);
        }
    }
}

/// FNV-1a over the program's sources (path and content of every file
/// under `src`, `crates` and `shims`, plus the root manifest and lock
/// file): identifies the code measured even where there is no git.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["src", "crates", "shims"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash = FNV_OFFSET;
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        hash = fnv1a(hash, rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&file) {
            hash = fnv1a(hash, &bytes);
        }
    }
    format!("{hash:016x}")
}

/// The host block: where the run happened and on which code.
pub fn host_block(root: &Path) -> serde_json::Value {
    serde_json::json!({
        "cores": cores(),
        "cpu_model": cpu_model(),
        "rayon_pool": rayon::current_num_threads(),
        "tokio_shim_workers": tokio_shim_workers(),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
        "git_commit": git_commit(root).unwrap_or_else(|| "unavailable".into()),
        "source_digest": source_digest(root),
    })
}
