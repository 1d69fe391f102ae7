//! Provenance stamped on every output: the code that ran (commit when
//! the checkout is a git work tree, and always a hash of the simulator
//! sources), the host it ran on, and the process's peak memory.

use std::path::{Path, PathBuf};

/// Root of the checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, read from `.git` in the checkout itself
/// (no git process, no search above the checkout); `none` when the
/// checkout is not a git work tree.
pub fn commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty() && !id.starts_with('#'))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(path);
        }
    }
}

/// FNV-1a hash over the simulator's and the benchmark's sources and
/// manifests (paths and contents, in sorted order), identifying the
/// code that ran even where no commit is available.
pub fn source_hash() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        fnv1a(&mut hash, rel.to_string_lossy().as_bytes());
        fnv1a(&mut hash, &std::fs::read(f).unwrap_or_default());
    }
    format!("{hash:016x} ({} files)", files.len())
}

/// CPU model, online CPU count and frequency governor.
pub fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| "none".to_string(), |g| g.trim().to_string());
    format!("cpu=\"{model}\" nproc={nproc} governor={governor}")
}

/// Peak resident set size (`VmHWM`) in MB, if the kernel reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
