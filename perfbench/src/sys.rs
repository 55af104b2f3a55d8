//! Process and host facts read from `/proc` and the checkout.

use std::path::Path;

/// Clock ticks per second of `/proc/self/stat`'s CPU times (`USER_HZ`,
/// 100 on every Linux target the kernel ABI supports).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name is parenthesised and may hold spaces; the fixed
    // fields start after its closing parenthesis (field 3, `state`).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15 overall.
    (tick(11) + tick(12)) / USER_HZ
}

/// CPU time the hypervisor gave other guests while this one was ready
/// to run (`steal` in `/proc/stat`), summed over host CPUs: a run with
/// much steal was measured on a busy host.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("cpu ")).and_then(|l| {
                l.split_whitespace()
                    .nth(8)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` when the working directory
/// is a git checkout (no process is started), else `"unknown"`.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the library sources (`crates/**/*.rs` and manifests,
/// in path order): identifies the measured code when the checkout has
/// no git metadata.
pub fn source_fingerprint() -> String {
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            eat(&bytes);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}
