//! What the OS reports about a process: peak RSS and per-thread CPU.

use std::fs;

/// Peak resident set (VmHWM) of `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// On-CPU nanoseconds of each live thread of `pid`, with its name
/// (`/proc/<pid>/task/<tid>/schedstat`, first field).
pub fn thread_cpu_ns(pid: u32) -> Vec<(String, u64)> {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let ns = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        if let Some(ns) = ns {
            out.push((comm.trim().to_string(), ns));
        }
    }
    out
}

/// CPU nanoseconds summed over `pid`'s threads whose name starts with
/// `prefix` (all threads for "").
pub fn cpu_ns(threads: &[(String, u64)], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, ns)| ns)
        .sum()
}

/// Model name of the first CPU.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time (user + system) of the whole process `pid`, exited threads
/// included, in nanoseconds. `/proc/<pid>/stat` counts in USER_HZ ticks,
/// which Linux fixes at 100 per second.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Reset `pid`'s VmHWM to its current RSS, so the peak read later covers
/// only what ran since.
pub fn reset_peak_rss(pid: u32) -> std::io::Result<()> {
    fs::write(format!("/proc/{pid}/clear_refs"), "5")
}
