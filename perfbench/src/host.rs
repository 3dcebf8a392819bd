//! What the host did during a run, read from `/proc`: per-thread CPU
//! and run-queue time, steal ticks, resident memory, core count.

use std::fs;

/// One thread's scheduler counters (`/proc/self/task/<tid>/schedstat`).
#[derive(Debug, Clone)]
pub struct ThreadTimes {
    tid: u32,
    comm: String,
    /// Nanoseconds spent running on a CPU.
    run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    wait_ns: u64,
}

/// Every live thread of this process. Threads that end between the
/// directory listing and the reads are skipped.
pub fn threads() -> Vec<ThreadTimes> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let path = entry.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        out.push(ThreadTimes {
            tid,
            comm: comm.trim().to_string(),
            run_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        });
    }
    out
}

/// CPU and run-queue time of the threads whose `comm` starts with
/// `prefix`, as shares of `wall_s`, over the threads alive at both
/// readings. The kernel cuts `comm` to 15 bytes, so prefixes are at
/// most that long (`dynamis-serve-w` for `dynamis-serve-writer`).
pub fn thread_shares(
    before: &[ThreadTimes],
    after: &[ThreadTimes],
    prefix: &str,
    wall_s: f64,
) -> (f64, f64) {
    let (mut run, mut wait) = (0u64, 0u64);
    for a in after.iter().filter(|t| t.comm.starts_with(prefix)) {
        if let Some(b) = before.iter().find(|b| b.tid == a.tid) {
            run += a.run_ns.saturating_sub(b.run_ns);
            wait += a.wait_ns.saturating_sub(b.wait_ns);
        }
    }
    let wall_ns = wall_s * 1e9;
    (run as f64 / wall_ns, wait as f64 / wall_ns)
}

/// Steal ticks summed over all CPUs (`/proc/stat`, the 8th field of
/// the `cpu` line): time a hypervisor ran something else while this
/// guest wanted the CPU.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Resident set size of this process, in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
