//! Host facts read from `/proc` and `/sys`: memory high-water mark,
//! thread count and cache sizes.

use std::fs;

/// One `kB` field of `/proc/self/status` (e.g. `VmHWM`), in MiB.
fn status_mb(key: &str) -> f64 {
    status_field(key).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_field(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key) && l[key.len()..].starts_with(':'))?;
    line[key.len() + 1..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set size (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the unified or data cache at `level` as seen by
/// CPU 0, or 0 when `/sys` does not say.
pub fn cache_bytes(level: u32) -> u64 {
    let mut best = 0;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(lv), Some(ty), Some(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if lv.trim() != level.to_string() || ty.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let (digits, mult) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        best = best.max(digits.parse::<u64>().unwrap_or(0) * mult);
    }
    best
}

/// The last-level cache: the highest level `/sys` reports.
pub fn llc_bytes() -> u64 {
    (2..=4).rev().map(cache_bytes).find(|&b| b > 0).unwrap_or(0)
}

/// CPU time the hypervisor gave to others while this machine's CPUs
/// wanted to run ("steal" in `/proc/stat`), in ms since boot, summed
/// over CPUs; 0 when not reported.
pub fn steal_ms() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on Linux.
    ticks * 10.0
}
