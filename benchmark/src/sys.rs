//! Machine shape and process accounting read from `/proc` (Linux only;
//! every reader degrades to `None` elsewhere instead of failing the run).

use std::fs;
use std::path::Path;

/// `/proc` reports CPU times in USER_HZ ticks, fixed at 100 on Linux.
const TICKS_PER_S: f64 = 100.0;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Reset the kernel's peak-RSS watermark to the current RSS, so a later
/// [`peak_rss_mb`] is the peak of what ran in between. Returns whether
/// the reset took (it needs a writable `/proc/self/clear_refs`).
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds this process (all threads) has used.
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11); // utime is field 14
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Seconds of CPU the hypervisor took from this machine since boot
/// (the `steal` column of the aggregate `cpu` line).
pub fn host_steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / TICKS_PER_S)
}

/// The checked-out commit, read from `.git` by hand (no process is
/// spawned); `"unknown"` in an exported tree.
pub fn git_rev(repo_root: &Path) -> String {
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&repo_root.join(".git/HEAD")) else {
        return "unknown".to_owned();
    };
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => read(&repo_root.join(".git").join(reference)),
        None => Some(head),
    };
    rev.filter(|r| !r.is_empty()).unwrap_or_else(|| "unknown".to_owned())
}
