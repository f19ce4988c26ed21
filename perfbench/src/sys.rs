//! Reading a process's memory counters.

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`, …), for
/// this process when `pid` is `None`.
pub fn status_kb(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}
