//! Process-memory introspection for the scale runs.
//!
//! The 100k-GPU regime is a memory-layout fight as much as a wall-clock one, so the
//! Table 3 scalability binary reports the peak resident set alongside events/sec.
//! On Linux the kernel tracks the high-water mark (`VmHWM` in `/proc/self/status`)
//! and allows resetting it between measurements via `/proc/self/clear_refs`, which
//! lets one process report a meaningful per-scale-point peak.

/// Peak resident set size (`VmHWM`) of this process in bytes, when the platform
/// exposes it (`None` off Linux or if procfs is unavailable).
pub(crate) fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Peak resident set size (`VmHWM`) of this process in MiB, when the platform exposes
/// it (`None` off Linux or if procfs is unavailable).
pub fn peak_rss_mib() -> Option<f64> {
    peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

/// Resets the kernel's peak-RSS watermark so the next [`peak_rss_mib`] reading
/// reflects only allocations made after this call. Best-effort: returns `false`
/// where unsupported (non-Linux, restricted procfs), in which case subsequent peaks
/// are cumulative over the process lifetime.
pub fn reset_peak_rss() -> bool {
    // Writing "5" to clear_refs resets the peak-RSS counter (see proc(5)).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_when_available() {
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0, "a running process has a resident set");
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }

    #[test]
    fn reset_does_not_panic_and_keeps_readings_usable() {
        let _ = reset_peak_rss();
        // Whatever the platform said, a follow-up reading must still be well-formed.
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0);
        }
    }
}
