//! Host facts the benchmark binaries embed in their JSON artifacts so a
//! reader can judge whether a speedup gate was meaningful on the machine
//! that produced the numbers.

/// Logical core count of the host (1 when it cannot be determined).
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in bytes, from the `VmHWM`
/// line of `/proc/self/status`. Returns 0 on platforms without that
/// interface — consumers treat 0 as "unknown", never as "no memory".
///
/// The kernel reports a process-wide high-water mark: a reading is the
/// peak *up to* that moment, not the footprint of whatever ran last.
/// One reading can still be a little lower than an earlier one. Linux
/// prints `VmHWM` as the larger of the current RSS and a recorded mark
/// that it refreshes only when RSS is about to fall, from per-CPU
/// batched counters that can lag the exact count by a batch of pages
/// per CPU. A reading taken at the peak can therefore exceed every
/// later one: on the 2-vCPU host, readings taken after two threads
/// freed their memory fell up to 252 KiB below one taken while they
/// held it. Callers that need a monotone series keep the running
/// maximum of their readings.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_is_positive() {
        assert!(cores() >= 1);
    }

    #[test]
    fn peak_rss_is_monotone() {
        let before = peak_rss_bytes();
        // Touch a few megabytes so the high-water mark moves (or at
        // least cannot shrink).
        let buf = vec![1u8; 4 << 20];
        let after = peak_rss_bytes();
        assert!(after >= before, "high-water mark never decreases");
        drop(buf);
        #[cfg(target_os = "linux")]
        assert!(before > 0, "Linux exposes VmHWM");
    }
}
