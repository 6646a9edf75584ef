//! Measurement helpers shared by the workloads: latency summaries, CPU and
//! peak-RSS readings of a process from `/proc`, and the in-memory span log.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux architecture the
/// workspace builds for).
const TICKS_PER_SECOND: f64 = 100.0;

/// Samples that must lie beyond the reported tail percentile: at least
/// this many, and at least [`TAIL_BEYOND_SHARE`] of them.
pub const TAIL_BEYOND: usize = 10;

/// With thousands of samples, ten beyond is p99.9 and above, which a few
/// stalls of a shared host decide from run to run; a long run reports p99
/// instead.
const TAIL_BEYOND_SHARE: f64 = 0.01;

/// User plus system CPU time consumed so far by process `pid`, all of its
/// threads included (exited ones too).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields after it are
    // plain numbers. utime and stime are fields 14 and 15.
    let after = stat
        .rsplit_once(')')
        .ok_or_else(|| format!("{path}: no command field"))?
        .1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SECOND)
            .ok_or_else(|| format!("{path}: bad field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory the benchmark freed (generated inputs, exact references)
/// back to the kernel, so it does not sit in this process's resident set
/// when the program's peak is measured.
pub fn release_free_memory() {
    // SAFETY: malloc_trim takes no pointers, has no preconditions and is
    // thread-safe; it only releases pages the allocator holds unused.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the peak resident set (`VmHWM`) of process `pid` to its current
/// resident set, so a later [`peak_rss_mib`] covers only what follows.
pub fn reset_peak_rss(pid: u32) -> Result<(), String> {
    let path = format!("/proc/{pid}/clear_refs");
    std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))
}

/// Peak resident set of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Latency summary of one timed phase. Failed ops count as slower than
/// every completed one.
pub struct Tail {
    /// The latency with exactly the required samples beyond it, in ms
    /// (the slowest sample when there are not that many).
    pub ms: f64,
    /// Which percentile that is.
    pub percentile: f64,
    /// Samples the percentile was taken over (completed plus failed).
    pub samples: usize,
}

/// Latency reported for a tail that lands on a failed op.
const FAILED_TAIL_MS: f64 = 1e9;

/// The highest percentile of `latencies_ms` plus `failed` unfinished ops
/// that has at least [`TAIL_BEYOND`] samples, and at least one in a
/// hundred, beyond it.
pub fn tail(latencies_ms: &[f64], failed: usize) -> Tail {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let samples = sorted.len() + failed;
    let beyond = TAIL_BEYOND.max((samples as f64 * TAIL_BEYOND_SHARE).ceil() as usize);
    if samples <= beyond {
        return Tail {
            ms: if failed > 0 {
                FAILED_TAIL_MS
            } else {
                sorted.last().copied().unwrap_or(0.0)
            },
            percentile: 100.0,
            samples,
        };
    }
    let rank = samples - beyond - 1;
    Tail {
        ms: sorted.get(rank).copied().unwrap_or(FAILED_TAIL_MS),
        percentile: 100.0 * (samples - beyond) as f64 / samples as f64,
        samples,
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One span the benchmark recorded around a call into the program.
struct Span {
    /// Layer-qualified name, e.g. `engine.run_best`.
    name: &'static str,
    /// The op this span belongs to.
    op: u64,
    /// Index of the enclosing span in the same log.
    parent: Option<usize>,
    /// Nanoseconds since the log's epoch.
    start_ns: u64,
    /// Nanoseconds since the log's epoch.
    end_ns: u64,
}

/// Spans kept in memory for the whole run and written when it ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span that ran from `start` for `dur`; returns its
    /// index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        let start_ns = self.offset(start);
        let end_ns = start_ns + u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Appends `other`'s spans (recorded against the same epoch).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's duration minus the durations of its direct children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Mean duration in ms of the spans called `name`.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect();
        mean(&d)
    }

    /// Durations in ms of the spans called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time in ms of the spans called one of `names`, summed over all
    /// such spans and divided by `ops`.
    pub fn self_ms_per_op(&self, names: &[&str], ops: usize) -> f64 {
        let own = self.self_ns();
        let total: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| names.contains(&s.name))
            .map(|(_, &ns)| ns)
            .sum();
        total as f64 / 1e6 / ops.max(1) as f64
    }

    /// Writes the log as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A 64-bit FNV-1a digest of an assignment's choices.
pub fn digest(choices: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in choices {
        for b in (c as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Derives the `i`-th independent stream seed from a workload seed. Seeds
/// are kept to 32 bits so the run info prints them exactly.
pub fn derive_seed(seed: u64, salt: u64, i: u64) -> u64 {
    let mut rng = fp_prng::SplitMix64::new(
        seed ^ salt.rotate_left(17) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    rng.next_u64() >> 32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let lat: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&lat, 0);
        assert_eq!(t.ms, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        // Failed ops sort beyond every completed one.
        let t = tail(&lat, 5);
        assert_eq!(t.ms, 95.0);
        let t = tail(&lat[..5], 20);
        assert_eq!(t.ms, FAILED_TAIL_MS);
        // Long runs report p99.
        let lat: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&lat, 0);
        assert_eq!(t.ms, 1980.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        let root = log.record("op", 0, None, epoch, Duration::from_millis(10));
        log.record("child", 0, Some(root), epoch, Duration::from_millis(4));
        assert!((log.self_ms_per_op(&["op"], 1) - 6.0).abs() < 1e-9);
        assert!((log.self_ms_per_op(&["child"], 1) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
