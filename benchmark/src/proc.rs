//! What the kernel says about this process: CPU time, run-queue wait,
//! peak resident memory, and the processor count.

use std::fs;

/// CPU time consumed and time spent runnable-but-waiting, summed over
/// every live thread of this process, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSample {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl SchedSample {
    /// Reads `/proc/self/task/*/schedstat` (run ns, run-queue wait ns,
    /// timeslices — one line per thread). Threads that exited earlier
    /// are not counted, so take both ends of a delta while the thread
    /// set is stable. Falls back to the 10 ms ticks of `/proc/self/stat`
    /// (no wait figure) on kernels without scheduler statistics.
    pub fn now() -> Self {
        let mut total = Self::default();
        let mut seen = false;
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Ok(line) = fs::read_to_string(task.path().join("schedstat")) else {
                    continue;
                };
                let mut fields = line.split_ascii_whitespace().map(str::parse::<u64>);
                if let (Some(Ok(cpu)), Some(Ok(wait))) = (fields.next(), fields.next()) {
                    total.cpu_ns += cpu;
                    total.wait_ns += wait;
                    seen = true;
                }
            }
        }
        if !seen {
            total.cpu_ns = stat_cpu_ns().unwrap_or(0);
        }
        total
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// `utime + stime` of `/proc/self/stat`, assuming the universal 100 Hz
/// `USER_HZ`.
fn stat_cpu_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime/stime are the 12th/13th there.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
