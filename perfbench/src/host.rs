//! Host facts recorded beside every run, so a slow host can be told
//! from a slow program: CPU count, load average, steal time, and the
//! run-queue wait of the benchmark's own thread.

use std::fs;

/// A snapshot of the counters that grow while the run waits for a CPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Machine-wide steal time, clock ticks (`/proc/stat`).
    steal_ticks: u64,
    /// Time this thread spent runnable but not running, ns
    /// (`/proc/thread-self/schedstat`).
    runq_wait_ns: u64,
}

impl Snapshot {
    /// Reads the counters now; a missing or unreadable file counts as 0.
    pub fn take() -> Self {
        let steal_ticks = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().next()?.split_whitespace().collect::<Vec<_>>();
                // cpu user nice system idle iowait irq softirq steal …
                cpu.get(8)?.parse().ok()
            })
            .unwrap_or(0);
        let runq_wait_ns = fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
            .unwrap_or(0);
        Self {
            steal_ticks,
            runq_wait_ns,
        }
    }
}

/// The host-facts line for a run that started at `start`, as one JSON
/// object.
pub fn facts_json(start: Snapshot) -> String {
    let end = Snapshot::take();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let loadavg = fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default();
    // Kernel clock ticks are 1/100 s on every Linux configuration the
    // benchmark targets (USER_HZ).
    let steal_s = end.steal_ticks.saturating_sub(start.steal_ticks) as f64 / 100.0;
    let runq_wait_ms = end.runq_wait_ns.saturating_sub(start.runq_wait_ns) as f64 / 1e6;
    format!(
        "{{\"nproc\": {nproc}, \"loadavg\": \"{loadavg}\", \"steal_s\": {steal_s:.2}, \
         \"runq_wait_ms\": {runq_wait_ms:.3}}}"
    )
}
