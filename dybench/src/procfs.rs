//! The run environment, read from `/proc` for the benchmark's own process:
//! CPU time and run-queue wait summed over its threads, host steal, and
//! peak RSS. Every reading is optional; a value that cannot be read is
//! reported as unreadable, never guessed.

use std::fs;
use std::time::Instant;

/// Jiffies per second of `/proc/stat` (USER_HZ, 100 on Linux).
const USER_HZ: f64 = 100.0;

#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// CPU time of the process's live threads, ns.
    cpu_ns: Option<u64>,
    /// Run-queue wait of the process's live threads, ns.
    runq_ns: Option<u64>,
    /// Host-wide steal, jiffies.
    steal: Option<u64>,
}

/// Sums `/proc/self/task/*/schedstat` (on-CPU ns, run-queue wait ns).
fn task_schedstat() -> Option<(u64, u64)> {
    let mut cpu = 0u64;
    let mut wait = 0u64;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let mut f = text.split_whitespace();
        cpu += f.next()?.parse::<u64>().ok()?;
        wait += f.next()?.parse::<u64>().ok()?;
    }
    Some((cpu, wait))
}

fn host_steal() -> Option<u64> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size of the process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn sample() -> Sample {
    let st = task_schedstat();
    Sample {
        cpu_ns: st.map(|s| s.0),
        runq_ns: st.map(|s| s.1),
        steal: host_steal(),
    }
}

/// Accumulates the `/proc` deltas over the timed intervals of a run.
/// Threads live across each interval (engine pools and server threads
/// outlive the steps they serve), so per-thread sums lose nothing. A
/// reading that fails once stays unreadable for the run.
#[derive(Debug)]
pub struct Meter {
    open: Option<(Sample, Instant)>,
    wall_s: f64,
    cpu_ns: Option<u64>,
    runq_ns: Option<u64>,
    steal: Option<u64>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter {
            open: None,
            wall_s: 0.0,
            cpu_ns: Some(0),
            runq_ns: Some(0),
            steal: Some(0),
        }
    }
}

fn add(acc: &mut Option<u64>, a: Option<u64>, b: Option<u64>) {
    *acc = match (*acc, a, b) {
        (Some(t), Some(a), Some(b)) => Some(t + b.saturating_sub(a)),
        _ => None,
    };
}

impl Meter {
    pub fn resume(&mut self) {
        self.open = Some((sample(), Instant::now()));
    }

    pub fn pause(&mut self) {
        let Some((a, t)) = self.open.take() else {
            return;
        };
        let b = sample();
        self.wall_s += t.elapsed().as_secs_f64();
        add(&mut self.cpu_ns, a.cpu_ns, b.cpu_ns);
        add(&mut self.runq_ns, a.runq_ns, b.runq_ns);
        add(&mut self.steal, a.steal, b.steal);
    }

    /// Wall time of the closed intervals, s.
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    pub fn cpu_ms(&self) -> Option<f64> {
        self.cpu_ns.map(|v| v as f64 / 1e6)
    }

    pub fn runq_wait_ms(&self) -> Option<f64> {
        self.runq_ns.map(|v| v as f64 / 1e6)
    }

    pub fn steal_ms(&self) -> Option<f64> {
        self.steal.map(|v| v as f64 * 1000.0 / USER_HZ)
    }
}

/// `name=value` or `name=unreadable`, for the environment line.
pub fn show(name: &str, v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{name}={v:.1}"),
        None => format!("{name}=unreadable"),
    }
}
