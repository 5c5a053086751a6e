//! The host and run stamp carried by every output record, and the process's
//! peak resident memory.

use std::path::Path;
use std::process::Command;

/// Where and how a result was measured. Numbers from different stamps are
/// not comparable.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// `git rev-parse HEAD` of the working directory, when it is a checkout.
    pub git_commit: String,
    /// Workload seed.
    pub seed: u64,
    /// Micro-batch cycles in one repetition.
    pub cycles_per_rep: usize,
}

impl Stamp {
    /// Stamps a run of `cycles_per_rep`-cycle repetitions at `seed`.
    pub fn collect(seed: u64, cycles_per_rep: usize) -> Self {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("RSUBENCH_RUSTC_VERSION"),
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_owned()),
            seed,
            cycles_per_rep,
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

fn git_commit() -> Option<String> {
    // Only ask git about a checkout rooted here: a bare source tree nested
    // in some other repository must not report that repository's commit.
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Host-wide CPU time from `/proc/stat`, in clock ticks: `(steal, total)`.
/// Steal is time the hypervisor ran something else while this machine's
/// CPUs had work; it inflates wall times without being the program's cost.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}
