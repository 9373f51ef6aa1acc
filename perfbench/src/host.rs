//! What every output records about the machine and the build, and the
//! process's peak memory.

use std::fs;

/// Description of the host and build a result came from.
#[derive(Debug, Clone)]
pub struct Host {
    /// Threads the OS lets this process run in parallel.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Reads the host description.
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// The commit `.git/HEAD` in the working directory points to.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
