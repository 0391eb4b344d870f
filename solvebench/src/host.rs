//! Host readings (`/proc`) and the sample statistics the report uses.

use std::path::Path;

/// On-CPU nanoseconds of the calling thread so far (first field of
/// `/proc/thread-self/schedstat`), or `None` where the kernel does not
/// expose it.
pub fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/stat").ok()?;
    let line = s.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let total = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

/// Share of all CPU time the hypervisor stole between two readings.
pub fn steal_frac(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPU model string of the first processor.
pub fn cpu_model() -> String {
    let s = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, when the working directory is the top of a
/// git checkout (only `./.git` is read).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// CRC-64 over every Rust source and manifest under `dirs` (sorted by
/// path): identifies the measured code where no commit id exists.
pub fn source_digest(dirs: &[&str]) -> String {
    fn walk(p: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(p) else { return };
        for e in rd.flatten() {
            let path = e.path();
            let name = e.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h = lqcd_util::Crc64::new();
    for f in &files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// Median of `v` (mean of the middle pair for even lengths); 0 for none.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; 0 for none.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [usize; 5] = [99, 95, 90, 75, 50];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it.
pub fn tail_rank(n: usize) -> usize {
    TAIL_LADDER.into_iter().find(|&p| n * (100 - p) >= 1000).unwrap_or(50)
}

/// The nearest-rank `p`-th percentile of `v`; 0 for none.
pub fn percentile(v: &[f64], p: usize) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    s[(p * n).div_ceil(100).clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(400), 95);
        assert_eq!(tail_rank(100), 90);
        assert_eq!(tail_rank(99), 75);
        assert_eq!(tail_rank(40), 75);
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 380.0);
        assert_eq!(percentile(&v[..40], 75), 30.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn proc_readings_are_available() {
        assert!(thread_cpu_ns().is_some());
        assert!(cpu_jiffies().is_some());
        assert!(peak_rss_mb() > 0.0);
    }
}
