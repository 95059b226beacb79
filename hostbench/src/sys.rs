//! Process measurements from `/proc`, the environment stamp, and the
//! order statistics the report uses.

use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads, exited ones included).
/// Zero where `/proc/self/stat` is unreadable.
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // The command name (field 2) may contain spaces; the fields after its
    // closing parenthesis start at field 3 (`state`).
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let ticks: f64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<f64>().ok())
        .sum();
    Duration::from_secs_f64(ticks / USER_HZ)
}

/// Reads a `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MiB; zero where unreadable.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Nearest-rank percentile (`p` in percent) of `values`; zero when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count); zero
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The environment a result was measured in, so its noise can be
/// explained afterwards.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// Usable CPUs.
    pub nproc: usize,
    /// One-minute load average at start.
    pub loadavg: String,
    /// CPU model name.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Commit of the measured tree (`unknown` outside a git checkout).
    pub commit: String,
}

impl EnvStamp {
    /// The one-minute load average now.
    pub fn loadavg() -> String {
        std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    }

    /// Reads the rest of the stamp around a load average taken at start.
    /// Spawns `git` once and waits for it.
    pub fn read(loadavg: String) -> EnvStamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        EnvStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg,
            cpu,
            rustc: env!("HOSTBENCH_RUSTC"),
            profile: env!("HOSTBENCH_PROFILE"),
            commit,
        }
    }
}

impl std::fmt::Display for EnvStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} loadavg_1m={} cpu={:?} rustc={:?} profile={} commit={}",
            self.nproc, self.loadavg, self.cpu, self.rustc, self.profile, self.commit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn proc_readings_are_live() {
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu() > Duration::ZERO);
    }
}
