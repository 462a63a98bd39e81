//! The host record printed with every run: parallelism, the SIMD
//! backend the kernels dispatched to, the compiler, and the share of CPU
//! time the hypervisor stole while the run measured.

/// Cumulative CPU time counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of a `/proc/stat` text.
pub fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (fields.len() == 8).then(|| CpuTimes {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

pub fn cpu_times() -> Option<CpuTimes> {
    parse_cpu_times(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Stolen share of all CPU time between two readings.
pub fn steal_share(before: CpuTimes, after: CpuTimes) -> Option<f64> {
    let total = after.total.checked_sub(before.total)?;
    let steal = after.steal.checked_sub(before.steal)?;
    (total > 0).then(|| steal as f64 / total as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`), setup
/// included.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host record as JSON fields (no braces), for the report and the
/// trace file.
pub fn record(steal: Option<f64>) -> String {
    format!(
        "\"nproc\": {}, \"pool_threads\": {}, \"backend\": \"{}\", \"rustc\": \"{}\", \
         \"cpu_steal_share\": {}",
        nproc(),
        parallel::Pool::global().threads(),
        hdvec::Backend::active().name(),
        env!("PERFBENCH_RUSTC"),
        steal.map_or_else(|| "null".to_string(), |s| format!("{s:.4}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let stat = "cpu  100 5 20 800 10 1 2 62 0 0\ncpu0 50 2 10 400 5 0 1 31 0 0\n";
        let times = parse_cpu_times(stat).expect("valid");
        assert_eq!(
            times,
            CpuTimes {
                total: 1000,
                steal: 62
            }
        );
        assert!(parse_cpu_times("cpu0 1 2 3\n").is_none());
        assert!(parse_cpu_times("cpu  1 2 x 4 5 6 7 8\n").is_none());
    }

    #[test]
    fn steal_share_is_a_delta() {
        let before = CpuTimes {
            total: 1000,
            steal: 100,
        };
        let after = CpuTimes {
            total: 1400,
            steal: 150,
        };
        assert_eq!(steal_share(before, after), Some(0.125));
        assert_eq!(steal_share(after, before), None);
        assert_eq!(steal_share(before, before), None);
    }
}
