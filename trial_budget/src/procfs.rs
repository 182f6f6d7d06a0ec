//! Process CPU time and peak resident set, read from `/proc/self`
//! (no libc crate: the workspace is offline and vendors none).

/// Kernel clock ticks per second as exposed to userspace in
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI this
/// workspace builds for (x86-64, aarch64); reading it properly needs
/// `sysconf`, i.e. libc.
const USER_HZ: f64 = 100.0;

/// Cumulative CPU time of this process (all threads, including ones
/// that have already exited), in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    /// Time in user mode.
    pub user_s: f64,
    /// Time in kernel mode.
    pub sys_s: f64,
}

impl CpuTimes {
    /// user + sys.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parse the contents of `/proc/<pid>/stat`. The command name (field 2)
/// may itself contain spaces and parentheses, so fields are counted
/// from the *last* `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / USER_HZ,
        sys_s: stime as f64 / USER_HZ,
    })
}

/// Parse `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`,
/// in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// This process's CPU times so far.
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .expect("/proc/self/stat readable (the benchmark needs Linux procfs)")
}

/// This process's peak resident set so far, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status has VmHWM (the benchmark needs Linux procfs)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_hostile_comm() {
        let stat = "4242 (trial) budget (x)) S 1 4242 4242 0 -1 4194304 \
                    1203 0 0 0 731 269 0 0 20 0 3 0 123456 1000000 500 \
                    18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let t = parse_stat(stat).unwrap();
        assert_eq!(t.user_s, 7.31);
        assert_eq!(t.sys_s, 2.69);
        assert!((t.total_s() - 10.0).abs() < 1e-12);
        let d = t.since(&CpuTimes {
            user_s: 7.0,
            sys_s: 2.0,
        });
        assert!((d.user_s - 0.31).abs() < 1e-12 && (d.sys_s - 0.69).abs() < 1e-12);
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_parses_kb_to_mib() {
        let status =
            "Name:\ttrial-budget\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_advance() {
        let before = cpu_times();
        let mut acc = 0.0f64;
        // ~50 ms of work: several clock ticks.
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            for i in 0..10_000 {
                acc = acc * 0.999 + i as f64;
            }
        }
        std::hint::black_box(acc);
        let after = cpu_times();
        assert!(after.total_s() >= before.total_s());
        assert!(after.since(&before).total_s() > 0.0, "CPU time advanced");
        assert!(peak_rss_mib() > 0.5, "a running process has resident pages");
    }
}
