//! CPU time and memory read from `/proc`, per process and per thread.
//!
//! Thread names come from `/proc/<pid>/task/<tid>/stat`; thread CPU from
//! the same directory's `schedstat`, whose first field is the time the
//! scheduler ran the thread, in nanoseconds. (`stat`'s utime and stime
//! count 10 ms clock ticks, too coarse for threads that run in short
//! bursts between naps.)

use std::collections::HashMap;
use std::fs;

/// One thread: its name and the CPU it has used, in ns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thread {
    pub comm: String,
    pub cpu_ns: u64,
}

/// The run time (ns) of a `schedstat` line.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// The thread name of a `/proc/.../stat` line. It sits in parentheses
/// and may itself hold spaces or parentheses, so it ends at the last
/// `)`, which must be followed by the state field.
pub fn parse_stat_comm(line: &str) -> Option<String> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    line.get(close + 1..)?.split_whitespace().next()?;
    Some(line.get(open + 1..close)?.to_owned())
}

/// CPU seconds of the whole process `pid` (utime + stime of
/// `/proc/<pid>/stat`, exited threads included), in 10 ms clock ticks
/// (`USER_HZ` is 100 on every Linux architecture).
pub fn process_cpu_s(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |t| t as f64 / 100.0)
}

/// CPU seconds of this process, exited threads included, to the
/// nanosecond (`CLOCK_PROCESS_CPUTIME_ID`): for windows whose CPU is a
/// second or less, where [`process_cpu_s`]'s ticks would show.
pub fn own_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call's duration;
    // the layout matches the 64-bit Linux C ABI.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    t.sec as f64 + t.nsec as f64 / 1e9
}

/// utime + stime (fields 14 and 15) of a `stat` line, in clock ticks.
pub fn parse_stat_ticks(line: &str) -> Option<u64> {
    // After the last ')', field 3 (state) is index 0.
    let fields: Vec<&str> = line
        .get(line.rfind(')')? + 1..)?
        .split_whitespace()
        .collect();
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// CPU seconds that threads `tids` of `pid` have used so far.
pub fn threads_cpu_s(pid: u32, tids: &std::collections::HashSet<u32>) -> f64 {
    let ns: u64 = threads(pid)
        .iter()
        .filter(|(tid, _)| tids.contains(tid))
        .map(|(_, t)| t.cpu_ns)
        .sum();
    ns as f64 / 1e9
}

/// Every live thread of `pid`: tid → name and CPU.
pub fn threads(pid: u32) -> HashMap<u32, Thread> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let read = |f: &str| fs::read_to_string(entry.path().join(f)).ok();
        let comm = read("stat").and_then(|s| parse_stat_comm(&s));
        let cpu_ns = read("schedstat").and_then(|s| parse_schedstat(&s));
        if let (Some(comm), Some(cpu_ns)) = (comm, cpu_ns) {
            out.insert(tid, Thread { comm, cpu_ns });
        }
    }
    out
}

/// Peak resident set size (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// The `VmHWM:` value of a `/proc/<pid>/status` body, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Accumulates CPU per thread over a window, keeping the last reading
/// of threads that exit before the window ends (sample often enough to
/// catch short-lived ones).
#[derive(Debug, Default)]
pub struct ThreadLedger {
    pid: u32,
    start: HashMap<u32, u64>,
    last: HashMap<u32, Thread>,
}

impl ThreadLedger {
    /// Opens a window on `pid`'s current threads.
    pub fn open(pid: u32) -> ThreadLedger {
        let now = threads(pid);
        ThreadLedger {
            pid,
            start: now.iter().map(|(&tid, t)| (tid, t.cpu_ns)).collect(),
            last: now,
        }
    }

    /// Folds in a fresh reading.
    pub fn sample(&mut self) {
        self.last.extend(threads(self.pid));
    }

    /// CPU seconds used within the window by the threads `pick` selects
    /// (given tid and name).
    pub fn cpu_s(&self, mut pick: impl FnMut(u32, &str) -> bool) -> f64 {
        let ns: u64 = self
            .last
            .iter()
            .filter(|(&tid, t)| pick(tid, &t.comm))
            .map(|(tid, t)| {
                t.cpu_ns
                    .saturating_sub(self.start.get(tid).copied().unwrap_or(0))
            })
            .sum();
        ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_hostile_comm() {
        let line = "4242 (cde-reactor-0) S 1 2 3 4 5 6 7 8 9 10 120 35 0 0 20 0 3 0";
        assert_eq!(parse_stat_comm(line).as_deref(), Some("cde-reactor-0"));
        // Spaces and a ')' inside the name end at the last ')'.
        let line = "7 (a) b (c) R 1 2 3 4 5 6 7 8 9 10 3 4 0 0";
        assert_eq!(parse_stat_comm(line).as_deref(), Some("a) b (c"));
        assert_eq!(parse_stat_comm("12 (cut off)"), None);
        assert_eq!(parse_stat_comm("garbage"), None);
        assert_eq!(
            parse_stat_ticks("4242 (x) y) S 1 2 3 4 5 6 7 8 9 10 120 35 0 0 20 0 3 0"),
            Some(155)
        );
        assert_eq!(parse_stat_ticks("12 (short) R 1 2"), None);
    }

    #[test]
    fn parses_schedstat() {
        assert_eq!(parse_schedstat("770540 7136990 3\n"), Some(770_540));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(threads(pid).contains_key(&pid));
        assert!(peak_rss_mb(pid) > 0.0);
        let mut ledger = ThreadLedger::open(pid);
        let own0 = own_cpu_s();
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::black_box(0);
        }
        ledger.sample();
        // The spinning test thread's 20 ms show up in the window.
        let all = ledger.cpu_s(|_, _| true);
        assert!(all > 0.015, "{all}");
        assert!(all >= ledger.cpu_s(|tid, _| tid == pid));
        assert!(process_cpu_s(pid) >= 0.01);
        let own = own_cpu_s() - own0;
        assert!(own > 0.015, "{own}");
    }
}
