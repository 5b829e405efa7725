//! Process-level counters read from `/proc`, and pinning the process to one
//! CPU (Linux only, like the box the benchmark is sized on). Every reader
//! returns zero when the file or the field is missing and the pinning
//! returns `None`, so the benchmark still runs elsewhere — with the process
//! metrics reading zero and noisier timings.

use std::fs;

/// Kernel clock ticks per second for `utime`/`stime`. `sysconf` is not
/// reachable without libc; every Linux ABI this runs on uses 100.
const TICKS_PER_SECOND: f64 = 100.0;

/// User and system CPU seconds the whole process has consumed so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// `utime` + `stime` of `/proc/self/stat` (all threads, 10 ms ticks).
pub fn cpu_times() -> CpuTimes {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return CpuTimes::default();
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return CpuTimes::default();
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    CpuTimes {
        user_s: ticks() / TICKS_PER_SECOND,
        sys_s: ticks() / TICKS_PER_SECOND,
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") as f64 / 1024.0
}

/// Live threads of the process.
pub fn threads() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "Threads")
}

/// Voluntary plus involuntary context switches summed over every live
/// thread (`/proc/self/status` alone covers only the main thread).
/// Threads that already exited are not counted.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches")
                + status_field(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// The 1-minute load average, or zero when unreadable.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Seconds the hypervisor ran something else while `cpu` (every CPU when
/// `None`) had work: the `steal` field of `/proc/stat`.
pub fn steal_s(cpu: Option<usize>) -> f64 {
    let label = cpu.map_or("cpu".to_string(), |cpu| format!("cpu{cpu}"));
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines().find_map(|line| {
                let mut fields = line.split_whitespace();
                (fields.next()? == label).then(|| fields.nth(7)?.parse::<f64>().ok())?
            })
        })
        .unwrap_or(0.0)
        / TICKS_PER_SECOND
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Restricts the process (and every thread it spawns from here on) to the
/// highest-numbered CPU it may run on, and returns that CPU; `None` where
/// the call is unavailable or fails, and the process stays as it was.
///
/// Must be called before any other thread exists: only the calling
/// thread's mask changes, and new threads inherit their spawner's.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask
            .iter()
            .enumerate()
            .rev()
            .find(|(_, bits)| **bits != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut only = [0u64; 16];
        only[word] = 1 << bit;
        // SAFETY: `only` is a live buffer of exactly `size` bytes.
        (unsafe { sched_setaffinity(0, size, only.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
