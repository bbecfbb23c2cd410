//! Process-wide OS counters, read without extra dependencies: CPU time and
//! context switches from `getrusage(RUSAGE_SELF)` (which sums every thread
//! of the process, exited ones included) and peak resident memory from the
//! `VmHWM` line of `/proc/self/status`, which `/proc/self/clear_refs` can
//! restart.

use std::os::raw::{c_int, c_long};

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// `cpu_set_t`: a bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Default)]
struct CpuSet([u64; 16]);

const RUSAGE_SELF: c_int = 0;

/// Cumulative process CPU time and context switches at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU seconds of all threads.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches of all threads.
    pub ctx_switches: u64,
}

impl Usage {
    /// Reads the counters now.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the kernel's
        // 64-bit layout, and `getrusage` writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
        );
        let secs = |tv: [c_long; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Usage {
            cpu_s: secs(ru.utime) + secs(ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Restarts the `VmHWM` peak from the current resident set size.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Returns the allocator's free memory to the OS, so that what one round
/// of a workload freed does not count toward the next round's peak.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Pins the calling thread to the `k`-th CPU (counting from 0, wrapping)
/// that this process may run on.
pub fn pin_current_thread(k: usize) {
    let mut allowed = CpuSet::default();
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a live, writable `cpu_set_t` of `size` bytes;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size, &mut allowed) };
    assert_eq!(rc, 0, "sched_getaffinity of the calling thread");
    let cpus: Vec<usize> = (0..1024)
        .filter(|&c| allowed.0[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let cpu = cpus[k % cpus.len()];
    let mut one = CpuSet::default();
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t` of `size` bytes naming a CPU the
    // process may use; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, size, &one) };
    assert_eq!(rc, 0, "sched_setaffinity to allowed CPU {cpu}");
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
