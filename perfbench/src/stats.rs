//! Order statistics and process diagnostics (CPU time, context
//! switches, peak RSS, thread count, host), read without the libc
//! crate.

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place and return the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn gethostname(name: *mut u8, len: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict this thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` if
/// the mask could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = CpuSet { bits: [0; 16] };
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and `size`
    // is its length; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask.bits[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t` of `size` bytes, only read.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return None;
    }
    Some(cpu)
}

/// What `getrusage(RUSAGE_SELF)` reports for the whole process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcUsage {
    /// User plus system CPU time.
    pub cpu_us: u64,
    /// Peak resident set size (the kernel's `VmHWM`).
    pub maxrss_kb: u64,
    /// Involuntary context switches.
    pub nivcsw: u64,
}

pub fn proc_usage() -> ProcUsage {
    const RUSAGE_SELF: i32 = 0;
    // SAFETY: `Rusage` is all-integer `repr(C)` matching the kernel
    // layout on 64-bit Linux, so zeroed memory is a valid value, and the
    // call only writes into the struct we pass.
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `ru` is a valid, writable `Rusage` for the call's duration.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return ProcUsage::default();
    }
    let us = |t: &Timeval| (t.sec * 1_000_000 + t.usec) as u64;
    ProcUsage {
        cpu_us: us(&ru.utime) + us(&ru.stime),
        maxrss_kb: ru.maxrss as u64,
        nivcsw: ru.nivcsw as u64,
    }
}

/// Threads in this process, from `/proc/self/status`.
pub fn threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

pub fn hostname() -> String {
    let mut buf = [0u8; 256];
    // SAFETY: the buffer is writable for its full length, which is what
    // we pass; the kernel NUL-terminates within it on success.
    if unsafe { gethostname(buf.as_mut_ptr(), buf.len()) } != 0 {
        return "unknown".into();
    }
    let end = buf.iter().position(|&b| b == 0).unwrap_or(buf.len());
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
