//! Process-level controls that keep the host out of the figures.
//!
//! On a small shared machine, two things move a closed loop's latency by
//! tens of percent between runs of the same code: whether the client and
//! the server worker land on the same CPU or on two (which decides whether
//! the server's post-response cleanup overlaps the client's next request),
//! and which glibc malloc arena each thread draws from (which decides the
//! peak resident set). A run therefore pins its whole process to one CPU
//! and to a single malloc arena before it starts any thread. It also keeps
//! large buffers (a 0.7 MB upload body, a parsed table) in the heap rather
//! than in fresh `mmap`ed pages that fault in again on every request. None
//! of this changes what the program computes: the search is pinned to one
//! thread already, and with one CPU no two threads run at once.

use std::ffi::c_int;

/// Bits in the kernel's `cpu_set_t`.
const CPU_SET_WORDS: usize = 1024 / 64;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` when
/// the affinity could not be read or set (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the size
    // of the kernel's `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes holding one CPU
    // the thread is already allowed on; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Make every thread allocate from one malloc arena, serve every
/// allocation below 32 MiB from that heap instead of its own `mmap`, and
/// leave freed memory in the heap until an explicit trim (see
/// [`reset_peak_rss`]). Returns whether the allocator took every setting
/// (always `false` off glibc).
pub fn steady_malloc() -> bool {
    #[cfg(target_env = "gnu")]
    {
        /// glibc's `mallopt` parameters.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        const M_ARENA_MAX: c_int = -8;
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own settings; it is called before any other thread
        // exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1) == 1
                && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
        }
    }
    #[cfg(not(target_env = "gnu"))]
    {
        false
    }
}

/// Hand the pages that freed memory still holds back to the kernel, then
/// reset the peak resident set (`VmHWM`) to the current resident set, so
/// that a later [`peak_rss_mb`] covers what is live now plus what runs
/// after this call, not what set-up left behind. Returns whether the
/// kernel took the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes a byte count and only returns free pages
    // of the allocator's own heap to the kernel.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set (`VmHWM`), in MB, or `None` where
/// `/proc` is unavailable.
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
    Some(kb * 1024.0 / 1e6)
}
