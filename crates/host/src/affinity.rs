//! CPU affinity: pin the calling thread to one core.
//!
//! The paper sets "the affinity of MPI processes to particular cores ...
//! with the `sched` system library"; this module is the Rust equivalent
//! over `sched_setaffinity(2)`. Pinning is best-effort: on platforms or
//! containers where it fails (restricted cpusets, non-Linux), measurements
//! still run, just without placement control.

/// The three C-library entry points this module needs, declared against
/// the libc that std already links.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long};

    /// Cores a mask can name (glibc's and musl's `CPU_SETSIZE`).
    pub const CPU_SETSIZE: usize = 1024;

    /// `cpu_set_t`: core `c` is bit `c % 64` of word `c / 64`, the kernel's
    /// layout on every 64-bit and every little-endian target.
    pub type CpuSet = [u64; CPU_SETSIZE / 64];

    /// `_SC_PAGESIZE` on Linux, every architecture.
    pub const SC_PAGESIZE: c_int = 30;

    extern "C" {
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
        pub fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }
}

/// Restrict the calling thread to `cores`. `false` when a core is beyond
/// what a mask can name or the kernel refuses the mask.
#[cfg(target_os = "linux")]
fn set_allowed_cores(cores: &[usize]) -> bool {
    let mut set = sys::CpuSet::default();
    for &core in cores {
        if core >= sys::CPU_SETSIZE {
            return false;
        }
        set[core / 64] |= 1 << (core % 64);
    }
    // SAFETY: `set` is a live, initialised mask of exactly the size passed,
    // and the call only reads it; pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), &set) == 0 }
}

/// Pin the calling thread to `core`. Returns `true` on success.
#[cfg(target_os = "linux")]
pub fn pin_to_core(core: usize) -> bool {
    set_allowed_cores(&[core])
}

/// Pinning is a no-op off Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_core(_core: usize) -> bool {
    false
}

/// The set of cores the calling thread may run on, by index.
#[cfg(target_os = "linux")]
pub fn allowed_cores() -> Vec<usize> {
    let mut set = sys::CpuSet::default();
    // SAFETY: `set` is a live mask of exactly the size passed, which the
    // call fills; pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..sys::CPU_SETSIZE)
        .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Unknown affinity off Linux.
#[cfg(not(target_os = "linux"))]
pub fn allowed_cores() -> Vec<usize> {
    Vec::new()
}

/// Number of logical cores available to this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// OS page size in bytes.
#[cfg(target_os = "linux")]
pub fn page_size() -> usize {
    // SAFETY: `sysconf` takes no pointers and only reads process state.
    let ps = unsafe { sys::sysconf(sys::SC_PAGESIZE) };
    if ps > 0 {
        ps as usize
    } else {
        4096
    }
}

/// Assume 4 KB pages off Linux.
#[cfg(not(target_os = "linux"))]
pub fn page_size() -> usize {
    4096
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_core() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn page_size_sane() {
        let ps = page_size();
        assert!(ps.is_power_of_two());
        assert!((1024..=1024 * 1024).contains(&ps));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn allowed_cores_nonempty() {
        let cores = allowed_cores();
        assert!(!cores.is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_to_first_allowed_core() {
        let cores = allowed_cores();
        assert!(pin_to_core(cores[0]));
        assert_eq!(allowed_cores(), [cores[0]]);
        // Restore the original mask for later tests.
        assert!(set_allowed_cores(&cores));
        assert_eq!(allowed_cores(), cores);
    }

    #[test]
    fn pin_beyond_the_mask_is_refused() {
        assert!(!pin_to_core(1024));
        assert!(!pin_to_core(usize::MAX));
    }
}
