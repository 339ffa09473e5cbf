//! What the benchmark asks of the operating system and the C library: the
//! process's peak resident set, the CPUs it may run on, one malloc arena,
//! and a scratch directory under the build's target directory.

use std::io;
use std::path::PathBuf;
use std::sync::OnceLock;

// glibc's scheduler-affinity and allocator-tuning calls. std already links
// glibc; declaring the symbols avoids a `libc` dependency that does not
// resolve offline.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Keep glibc's allocator to one arena for the rest of the process.
///
/// By default every new thread may get an arena of its own, and whether a
/// short-lived scorer thread reuses the arena of the one before it is a
/// race with that thread's exit. Each arena keeps what it has freed, so
/// `tune_search`'s peak resident set read 16 to 21 MB depending on how the
/// races went (quartile spread 0.27 over ten runs) — which of glibc's
/// arenas a thread happened to get, not the program's memory. With one
/// arena it reads 11.4 MB every time, and single-scorer round times do not
/// move. Two scorer workers do contend for the one arena (their speed-up
/// drops from 1.6 to 1.2), so only the runs that report the resident set
/// ask for this.
pub fn single_malloc_arena() {
    // SAFETY: `mallopt` takes two integers and only sets a limit inside
    // the allocator; it is called before any other thread exists.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX, 1) was refused");
}

/// A CPU mask the size of glibc's `cpu_set_t` (1024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPUs the calling thread may run on.
    pub fn current() -> io::Result<Self> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the pointer is to 16 writable u64 and the size passed is
        // exactly their byte length; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(set)
    }

    /// The set holding only the lowest CPU of `self`.
    pub fn first(&self) -> Self {
        let mut one = CpuSet([0; 16]);
        if let Some((word, bits)) = self.0.iter().enumerate().find(|(_, w)| **w != 0) {
            one.0[word] = bits & bits.wrapping_neg();
        }
        one
    }

    /// Restrict the calling thread — and every thread it spawns from now
    /// on — to this set.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: the pointer is to 16 readable u64 and the size passed is
        // exactly their byte length; pid 0 is the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

/// The CPUs the process could use before [`pin`] narrowed them.
static UNPINNED: OnceLock<CpuSet> = OnceLock::new();

/// Pin the calling thread, and every thread started from it later, to
/// the lowest CPU the process may use. Done once, in the first set-up,
/// before anything is started; later calls change nothing.
pub fn pin() -> Result<(), String> {
    if UNPINNED.get().is_some() {
        return Ok(());
    }
    let all = CpuSet::current().map_err(|e| format!("sched_getaffinity: {e}"))?;
    all.first()
        .apply()
        .map_err(|e| format!("sched_setaffinity: {e}"))?;
    UNPINNED.get_or_init(|| all);
    Ok(())
}

/// The mask [`pin`] found; `None` before the first call.
pub fn unpinned() -> Option<CpuSet> {
    UNPINNED.get().copied()
}

/// `VmHWM` of this process — its peak resident set — in MB. The kernel
/// reports kB of 1024 bytes; one MB here is 1024 of them.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// `<directory of this executable>/bench-run`: under the build's target
/// directory wherever cargo put it, so the benchmark writes nothing
/// outside its checkout.
pub fn run_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "executable has no directory"))?
        .join("bench-run");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A per-process scratch directory under [`run_dir`], removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `bench-run/tmp-<pid>` (emptying a stale one).
    pub fn create() -> io::Result<Self> {
        let dir = run_dir()?.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A path inside the scratch directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_keeps_only_the_lowest_cpu() {
        let mut set = CpuSet([0; 16]);
        set.0[1] = 0b1010_0000;
        let mut lowest = CpuSet([0; 16]);
        lowest.0[1] = 0b0010_0000;
        assert_eq!(set.first(), lowest);
        assert_eq!(CpuSet([0; 16]).first(), CpuSet([0; 16]));
    }

    #[test]
    fn affinity_round_trips_and_rss_is_positive() {
        let all = CpuSet::current().unwrap();
        assert_ne!(all, CpuSet([0; 16]));
        // Run on a thread of its own so the mask never leaks into the
        // other tests of this process.
        std::thread::spawn(move || {
            all.first().apply().unwrap();
            assert_eq!(CpuSet::current().unwrap(), all.first());
        })
        .join()
        .unwrap();
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
