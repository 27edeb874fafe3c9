//! CPU affinity pinning for campaign workers and dispatcher worker
//! processes.
//!
//! A campaign wants each worker thread (and each `repro work` process)
//! parked on one core: pinning stops the OS
//! scheduler from migrating a worker mid-cell, which would drag its
//! packed trace stream and simulator state across LLC domains and charge
//! the migration to the measurement. Workers execute their cells
//! workload-major (matrix order), so consecutive cells replay the same
//! trace pool — staying on one core keeps that stream LLC-hot from cell
//! to cell.
//!
//! The implementation is a direct `sched_setaffinity(2)` call through the
//! C library (no `libc` crate — the workspace is offline), gated to
//! Linux. Everywhere else [`pin_to_core`] is a no-op returning `false`,
//! and callers treat pinning as best-effort: a failed pin degrades to the
//! unpinned behavior, never to an error.

/// Pins the *calling thread* to `core` (a zero-based CPU index).
///
/// Returns `true` if the affinity mask was applied. Returns `false` — and
/// changes nothing — on non-Linux targets, for core indices beyond the
/// 1024-bit `cpu_set_t`, or when the kernel rejects the mask (e.g. the
/// core does not exist or is outside the process's cgroup cpuset).
///
/// `repro work --pin <core>` calls this first thing, so a host can run
/// one pinned dispatcher worker per core.
pub fn pin_to_core(core: usize) -> bool {
    pin_impl(core)
}

#[cfg(target_os = "linux")]
fn pin_impl(core: usize) -> bool {
    // A glibc/musl cpu_set_t is 1024 bits; represent it as 16 u64 words.
    const WORDS: usize = 16;
    if core >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[core / 64] = 1u64 << (core % 64);

    extern "C" {
        // PID 0 = the calling thread. Declared directly against the C
        // library (which std already links) instead of the libc crate.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` outlives the call and `cpusetsize` matches its size;
    // sched_setaffinity reads the mask and touches no other memory.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_impl(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_cores_are_rejected() {
        assert!(!pin_to_core(1 << 20));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_to_core_zero_succeeds_on_linux() {
        // Core 0 always exists (outside exotic cpusets). This pins only
        // the test's own thread, which the harness discards afterwards.
        assert!(pin_to_core(0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_to_an_absent_core_fails_cleanly() {
        let beyond = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            + 512;
        if beyond < 1024 {
            assert!(!pin_to_core(beyond));
        }
    }
}
