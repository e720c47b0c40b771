//! CPU pinning, so the load generator and the server never share a core.
//!
//! Left to itself the scheduler sometimes runs the busy-polling
//! generator and the server's worker on the same CPU while the other
//! idles, which cuts closed-loop throughput about threefold and turns
//! the latency tail into scheduler time slices. Threads inherit their
//! creator's CPU mask, so pinning the calling thread before it spawns
//! the server pins the server's threads too.

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    pub struct CpuSet(pub [u64; 16]);

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// The CPUs the calling thread may run on (empty where unsupported).
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut set = sys::CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| set.0[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads it spawns later) to `cpus`.
/// Returns whether the kernel accepted the mask.
#[cfg(target_os = "linux")]
pub fn restrict(cpus: &[usize]) -> bool {
    let mut set = sys::CpuSet([0; 16]);
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        set.0[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is an initialized `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), &set) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn restrict(_cpus: &[usize]) -> bool {
    false
}
