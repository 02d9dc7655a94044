//! CPU placement for the serving workloads: the daemons on one CPU, the
//! generator on another.
//!
//! Threads inherit their creator's affinity, so a fleet started while the
//! calling thread is pinned to the daemon CPU keeps every daemon thread
//! (epoll loop, worker, peer pool, placement search) there. The generator
//! then pins itself to its own CPU. Without this, which threads shared a
//! CPU changed from round to round, and with it the cost of every
//! wake-up on the request path: per-round `p50_ms` moved by up to 2× on a
//! 2-vCPU VM.

/// `cpu_set_t`: room for 1024 CPUs, as glibc declares it.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's affinity mask.
pub fn current() -> CpuSet {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    set
}

/// Restrict the calling thread to `set`.
pub fn set(set: &CpuSet) {
    // SAFETY: `set` is a valid cpu_set_t of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

impl CpuSet {
    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..self.0.len() * 64)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The set holding only `cpu`.
    pub fn only(cpu: usize) -> CpuSet {
        let mut s = CpuSet([0; 16]);
        s.0[cpu / 64] = 1 << (cpu % 64);
        s
    }
}

/// Where a round's threads run: `(daemons, generator)`, or `None` when
/// fewer than two CPUs are allowed and everything shares them.
pub fn split(allowed: &CpuSet) -> Option<(CpuSet, CpuSet)> {
    match allowed.cpus()[..] {
        [gen, daemons, ..] => Some((CpuSet::only(daemons), CpuSet::only(gen))),
        _ => None,
    }
}
