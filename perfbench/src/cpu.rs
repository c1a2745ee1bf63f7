//! Thread placement of the srv sessions.
//!
//! The client and the shard server both spin while they wait for each
//! other. Left to the scheduler on a 2-vCPU VM, the pair migrates and
//! now and then shares one CPU; with each pinned to a CPU of its own,
//! the spread of read-zipf's figures over six seeds was about half as
//! wide (0.05-0.07 of the median against 0.10-0.15).

/// A set of CPUs in the kernel's `cpu_set_t` layout (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        set
    }

    fn cpus(&self) -> impl Iterator<Item = usize> + '_ {
        (0..1024).filter(|&cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
    }

    /// The CPUs the calling thread may run on.
    #[cfg(target_os = "linux")]
    fn current() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: pid 0 names the calling thread, and the mask is the
        // 128 bytes the size says.
        let rc = unsafe { sched_getaffinity(0, 128, set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Restricts the calling thread to this set; false if refused.
    #[cfg(target_os = "linux")]
    fn apply(&self) -> bool {
        // SAFETY: as in `current`; the kernel only reads the mask.
        unsafe { sched_setaffinity(0, 128, self.0.as_ptr()) == 0 }
    }

    #[cfg(not(target_os = "linux"))]
    fn current() -> Option<CpuSet> {
        None
    }

    #[cfg(not(target_os = "linux"))]
    fn apply(&self) -> bool {
        false
    }
}

/// Two CPUs the calling thread may run on, for the client and the
/// server; `None` with fewer than two.
pub fn two_cpus() -> Option<(usize, usize)> {
    let set = CpuSet::current()?;
    let mut cpus = set.cpus();
    Some((cpus.next()?, cpus.next()?))
}

/// Keeps the calling thread on one CPU until dropped, then gives it
/// back the CPUs it had. Threads it spawns meanwhile inherit the pin.
pub struct Pinned(CpuSet);

impl Pinned {
    /// Pins the calling thread to `cpu`, if the kernel allows it.
    pub fn to(cpu: usize) -> Option<Pinned> {
        let before = CpuSet::current()?;
        CpuSet::only(cpu).apply().then_some(Pinned(before))
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        self.0.apply();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_list_their_cpus() {
        assert_eq!(CpuSet::only(0).cpus().collect::<Vec<_>>(), vec![0]);
        assert_eq!(CpuSet::only(70).cpus().collect::<Vec<_>>(), vec![70]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pin_is_undone_on_drop() {
        let before = CpuSet::current().expect("affinity is readable");
        let cpu = before.cpus().next().expect("some CPU is allowed");
        std::thread::spawn(move || {
            let start = CpuSet::current();
            {
                let _pin = Pinned::to(cpu).expect("an allowed CPU can be pinned");
                assert_eq!(CpuSet::current(), Some(CpuSet::only(cpu)));
            }
            assert_eq!(CpuSet::current(), start);
        })
        .join()
        .unwrap();
    }
}
