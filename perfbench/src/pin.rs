//! Pins the calling thread, and every thread it spawns afterwards, to
//! one CPU.
//!
//! The deterministic simulator runs one host thread per simulated
//! thread but lets only one of them run at a time, handing a token
//! from thread to thread. Spread over several CPUs, every hand-off is a
//! cross-CPU wake-up, whose cost is the host scheduler's, not the
//! simulator's; on one CPU a hand-off is a plain context switch.

/// The calling thread's CPU mask from before a pin; dropping it
/// restores that mask.
pub struct Pinned {
    previous: Option<sys::CpuSet>,
    cpu: Option<usize>,
}

impl Pinned {
    /// The CPU the thread is pinned to, when pinning succeeded.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }
}

/// The CPUs the calling thread may run on; every CPU the machine has
/// where the platform has no affinity call.
pub fn allowed_cpus() -> Vec<usize> {
    match sys::get() {
        Some(mask) => cpus_of(&mask),
        None => (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect(),
    }
}

fn cpus_of(mask: &sys::CpuSet) -> Vec<usize> {
    (0..sys::WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to the lowest CPU it may run on. Where the
/// platform has no affinity call, or the call fails, nothing changes.
pub fn one_cpu() -> Pinned {
    let Some(previous) = sys::get() else {
        return Pinned {
            previous: None,
            cpu: None,
        };
    };
    let cpu = cpus_of(&previous).first().copied();
    let pinned = cpu.filter(|&c| {
        let mut mask = [0u64; sys::WORDS];
        mask[c / 64] = 1 << (c % 64);
        sys::set(&mask)
    });
    Pinned {
        previous: pinned.map(|_| previous),
        cpu: pinned,
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(mask) = &self.previous {
            sys::set(mask);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a `cpu_set_t` (1024 CPUs).
    pub const WORDS: usize = 16;
    pub type CpuSet = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The calling thread's mask (pid 0 is the calling thread).
    pub fn get() -> Option<CpuSet> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub const WORDS: usize = 16;
    pub type CpuSet = [u64; WORDS];

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_new_threads_and_restores_the_mask() {
        let before = sys::get();
        {
            let pin = one_cpu();
            if let Some(cpu) = pin.cpu() {
                let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
                assert_eq!(inherited, vec![cpu]);
            }
        }
        assert_eq!(sys::get(), before);
    }
}
