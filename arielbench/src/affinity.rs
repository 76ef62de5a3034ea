//! Running a timed single-threaded step on a chosen CPU.
//!
//! On a shared virtual machine the process's CPUs need not run at one
//! speed: in one rule-fanout run on the reference host, recoveries took a
//! median of about 140 ms on one vCPU and 190 ms on the other. A step
//! that runs on one thread takes the speed of whichever CPU the scheduler
//! gives it, so a median over such steps follows the scheduler's choices
//! as much as the program. The benchmark therefore runs set-ups and
//! recoveries on the process's CPUs in turn and reports the mean of the
//! per-CPU medians (see `served::per_cpu_median_s`).

/// Words of a `cpu_set_t` (1,024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get_mask() -> Option<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // pid 0 is the calling thread
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_mask(mask: &[u64; WORDS]) -> bool {
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// At most this many CPUs take turns, so each keeps enough of a run's
/// rounds for its median.
const MAX_CPUS: usize = 4;

/// The CPUs the calling thread may run on, lowest first, at most
/// [`MAX_CPUS`]; empty where the mask cannot be read.
pub fn cpus() -> Vec<usize> {
    let Some(mask) = get_mask() else {
        return Vec::new();
    };
    (0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .take(MAX_CPUS)
        .collect()
}

/// Run `f` on the calling thread with its affinity narrowed to `cpu`,
/// then restore the thread's mask, so threads started later (the
/// server's) are placed as before. Without a CPU, or where the mask
/// cannot be changed, `f` runs wherever the scheduler puts it.
pub fn on<T>(cpu: Option<usize>, f: impl FnOnce() -> T) -> T {
    let saved = match (cpu, get_mask()) {
        (Some(c), Some(saved)) => {
            let mut one = [0u64; WORDS];
            one[c / 64] = 1 << (c % 64);
            set_mask(&one).then_some(saved)
        }
        _ => None,
    };
    let out = f();
    if let Some(saved) = saved {
        set_mask(&saved);
    }
    out
}
