//! Keep the host's CPUs from halting while a run measures, and give
//! each rank thread a CPU of its own.
//!
//! Rank threads wait for messages by blocking. On a virtual machine
//! whose idle CPUs halt, every wake-up then goes through the hypervisor,
//! and on a shared host that round trip is long and erratic. One
//! lowest-priority (`SCHED_IDLE`) spinner per CPU keeps each CPU busy
//! exactly when no rank thread is runnable; a waking rank thread preempts
//! it at once, so a message wake-up costs a guest context switch, as it
//! would on a dedicated node. The spinners never delay a runnable thread
//! by more than a scheduler tick's idle-class share, and their CPU time
//! is not counted in `core_s` (which reads only the rank threads).
//!
//! Rank `r` and spinner `r` are pinned to the `r`-th CPU this process
//! may use, one rank per CPU as on a dedicated node, so the guest never
//! migrates a rank or stacks two ranks on one CPU.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

extern "C" {
    /// glibc's `sched_setscheduler`; `pid` 0 is the calling thread.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    /// glibc's `sched_getaffinity`; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    /// glibc's `sched_setaffinity`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size` bytes into the live local.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Pin the calling thread to the `slot`-th CPU it may use (modulo their
/// number); whether the kernel accepted it.
pub fn pin(slot: usize) -> bool {
    let cpus = allowed_cpus();
    let Some(&cpu) = cpus.get(slot % cpus.len().max(1)) else { return false };
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes of the live local mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// Running spinners; stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<bool>>,
}

impl KeepAwake {
    /// One idle-class spinner on each of the first `cpus` CPUs.
    pub fn start(cpus: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus)
            .map(|cpu| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    pin(cpu);
                    let priority = 0i32;
                    // SAFETY: the call reads one `int` (sched_priority)
                    // through a pointer to a live local.
                    let ok = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                    if ok {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                    ok
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }

    /// Stop and join the spinners; whether each ran at idle priority.
    pub fn stop(mut self) -> bool {
        self.halt()
    }

    fn halt(&mut self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        // Join every spinner before judging any.
        let idle: Vec<bool> = self.threads.drain(..).map(|t| t.join().unwrap_or(false)).collect();
        idle.into_iter().all(|ok| ok)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.halt();
    }
}
