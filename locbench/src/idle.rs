//! Idle pollers: one spinning thread per core at the lowest scheduling
//! priority, so a core never halts while a workload runs.
//!
//! On a virtual machine a halted vCPU is descheduled by the host, and waking
//! it again can take milliseconds. A request/response loop wakes cores
//! thousands of times a second, so without pollers that cost dominated the
//! measured latencies and swung with the load of the host's other guests
//! (run-to-run spreads of 30-50% on a 2-vCPU guest). A poller takes the
//! place of the halt and yields the core to the program (see [`Yield`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const PRIO_PROCESS: i32 = 0;
const LOWEST_PRIORITY: i32 = 19;
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// How a poller yields the core to the program under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yield {
    /// `SCHED_IDLE`: preempted the moment any other thread wakes. Used by the
    /// serve workloads, whose latency is a chain of wakeups.
    Immediately,
    /// Nice 19: about 1.5% of a core while anything else is runnable, but
    /// thread placement stays normal. Used by batch_clean, whose
    /// `locate_batch` spawns its workers per call; `SCHED_IDLE` pollers left
    /// those badly placed and cost it 45%.
    ByPriority,
}

/// Lowers the calling thread's scheduling class; `false` if refused.
fn lower_current_thread(policy: Yield) -> bool {
    match policy {
        Yield::Immediately => {
            let param = SchedParam { sched_priority: 0 };
            // SAFETY: `sched_setscheduler` reads one `struct sched_param`
            // (a single int, matched by the `repr(C)` struct above) through
            // the pointer, which points to a live local for the duration of
            // the call; pid 0 names the calling thread.
            unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
        }
        // SAFETY: `setpriority` takes three integers and touches no memory
        // of ours. On Linux the nice value is per thread, and `who = 0`
        // names the calling thread.
        Yield::ByPriority => unsafe { setpriority(PRIO_PROCESS, 0, LOWEST_PRIORITY) == 0 },
    }
}

/// Running pollers; dropping the value stops and joins them.
pub struct IdlePollers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    active: bool,
}

impl IdlePollers {
    /// Starts `n` pollers. A poller that cannot lower its priority exits at
    /// once instead of competing with the program at normal priority.
    pub fn start(n: usize, policy: Yield) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let ready = ready_tx.clone();
                std::thread::spawn(move || {
                    let idle = lower_current_thread(policy);
                    let _ = ready.send(idle);
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        drop(ready_tx);
        let active = ready_rx.iter().take(n).all(|idle| idle) && n > 0;
        IdlePollers {
            stop,
            threads,
            active,
        }
    }

    pub fn active(&self) -> bool {
        self.active
    }
}

impl Drop for IdlePollers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
