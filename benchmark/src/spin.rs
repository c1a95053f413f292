//! Idle-priority threads that keep the virtual cores from halting.
//!
//! The reference box is a virtual machine. When a thread wakes another one
//! whose core sits halted, the host has to schedule that virtual core
//! before the guest can run the thread, and on a busy host this takes
//! milliseconds instead of microseconds, for minutes at a time. A step of
//! `dp2_tcp_deep` or `gpt_single` wakes threads a hundred to five hundred
//! times, so in such an episode the same code ran 3 to 6 times slower: over
//! five alternating pairs of 5 s runs `dp2_tcp_deep` made 65–232 steps/s
//! without these threads and 207–228 with them, `gpt_single` 16–30 and
//! 24–30. A run therefore starts one spinning thread per core in the
//! `SCHED_IDLE` class: it runs only while the core has nothing else to do
//! and any waking thread preempts it at once, so the program never waits
//! for it, but the core never halts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `SCHED_IDLE` of `<sched.h>`.
const SCHED_IDLE: i32 = 5;

/// Thread ids of the running spinners.
static TIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static STARTED: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's id: `/proc/thread-self` links to `<pid>/task/<tid>`.
fn thread_id() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Starts one spinner per core and returns once each has either entered
/// the idle class or given up. A thread the kernel refuses the class does
/// not spin: at normal priority it would take the core from the program.
pub fn start() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..cores {
        std::thread::spawn(|| {
            let param = SchedParam { sched_priority: 0 };
            let tid = thread_id().filter(|_| {
                // SAFETY: `param` outlives the call; pid 0 is the calling thread.
                unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
            });
            if let Some(tid) = tid {
                TIDS.lock().expect("no spinner panics").push(tid);
            }
            STARTED.fetch_add(1, Ordering::Release);
            if tid.is_some() {
                loop {
                    std::hint::spin_loop();
                }
            }
        });
    }
    // Sleeping, not spinning: the spinners only run on a core left idle.
    while STARTED.load(Ordering::Acquire) < cores {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// How many spinners are running.
pub fn running() -> usize {
    TIDS.lock().expect("no spinner panics").len()
}

/// User-mode CPU time the spinners have used so far, in milliseconds: what
/// a reading of the whole process's CPU time has to leave out.
pub fn cpu_user_ms() -> f64 {
    let tids = TIDS.lock().expect("no spinner panics");
    tids.iter()
        .filter_map(|tid| crate::workloads::utime_ms(&format!("/proc/self/task/{tid}/stat")))
        .sum()
}
