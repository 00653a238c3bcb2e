//! The process CPU clock the end-to-end metrics are timed with.
//!
//! On a virtual machine, wall time also counts the time the hypervisor
//! gives this machine's virtual CPUs to other guests (steal time). On a
//! shared 2-core VM, steal drifted from run to run and moved wall-based
//! throughput by up to a third between runs of the same input, while CPU
//! time stayed within a few percent. The
//! benchmark's loops are CPU-bound on one worker thread, so on a
//! dedicated core the two clocks differ only by the few milliseconds of
//! device waits (fsync) in a run.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, finished threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far (user and system, all
/// threads), in seconds.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching the C layout through `repr(C)`),
    // and the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
