//! The host clock of every measurement: CPU time of this process.
//!
//! The library under test is synchronous and single-threaded, so process
//! CPU time is its wall time minus the intervals in which the (virtual)
//! CPU was taken away — on a shared 2-vCPU sandbox that steal time is
//! bursty and reaches a multiple of the work itself, which no amount of
//! repetition averages out of a wall clock.  CPU time also stays honest
//! as a *cost* once work moves to worker threads (it sums all threads);
//! a wall-clock companion belongs to the change that introduces them.

/// Seconds of CPU time this process has consumed.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn now() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through
    // the pointer; `ts` is a live, properly aligned value whose layout is
    // the C struct's on 64-bit Linux (two `long`s), and the clock id is a
    // constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere there is no portable CPU clock in `std`: fall back to the
/// monotonic wall clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn now() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_clock_never_runs_backwards_and_advances_with_work() {
        let t0 = super::now();
        let mut x = 0u64;
        let mut last = t0;
        while last - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            let t = super::now();
            assert!(t >= last);
            last = t;
        }
    }
}
