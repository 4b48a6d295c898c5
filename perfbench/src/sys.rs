//! The two Linux calls the benchmark needs that `std` does not offer.

use std::os::raw::{c_int, c_long, c_ulong};

#[repr(C)]
struct Rusage {
    /// `ru_utime` and `ru_stime`, two `timeval`s.
    times: [c_long; 4],
    /// `ru_maxrss` first, then thirteen more counters.
    counters: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const PR_SET_TIMERSLACK: c_int = 29;

/// Peak resident set size of the process in KiB.
pub fn max_rss_kib() -> u64 {
    let mut usage = Rusage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of the
    // C `struct rusage` on 64-bit Linux (4 + 14 longs), which is all
    // `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.counters[0].max(0) as u64
    } else {
        0
    }
}

/// Shrink the calling thread's timer slack to 1 ns, so a paced client
/// thread's sleeps end close to their deadline instead of up to the
/// default 50 µs late. Best effort: failure leaves the default slack.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes its value in `arg2` and ignores the
    // remaining arguments; it only changes this thread's scheduling slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}
