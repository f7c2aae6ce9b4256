//! Process-level measurements: wall and CPU clocks, and the peak resident
//! set. Linux only, read through the C library the standard library
//! already links and through `/proc/self/status`.

use std::ffi::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process, live and exited.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU seconds this process has consumed so far, all threads included.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout, and
    // the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`) in MiB. `getrusage`'s
/// `ru_maxrss` would not do: it keeps the high-water mark of the image
/// the process was exec'd from (under `cargo run`, cargo's own ~25 MiB).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A wall clock and a process CPU clock started together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

/// Wall and CPU seconds elapsed since a [`Stopwatch`] started.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Process CPU seconds, all threads.
    pub cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Reads both clocks.
    pub fn lap(&self) -> Lap {
        Lap {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: cpu_seconds() - self.cpu,
        }
    }
}
