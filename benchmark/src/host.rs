//! What the benchmark asks the operating system: resident memory and thread
//! count from `/proc/self/status`, CPU time from the POSIX CPU-time clocks.

use std::fs;

/// A `Name:   <n> kB`-style field of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

fn status_field(name: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_field(&status, name).expect("field in /proc/self/status")
}

/// Resident set size now, MiB.
pub fn rss_mib() -> f64 {
    status_field("VmRSS") as f64 / 1024.0
}

/// Resident set high-water mark, MiB.
pub fn rss_peak_mib() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock ids (`<time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it); `ts` is a
    // valid, writable `struct timespec` (two 64-bit fields on 64-bit Linux)
    // for the duration of the call, and the call retains no pointer.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds this process has used, exited threads included. The clock
/// sums the scheduler's nanosecond run times; `utime`/`stime` in
/// `/proc/self/stat` are sampled at 100 Hz, which is too coarse for a server
/// that does its work in short-lived threads.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Milliseconds this host takes for a fixed piece of single-threaded work
/// (hashing a 16 MiB buffer, already paged in, four times). The reference box's speed wanders by
/// a quarter for minutes at a time; this number tells such a spell from a
/// change in the program.
pub fn reference_work_ms() -> f64 {
    // Written once before the clock starts, so page faults are not timed.
    let mut buffer = vec![1u64; 2 << 20];
    let start = std::time::Instant::now();
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..4 {
        for word in buffer.iter_mut() {
            h = (h ^ *word)
                .wrapping_mul(0x0000_0100_0000_01B3)
                .rotate_left(23);
            *word = h;
        }
    }
    std::hint::black_box(&buffer);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields() {
        let status = "Name:\tbench\nVmHWM:\t  204800 kB\nVmRSS:\t   1024 kB\nThreads:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204800));
        assert_eq!(parse_status_field(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_field(status, "Threads"), Some(7));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
        // A prefix of another field's name must not match it.
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[test]
    fn live_readers_work_on_this_host() {
        assert!(rss_mib() > 0.0);
        assert!(rss_peak_mib() >= rss_mib() * 0.5);
        assert!(threads() >= 1);
        // Burn a little CPU: both clocks must advance, the process's at
        // least as much as this thread's.
        let (process, thread) = (process_cpu_s(), thread_cpu_s());
        let mut x = 1u64;
        while thread_cpu_s() - thread < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_s() - process >= 0.009);
    }
}
