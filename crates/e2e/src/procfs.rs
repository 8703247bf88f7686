//! Process and host readings from `/proc` (Linux): CPU time, context
//! switches and peak resident set, plus the fixed calibration loop that
//! records how fast the host itself was when a window ran.

use std::time::Instant;

/// User + system CPU time of the whole process — every thread, including
/// ones that already exited — in ms, at the clock's nanosecond resolution
/// (`/proc/self/stat` only counts 10 ms ticks, which would quantise
/// `cpu_ms_per_query` to a handful of values). `None` where the call is
/// unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ms() -> Option<f64> {
    /// `struct timespec` of 64-bit Linux: `time_t` and `long` are both i64.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc function std already links; it
    // writes one `struct timespec` — whose 64-bit Linux layout `Timespec`
    // reproduces — through a valid, exclusive pointer and keeps nothing.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

/// No process CPU clock is wired up off 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ms() -> Option<f64> {
    None
}

/// Voluntary + involuntary context switches summed over every live thread
/// (a thread that exits between the directory listing and the read is
/// skipped, not an error).
pub fn context_switches() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += v.trim().parse::<u64>().ok()?;
            }
        }
    }
    Some(total)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// A fixed amount of single-threaded work — a dependent pointer walk over a
/// 4 MiB cycle plus an integer hash chain — timed in ms. It touches no code
/// of the program under test, so a shift in this number between rounds or
/// runs is the host, not the change being measured.
pub fn calibrate_ms() -> f64 {
    const SLOTS: usize = 1 << 20;
    const WALK: usize = 1 << 21;
    const MIX: u64 = 1 << 23;
    // Sattolo's algorithm with a fixed xorshift stream: one cycle through
    // every slot, identical in every process. Built outside the timing.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..SLOTS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    let started = Instant::now();
    let mut at = 0u32;
    for _ in 0..WALK {
        at = next[at as usize];
    }
    let mut h = u64::from(at) | 1;
    for i in 0..MIX {
        h = (h ^ i).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
    }
    std::hint::black_box(h);
    started.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_available_and_sane() {
        let before = process_cpu_ms().expect("64-bit linux");
        std::hint::black_box(calibrate_ms());
        let after = process_cpu_ms().expect("64-bit linux");
        assert!(after > before, "burning CPU must advance the CPU clock");
        assert!(context_switches().is_some());
        assert!(peak_rss_mib().expect("VmHWM") > 0.5);
    }

    #[test]
    fn calibration_does_measurable_work() {
        assert!(calibrate_ms() > 0.1);
    }
}
