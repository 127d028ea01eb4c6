//! What the process costs the host, read from the kernel: CPU time, peak
//! resident set, page faults. Linux only, no dependencies.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads /proc and calls clock_gettime with the 64-bit Linux timespec layout"
);

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is 100
/// on every architecture the repo builds for.
pub const TICKS_PER_SEC: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stat {
    pub minor_faults: u64,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    // rest = " state ppid pgrp session tty tpgid flags minflt cminflt majflt
    //          cmajflt utime stime ..." (fields 3.. of proc(5)).
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    let num = |i: usize| f.get(i)?.parse::<u64>().ok();
    Some(Stat {
        minor_faults: num(7)?,
        utime_ticks: num(11)?,
        stime_ticks: num(12)?,
    })
}

/// Value in KiB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// This process' `/proc/self/stat`.
pub fn self_stat() -> Stat {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn self_peak_rss_mb() -> f64 {
    let kb = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status_kb(&t, "VmHWM"))
        .expect("/proc/self/status has a VmHWM line on Linux");
    kb as f64 / 1024.0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU nanoseconds this process (all threads) has used since
/// it started. `/proc/self/stat` holds the same total rounded to 10 ms
/// ticks, which is too coarse for a set-up phase of a few milliseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc symbol std itself links; `ts` is a
    // live, writable `struct timespec`, which on 64-bit Linux is two 64-bit
    // signed fields — the layout declared above.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host facts for the report header: what the numbers were measured on.
pub fn host_header() -> Vec<(&'static str, String)> {
    let read = |p: &str| fs::read_to_string(p).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu_model),
        ("rustc", rustc),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("loadavg", read("/proc/loadavg").trim().to_string()),
    ]
}
