//! Process accounting and placement: peak resident memory out of
//! `/proc/self/status`, CPU time from `getrusage(2)`, CPU affinity from
//! `sched_{get,set}affinity(2)`. 64-bit Linux only, like the TCP workloads'
//! worker processes.

/// `VmHWM` (peak resident set size, kB) out of `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set size of this process so far, in MB (the kernel's kB
/// figure ÷ 1024).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `struct rusage` of 64-bit Linux: `ru_utime` and `ru_stime` as
/// `timeval { tv_sec, tv_usec }`, then fourteen `long`s not read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

const _: () = assert!(
    cfg!(all(target_os = "linux", target_pointer_width = "64")),
    "the Rusage layout above is that of 64-bit Linux"
);

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 of them.
#[repr(transparent)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The set holding only this set's lowest CPU.
    pub fn lowest_only(self) -> CpuSet {
        let mut one = [0u64; 16];
        if let Some(i) = self.0.iter().position(|word| *word != 0) {
            one[i] = 1 << self.0[i].trailing_zeros();
        }
        CpuSet(one)
    }
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn affinity() -> Result<CpuSet, String> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable buffer of the size passed, which is
    // what the call fills; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Restricts the calling thread to `set`. Threads and processes it starts
/// afterwards inherit the restriction.
pub fn set_affinity(set: CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a live buffer of the size passed, which the call
    // only reads; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds consumed so far by this process, all its threads (ended ones
/// too), and the child processes it has waited for. The kernel keeps these
/// in nanoseconds; `/proc/self/stat` prints the same figures rounded to
/// 10 ms ticks, which on a one-second operation reads the same on most runs.
pub fn cpu_seconds() -> f64 {
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(|who| {
            let mut usage = Rusage::default();
            // SAFETY: `usage` is a live, writable `struct rusage` of the
            // layout this target's libc expects (checked above), and both
            // `who` values are valid, so the call writes that struct and
            // nothing else.
            let rc = unsafe { getrusage(who, &mut usage) };
            assert_eq!(rc, 0, "getrusage({who}) cannot fail on valid arguments");
            let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
            seconds(usage.utime) + seconds(usage.stime)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_status_lines() {
        let status =
            "Name:\tbench_e2e\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn a_thread_pinned_to_one_cpu_passes_that_on_and_can_be_released() {
        // On a thread of its own: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let all = affinity().unwrap();
            let one = all.lowest_only();
            let cpus = |set: CpuSet| set.0.iter().map(|word| word.count_ones()).sum::<u32>();
            assert!(cpus(all) >= 1);
            assert_eq!(cpus(one), 1);
            assert_eq!(one.lowest_only(), one);
            set_affinity(one).unwrap();
            assert_eq!(affinity().unwrap(), one);
            let inherited = std::thread::spawn(|| affinity().unwrap()).join().unwrap();
            assert_eq!(
                inherited, one,
                "a new thread starts where its parent may run"
            );
            set_affinity(all).unwrap();
            assert_eq!(affinity().unwrap(), all);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn live_readings_are_positive_and_cpu_time_covers_reaped_children() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        assert!(before > 0.0);
        // A child that burns some CPU, waited for: its time is ours now.
        let status = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .status()
            .expect("sh runs");
        assert!(status.success());
        let spent = cpu_seconds() - before;
        assert!(spent > 0.001, "child CPU time not billed: {spent}");
    }
}
