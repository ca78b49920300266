//! Readers for the process and host facts a result is reported with:
//! CPU time and peak resident set from `/proc/self`, and the host facts
//! (cores, filesystem, kernel, compiler) printed beside every result.

use std::path::Path;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux fixes
/// `USER_HZ` at 100 in its user-space ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread, live or
/// exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / USER_HZ
}

/// User plus system CPU seconds of the calling thread alone.
pub fn thread_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat")
        .expect("/proc/thread-self/stat is readable");
    parse_stat_cpu_ticks(&stat).expect("/proc/thread-self/stat has utime and stime") as f64
        / USER_HZ
}

/// `utime + stime` in clock ticks from the text of a `/proc/<pid>/stat` file.
/// The command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command name: state is field 3, utime field 14, stime 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
pub fn peak_rss_kb() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vmhwm_kb(&status).expect("/proc/self/status reports VmHWM")
}

/// The `VmHWM` field of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Filesystem type of the mount holding `path` (for example `tmpfs` or
/// `ext4`), from `/proc/self/mounts`.
pub fn fs_type(path: &Path) -> String {
    let canonical = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    fs_type_from_mounts(&mounts, &canonical).unwrap_or_else(|| "unknown".to_string())
}

/// The type of the longest mount point in `mounts` that contains `path`.
pub fn fs_type_from_mounts(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount_point, fs) = (f.next()?, f.next()?, f.next()?);
            // The kernel escapes spaces in mount points as \040.
            let mount_point = mount_point.replace("\\040", " ");
            path.starts_with(&mount_point).then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Host-wide CPU time so far, in clock ticks: (stolen by the hypervisor,
/// total), from `/proc/stat`.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_steal(&stat).unwrap_or((0, 0))
}

/// (steal, total) ticks from the aggregate `cpu` line of a `/proc/stat`.
pub fn parse_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> =
        line.split_whitespace().skip(1).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Kernel release (`uname -r`).
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Version of the compiler that built the benchmark (recorded by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("LOOPBENCH_RUSTC_VERSION")
}

/// Words of the CPU mask handed to the scheduler calls (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and the
    // call writes at most that many bytes into it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return vec![0];
    }
    (0..MASK_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restricts thread `tid` (0: the calling thread) to `cpu`. Threads it
/// creates afterwards inherit the restriction. Returns whether it applied.
pub fn pin_thread(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; the
    // call only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Thread ids of this process whose name starts with `prefix`, with the
/// nanoseconds each has run so far (`/proc/self/task/*/schedstat`).
pub fn thread_run_ns(prefix: &str) -> Vec<(i32, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(i32, u64)> = tasks
        .filter_map(|t| {
            let t = t.ok()?;
            let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
            if !comm.starts_with(prefix) {
                return None;
            }
            let tid = t.file_name().to_str()?.parse().ok()?;
            let sched = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            Some((tid, sched.split_whitespace().next()?.parse().ok()?))
        })
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_are_counted_after_the_command_name() {
        let stat = "4242 (a (weird) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 75 0 0 20 0 3 0 123 456789 100 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(325));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None, "truncated stat");
    }

    #[test]
    fn live_cpu_time_is_monotone() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..3_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= a);
    }

    #[test]
    fn vmhwm_is_parsed_in_kib() {
        let status =
            "Name:\tloopbench\nVmPeak:\t  20000 kB\nVmHWM:\t   5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(5120));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t1 kB\n"), None);
        assert!(peak_rss_kb() > 100, "a running test uses more than 100 KiB");
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 5 50 800 10 0 20 15 0 0\ncpu0 50 2 25 400 5 0 10 8 0 0\n";
        assert_eq!(parse_steal(stat), Some((15, 1000)));
        assert_eq!(parse_steal("cpu0 1 2 3\n"), None);
        let (steal, total) = steal_ticks();
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn longest_containing_mount_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\n\
                      tmpfs /dev/shm tmpfs rw 0 0\n\
                      tmpfs /dev/shm/my\\040dir tmpfs rw 0 0\n\
                      proc /proc proc rw 0 0\n";
        let fs = |p: &str| fs_type_from_mounts(mounts, Path::new(p));
        assert_eq!(fs("/dev/shm/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/home/x").as_deref(), Some("ext4"));
        assert_eq!(fs("/dev/shm/my dir/y").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/dev/shmx").as_deref(), Some("ext4"), "prefix match is per component");
        assert_eq!(fs_type_from_mounts("", Path::new("/")), None);
    }

    #[test]
    fn pinning_the_calling_thread_sticks() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        std::thread::spawn(move || {
            assert!(pin_thread(0, last));
            assert_eq!(allowed_cpus(), vec![last]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn named_threads_report_their_run_time() {
        let worker = std::thread::Builder::new()
            .name("probe-thread".into())
            .spawn(|| {
                let mut x = 0u64;
                for i in 0..2_000_000u64 {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                thread_run_ns("probe-thr")
            })
            .unwrap();
        let seen = worker.join().unwrap();
        assert_eq!(seen.len(), 1, "exactly the probe thread matches: {seen:?}");
        assert!(seen[0].1 > 0);
    }
}
