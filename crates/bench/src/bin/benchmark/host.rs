//! Host facts and process memory, read without leaving the process or the
//! working directory.

use std::fs;

/// The CPUs this process may run on (what `nproc` counts), from the
/// `Cpus_allowed_list` line of `/proc/self/status`.
pub fn allowed_cpus() -> Option<Vec<usize>> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (a, b) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(a.parse::<usize>().ok()?..=b.parse::<usize>().ok()?);
    }
    Some(cpus)
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to one CPU: the last one it may run on. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpu = allowed_cpus()
        .and_then(|c| c.last().copied())
        .ok_or("cannot read Cpus_allowed_list")?;
    // A 1024-CPU `cpu_set_t`, glibc's fixed size.
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return Err(format!("CPU {cpu} is beyond the affinity mask"));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised bitmap of exactly the size
    // passed, which the kernel only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is only implemented on Linux".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set size, so the
/// next `peak_rss_mib` reads the peak since now.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// The commit checked out in the working directory, read from `.git`
/// directly; `None` outside a git checkout.
pub fn git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}
