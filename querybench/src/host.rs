//! Facts about the host and the process: parallelism, revision, build
//! profile, and resource usage from `getrusage` and `/proc/self`.

use std::path::Path;

/// `std::thread::available_parallelism`, the width every workload
/// sizes its clients, shards and workers by.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile the benchmark binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git revision of the checkout at `root`, read from `.git`
/// without running git; `"unknown"` outside a repository.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Process-wide resource counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time of every thread, live or exited.
    pub cpu_ns: u64,
    /// Voluntary context switches (blocking waits).
    pub vol_csw: u64,
    /// Involuntary context switches (preemptions).
    pub invol_csw: u64,
}

impl Usage {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            vol_csw: self.vol_csw.saturating_sub(earlier.vol_csw),
            invol_csw: self.invol_csw.saturating_sub(earlier.invol_csw),
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals then fourteen
    /// `long` counters.
    #[repr(C)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub longs: [i64; 14],
    }

    /// Index of `ru_nvcsw` in [`Rusage::longs`].
    pub const NVCSW: usize = 12;
    /// Index of `ru_nivcsw` in [`Rusage::longs`].
    pub const NIVCSW: usize = 13;
    /// `RUSAGE_SELF`: every thread of the calling process.
    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// Reads `getrusage(RUSAGE_SELF)`: it counts exited threads too, which
/// `/proc/self/status` does not (the live engine's worker threads end
/// with each query).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut ru = ffi::Rusage {
        ru_utime: ffi::Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: ffi::Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above; getrusage writes only inside it and
    // keeps no pointer past the call.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let tv_ns = |t: &ffi::Timeval| {
        (t.tv_sec.max(0) as u64) * 1_000_000_000 + (t.tv_usec.max(0) as u64) * 1_000
    };
    Usage {
        cpu_ns: tv_ns(&ru.ru_utime) + tv_ns(&ru.ru_stime),
        vol_csw: ru.longs[ffi::NVCSW].max(0) as u64,
        invol_csw: ru.longs[ffi::NIVCSW].max(0) as u64,
    }
}

/// Without the 64-bit Linux `rusage` layout the counters read 0.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

/// Cumulative `(steal, total)` ticks of every CPU from `/proc/stat`:
/// time the hypervisor ran something else while this machine had work.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// One numeric field of `/proc/self/status` (`VmHWM`, `Threads`, ...).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Threads the process has right now.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_forward() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = usage();
        assert!(b.cpu_ns >= a.cpu_ns);
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
    }
}
