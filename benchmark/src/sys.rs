//! Resource accounting from the kernel: CPU time and peak resident set
//! size of this process, or of its waited-for children.

use std::os::raw::{c_int, c_long};
use std::sync::OnceLock;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen longs
/// of which the first is the peak RSS in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

/// CPU seconds (user + system) and peak RSS in MB.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

fn usage(who: c_int) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the kernel's
    // layout for this target, and getrusage writes nothing outside it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage cannot fail for RUSAGE_SELF/RUSAGE_CHILDREN"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
    }
}

/// This process, all threads.
pub fn own() -> Usage {
    usage(0)
}

/// CPU seconds of every child this process has waited for.
pub fn children() -> Usage {
    usage(-1)
}

/// Peak RSS in MB of running process `pid`, from `/proc/<pid>/status`.
pub fn peak_rss_mb_of(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How many of `ports` have a UDP socket bound on this host, from
/// `/proc/net/udp`.
pub fn udp_ports_bound(ports: &std::ops::Range<u16>) -> usize {
    let Ok(table) = std::fs::read_to_string("/proc/net/udp") else {
        return 0;
    };
    let mut bound: Vec<u16> = table
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().nth(1)?.rsplit(':').next())
        .filter_map(|hex| u16::from_str_radix(hex, 16).ok())
        .filter(|port| ports.contains(port))
        .collect();
    bound.sort_unstable();
    bound.dedup();
    bound.len()
}

/// The CPUs this process was allowed to run on before it pinned itself.
static ALLOWED: OnceLock<Option<CpuSet>> = OnceLock::new();

fn allowed_cpus() -> Option<CpuSet> {
    *ALLOWED.get_or_init(|| {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable cpu_set_t of the size passed; the
        // kernel writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), allowed.as_mut_ptr()) };
        (rc == 0 && allowed.iter().any(|&w| w != 0)).then_some(allowed)
    })
}

/// Busy jiffies of every CPU on the host, from `/proc/stat`: all time but
/// idle and I/O wait, by CPU number.
fn busy_jiffies() -> Vec<(usize, u64)> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    stat.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let cpu = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            let ticks: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
            let idle = ticks.get(3)? + ticks.get(4).copied().unwrap_or(0);
            Some((cpu, ticks.iter().sum::<u64>() - idle))
        })
        .collect()
}

/// How long the host's CPU load is sampled before choosing a CPU.
const LOAD_SAMPLE: Duration = Duration::from_millis(60);

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// allowed CPU that was least busy over the last [`LOAD_SAMPLE`], so that
/// a run shares its CPU with as little of the host's other work as it can.
/// Returns the CPU, or `None` if the kernel refused. On a tie the
/// lowest-numbered CPU wins.
pub fn pin_to_idlest_cpu() -> Option<usize> {
    let allowed = allowed_cpus()?;
    let is_allowed = |cpu: usize| cpu < 1024 && allowed[cpu / 64] & (1 << (cpu % 64)) != 0;
    let before = busy_jiffies();
    std::thread::sleep(LOAD_SAMPLE);
    let after = busy_jiffies();
    let idlest = after
        .iter()
        .filter(|(cpu, _)| is_allowed(*cpu))
        .filter_map(|&(cpu, busy)| {
            let (_, was) = before.iter().find(|(c, _)| *c == cpu)?;
            Some((busy.saturating_sub(*was), cpu))
        })
        .min()
        .map(|(_, cpu)| cpu);
    let cpu = idlest.unwrap_or_else(|| {
        let word = allowed
            .iter()
            .position(|&w| w != 0)
            .expect("some CPU is allowed");
        word * 64 + allowed[word].trailing_zeros() as usize
    });
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable cpu_set_t of the size passed, naming one
    // CPU this process may run on.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
