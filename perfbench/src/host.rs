//! The host: its record printed beside every result, the probes that
//! track its speed, and the process's peak resident set. The record and
//! the peak read Linux pseudo-files; elsewhere the record says "unknown"
//! and the peak reads 0.

use std::fs;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// What [`Probe::speed`] takes on the reference host the gated wall
/// metrics are rescaled to: about its time on the host the README
/// records, when that host runs at full speed.
pub const PROBE_REF_S: f64 = 1.5e-3;

/// What [`Probe::lockstep`] takes on the reference host: [`PROBE_REF_S`]
/// times the ratio of the two probes on the host the README records.
pub const LOCKSTEP_REF_S: f64 = 2.0e-3;

/// Rounds of the lock-step probe.
const LOCKSTEP_ROUNDS: usize = 8;

/// The probe's input: 100 000 fixed pseudo-random keys.
fn probe_keys() -> &'static [i64] {
    static KEYS: OnceLock<Vec<i64>> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as i64
            })
            .collect()
    })
}

/// Wall of sorting a fresh copy of [`probe_keys`] in `buf`.
fn probe_sort(buf: &mut Vec<i64>) -> f64 {
    buf.clear();
    buf.extend_from_slice(probe_keys());
    let start = Instant::now();
    buf.sort_unstable();
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(&buf);
    wall
}

/// Host speed right now, read by two fixed benchmark-owned loops that no
/// change to the program can touch. A shared cloud host can change speed
/// by up to 1.7x over seconds to minutes as other tenants load it, and
/// the probes slow with it.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// The wall of sorting [`probe_keys`] (best of five), timed on `nproc`
    /// threads at once and averaged over them: how fast a core runs.
    pub speed: f64,
    /// `nproc` threads sorting [`probe_keys`] in lock-step rounds, each
    /// ended by a barrier; wall per round. Like a par sort it waits for
    /// its slowest thread at every round, so it also slows when another
    /// tenant takes a share of any one core — which doubles a par sort's
    /// wall, barely moves a seq sort's (it runs on the other core), and
    /// which the best-of-five `speed` filters out.
    pub lockstep: f64,
}

/// Takes both probes.
pub fn probe() -> Probe {
    Probe {
        speed: speed_probe_s(),
        lockstep: lockstep_probe_s(),
    }
}

fn speed_probe_s() -> f64 {
    let threads = nproc();
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut buf = Vec::with_capacity(probe_keys().len());
                    (0..5)
                        .map(|_| probe_sort(&mut buf))
                        .fold(f64::INFINITY, f64::min)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .sum()
    });
    total / threads as f64
}

fn lockstep_probe_s() -> f64 {
    let threads = nproc();
    let barrier = Barrier::new(threads);
    let wall = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut buf = Vec::with_capacity(probe_keys().len());
                    barrier.wait();
                    let start = Instant::now();
                    for _ in 0..LOCKSTEP_ROUNDS {
                        probe_sort(&mut buf);
                        barrier.wait();
                    }
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .fold(0.0, f64::max)
    });
    wall / LOCKSTEP_ROUNDS as f64
}

/// The wall time `f` returns, rescaled to the reference host by speed
/// probes taken just before and after it: `wall × PROBE_REF_S / probe`.
pub fn rescaled(f: impl FnOnce() -> f64) -> f64 {
    let before = speed_probe_s();
    let wall = f();
    let after = speed_probe_s();
    wall * PROBE_REF_S / ((before + after) / 2.0)
}

/// Cores the benchmark may use: `available_parallelism`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// CPU model and cache sizes, e.g. `Intel Xeon | L1d 48K L1i 32K L2 2048K`.
pub fn cpu() -> String {
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        caches.push(format!("L{level}{suffix} {size}"));
    }
    format!("{model} | {}", caches.join(" "))
}

/// `VmHWM` of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// CPU time counters of the whole host and of this process, in clock
/// ticks, from `/proc/stat` and `/proc/self/stat`.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    /// All CPU time of every CPU, idle and stolen included.
    total: u64,
    /// CPU time anything ran or the hypervisor took (`steal`).
    taken: u64,
    /// CPU time this process's threads and its reaped children ran.
    own: u64,
}

/// Reads the counters; `None` where the pseudo-files are missing.
pub fn cpu_ticks() -> Option<CpuTicks> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cols: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let [user, nice, system, idle, iowait, irq, softirq, steal] = cols[..] else {
        return None;
    };
    let own_stat = fs::read_to_string("/proc/self/stat").ok()?;
    // utime, stime, cutime and cstime are the 14th to 17th fields of the
    // line, counted past the parenthesised command name (the 2nd).
    let after_name = own_stat.rsplit_once(')')?.1;
    let own = after_name
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|v| v.parse::<u64>().ok())
        .sum::<Option<u64>>()?;
    Some(CpuTicks {
        total: user + nice + system + idle + iowait + irq + softirq + steal,
        taken: user + nice + system + irq + softirq + steal,
        own,
    })
}

/// Share of the host's CPU time between `a` and `b` that went to
/// anything but this process: other processes, and time the hypervisor
/// gave to other guests. 0 where the counters are missing.
pub fn interference(a: Option<CpuTicks>, b: Option<CpuTicks>) -> f64 {
    let (Some(a), Some(b)) = (a, b) else {
        return 0.0;
    };
    let total = b.total.saturating_sub(a.total);
    let others = (b.taken.saturating_sub(a.taken)).saturating_sub(b.own.saturating_sub(a.own));
    if total == 0 {
        0.0
    } else {
        others as f64 / total as f64
    }
}
