//! The host the benchmark runs on: its threads, memory, allocator, and
//! clocks that can tell the benchmark's own time from time the hypervisor
//! gave to other guests.

use std::ops::{AddAssign, Range};
use std::time::Instant;

/// Host threads available to the engine's worker pool.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process in MB, or `None` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Pins glibc malloc's mmap and trim thresholds at their initial values,
/// which glibc otherwise raises as the process frees large blocks. Large
/// buffers then always come from `mmap` and go back to the kernel when
/// freed, so what a call pays in page faults, and the process's peak
/// resident set, no longer depend on the allocation history of the process
/// it runs in. Every commit is measured under the same setting.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two plain integers and only changes
        // allocator parameters; glibc serialises it with allocation.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 << 10);
            mallopt(M_TRIM_THRESHOLD, 128 << 10);
        }
    }
}

/// CPU time of this process (all threads) in seconds. Time the hypervisor
/// steals from a CPU is not counted, as the guest kernel charges it as
/// steal rather than to the task it interrupted.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    (rc == 0).then(|| t.tv_sec as f64 + t.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_s() -> Option<f64> {
    None
}

/// Busy, idle and stolen clock ticks (USER_HZ, 100 per second) of one CPU.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTicks {
    /// user + nice + system + irq + softirq.
    pub busy: u64,
    /// idle + iowait.
    pub idle: u64,
    /// Time the hypervisor ran another guest while this CPU wanted to run.
    pub steal: u64,
}

/// Per-CPU tick counters since boot, from the `cpuN` lines of `/proc/stat`.
fn cpu_ticks() -> Option<Vec<CpuTicks>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|l| {
            let f: Vec<u64> = l
                .split_whitespace()
                .skip(1)
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?;
            Some(CpuTicks {
                busy: f.first()? + f.get(1)? + f.get(2)? + f.get(5)? + f.get(6)?,
                idle: f.get(3)? + f.get(4)?,
                steal: *f.get(7)?,
            })
        })
        .collect()
}

/// Reads wall clock, process CPU time and per-CPU ticks at the start of an
/// interval.
#[derive(Clone, Debug)]
pub struct Stopwatch {
    ticks: Option<Vec<CpuTicks>>,
    cpu: Option<f64>,
    wall: Instant,
}

impl Stopwatch {
    /// Starts an interval.
    pub fn start() -> Self {
        let ticks = cpu_ticks();
        let cpu = process_cpu_s();
        Stopwatch {
            ticks,
            cpu,
            wall: Instant::now(),
        }
    }

    /// Ends the interval.
    pub fn stop(&self) -> Lap {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu = process_cpu_s();
        let ticks = cpu_ticks();
        let cpu_s = self.cpu.zip(cpu).map_or(0.0, |(a, b)| (b - a).max(0.0));
        let ticks = match (&self.ticks, ticks) {
            (Some(a), Some(b)) if a.len() == b.len() => a
                .iter()
                .zip(b)
                .map(|(a, b)| CpuTicks {
                    busy: b.busy.saturating_sub(a.busy),
                    idle: b.idle.saturating_sub(a.idle),
                    steal: b.steal.saturating_sub(a.steal),
                })
                .collect(),
            _ => Vec::new(),
        };
        Lap {
            wall_s,
            cpu_s,
            ticks,
        }
    }
}

/// Clock readings over one or more intervals.
#[derive(Clone, Debug, Default)]
pub struct Lap {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of this process.
    pub cpu_s: f64,
    /// Tick counts of each CPU of the machine over the intervals.
    pub ticks: Vec<CpuTicks>,
}

impl AddAssign<&Lap> for Lap {
    fn add_assign(&mut self, o: &Lap) {
        self.wall_s += o.wall_s;
        self.cpu_s += o.cpu_s;
        if self.ticks.len() < o.ticks.len() {
            self.ticks.resize(o.ticks.len(), CpuTicks::default());
        }
        for (a, b) in self.ticks.iter_mut().zip(&o.ticks) {
            a.busy += b.busy;
            a.idle += b.idle;
            a.steal += b.steal;
        }
    }
}

impl Lap {
    /// Seconds stolen from the process: each CPU's stolen ticks, in the
    /// share that CPU was busy rather than idle. A CPU also loses time to
    /// the hypervisor while it idles, which delays nothing.
    pub fn stolen_s(&self) -> f64 {
        self.ticks
            .iter()
            .filter(|t| t.busy + t.idle > 0)
            .map(|t| t.steal as f64 * t.busy as f64 / (t.busy + t.idle) as f64)
            .sum::<f64>()
            / 100.0
    }

    /// Share of the wall time the process would have taken had the
    /// hypervisor stolen nothing: `cpu / (cpu + stolen)`. Steal delays the
    /// process in proportion to the CPUs it keeps busy, and `cpu / wall`
    /// measures those, so wall time net of steal is `wall * cpu / (cpu +
    /// stolen)`. It assumes the benchmark is the only busy process.
    pub fn net_factor(&self) -> f64 {
        let stolen = self.stolen_s();
        if stolen > 0.0 && self.cpu_s > 0.0 {
            self.cpu_s / (self.cpu_s + stolen)
        } else {
            1.0
        }
    }
}

/// Splits consecutive intervals, given by their wall seconds, into windows
/// of at least `span_s` seconds each; the last window may be shorter.
pub fn windows(walls: impl IntoIterator<Item = f64>, span_s: f64) -> Vec<Range<usize>> {
    let (mut out, mut start, mut acc) = (Vec::new(), 0, 0.0);
    let mut n = 0;
    for (i, w) in walls.into_iter().enumerate() {
        acc += w;
        n = i + 1;
        if acc >= span_s {
            out.push(start..n);
            (start, acc) = (n, 0.0);
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// Wall seconds of each lap net of steal, removing each window's steal in
/// proportion ([`Lap::net_factor`] of the window's laps summed). Steal
/// comes in episodes; a window of about a second follows them closely
/// while holding enough 10 ms steal ticks to be measured.
pub fn net_walls(laps: &[Lap], windows: &[Range<usize>]) -> Vec<f64> {
    let mut out = Vec::with_capacity(laps.len());
    for w in windows {
        let mut sum = Lap::default();
        for lap in &laps[w.clone()] {
            sum += lap;
        }
        let f = sum.net_factor();
        out.extend(laps[w.clone()].iter().map(|lap| lap.wall_s * f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_removed_in_proportion_to_busy_cpus() {
        let t = |busy, idle, steal| CpuTicks { busy, idle, steal };
        // Two busy CPUs, each losing a fifth of the interval: 10 s of wall
        // carry 16 s of CPU and 4 s stolen, i.e. 8 s of work.
        let lap = Lap {
            wall_s: 10.0,
            cpu_s: 16.0,
            ticks: vec![t(800, 0, 200), t(800, 0, 200)],
        };
        assert!((lap.stolen_s() - 4.0).abs() < 1e-12);
        assert!((lap.wall_s * lap.net_factor() - 8.0).abs() < 1e-12);
        // One busy CPU losing 2 s of 10; the idle one's steal delays nothing.
        let one = Lap {
            wall_s: 10.0,
            cpu_s: 8.0,
            ticks: vec![t(800, 0, 200), t(0, 500, 500)],
        };
        assert!((one.wall_s * one.net_factor() - 8.0).abs() < 1e-12);
        // A half-busy CPU: half its steal counts.
        let half = Lap {
            wall_s: 10.0,
            cpu_s: 4.0,
            ticks: vec![t(400, 400, 200)],
        };
        assert!((half.stolen_s() - 1.0).abs() < 1e-12);
        assert_eq!(Lap::default().net_factor(), 1.0);
    }

    #[test]
    fn windows_cover_every_interval_once() {
        let w = windows([0.4, 0.4, 0.4, 0.5, 0.5, 0.1], 1.0);
        assert_eq!(w, vec![0..3, 3..5, 5..6]);
        assert!(windows([], 1.0).is_empty());
        let lap = |wall_s, cpu_s, steal| Lap {
            wall_s,
            cpu_s,
            ticks: vec![CpuTicks {
                busy: 80,
                idle: 0,
                steal,
            }],
        };
        // The first window lost a fifth of its CPU time, the second none.
        let laps = [lap(1.0, 1.6, 40), lap(1.0, 1.6, 40), lap(2.0, 4.0, 0)];
        let net = net_walls(&laps, &[0..2, 2..3]);
        assert_eq!(net.len(), 3);
        assert!((net[0] - 0.8).abs() < 1e-12 && (net[1] - 0.8).abs() < 1e-12);
        assert_eq!(net[2], 2.0);
    }

    #[test]
    fn stopwatch_measures_this_process() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let lap = sw.stop();
        assert!(lap.wall_s > 0.0 && lap.net_factor() <= 1.0);
        if cfg!(target_os = "linux") {
            assert!(lap.cpu_s > 0.0);
        }
    }
}
