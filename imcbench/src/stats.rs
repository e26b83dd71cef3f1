//! Round statistics, host probes (process CPU clock, peak RSS) and the
//! seeded generator every workload draws its inputs from.

use std::time::{Duration, Instant};

/// SplitMix64: the one seeded stream behind every generated input.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 bits, exactly representable in f32.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` flat inputs of `features` values in `[0, 1)`, a pure
/// function of `seed`.
pub fn input_pool(seed: u64, count: usize, features: usize) -> Vec<Vec<f32>> {
    let mut rng = SplitMix::new(seed ^ 0x1A9C_7E5D_0B0E_F00D);
    (0..count)
        .map(|_| (0..features).map(|_| rng.unit_f32()).collect())
        .collect()
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One round of fixed work: its wall time, the process CPU time it
/// used, and the latency of each operation that did not fail. `work` is
/// what throughput counts (operations, or programmed cells in
/// `compile`).
pub struct Round {
    pub ops: usize,
    pub work: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub lat_us: Vec<f64>,
}

/// The host-time end-to-end figures of a run.
pub struct HostFigures {
    pub throughput_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    pub cpu_us_per_op: f64,
}

/// Reduces a run's rounds to one figure per metric: for each metric
/// separately, the round at quantile `q` counted from the best end
/// (highest throughput, lowest latency quantile, least CPU per op), so
/// `q = 0` takes the best round. The host's own speed drifts by up to a
/// fifth over seconds, so means and medians over a run move with the
/// drift; a near-best round of identical work repeats from run to run.
pub fn best_rounds(rounds: &[Round], q: f64) -> HostFigures {
    let timed: Vec<&Round> = rounds.iter().filter(|r| !r.lat_us.is_empty()).collect();
    assert!(!timed.is_empty(), "a run holds a round with a timed op");
    let pick = |v: Vec<f64>| {
        let s = sorted(v);
        s[((s.len() - 1) as f64 * q).round() as usize]
    };
    let lat = |p: f64| {
        pick(
            timed
                .iter()
                .map(|r| quantile(&sorted(r.lat_us.clone()), p))
                .collect(),
        )
    };
    HostFigures {
        throughput_per_s: -pick(rounds.iter().map(|r| -r.work / r.wall_s).collect()),
        latency_p50_us: lat(0.5),
        latency_p90_us: lat(0.9),
        cpu_us_per_op: pick(
            rounds
                .iter()
                .map(|r| r.cpu_s * 1e6 / r.ops as f64)
                .collect(),
        ),
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process,
/// at nanosecond resolution (`/proc/self/stat` ticks at 10 ms, too
/// coarse for one round).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on 64-bit Linux) that the call only writes into.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Builds a workload `reps` times and keeps the last build, returning it
/// with the median build time. The first build is timed from process
/// start, so it carries the one-off costs a user pays once; earlier
/// builds are torn down before the next starts, and teardown is not
/// timed.
pub fn repeated_setup<T>(
    process_start: Instant,
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut built: Option<T> = None;
    for i in 0..reps {
        if let Some(prev) = built.take() {
            teardown(prev);
        }
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        built = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let built = built.ok_or("setup needs at least one repetition")?;
    Ok((built, median(&times)))
}
