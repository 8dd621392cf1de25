//! Sample summaries: medians, tail percentiles and seeded streams.

use std::time::Instant;

/// Linear-interpolated percentile `p ∈ [0, 100]` of `samples`
/// (NaN when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean (NaN when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Number of samples strictly above the `p`-th percentile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

/// SplitMix64 step: the harness derives every input from `--seed`
/// through this, so one seed always gives the same inputs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic uniform stream in `[0, 1)` keyed by a seed.
pub struct Uniform {
    seed: u64,
    next: u64,
}

impl Uniform {
    pub fn new(seed: u64) -> Self {
        Self { seed, next: 0 }
    }

    pub fn next_f64(&mut self) -> f64 {
        self.next += 1;
        (mix(self.seed, self.next) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// A bounded, evenly spaced sample of a long series: once `cap` values
/// are kept it drops every other one and doubles its stride, so memory
/// stays flat however many operations a run completes.
pub struct Sampled {
    kept: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
    sum: f64,
}

impl Sampled {
    pub fn new(cap: usize) -> Self {
        Self {
            kept: Vec::with_capacity(cap),
            cap,
            stride: 1,
            seen: 0,
            sum: 0.0,
        }
    }

    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push(v);
            if self.kept.len() == self.cap {
                let halved: Vec<f64> = self.kept.iter().copied().step_by(2).collect();
                self.kept.clear();
                self.kept.extend(halved);
                self.stride *= 2;
            }
        }
        self.seen += 1;
        self.sum += v;
    }

    /// The kept values.
    pub fn values(&self) -> &[f64] {
        &self.kept
    }

    /// Number of values pushed.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Sum of every value pushed.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// Samples grouped by the second of the measuring window they fall in,
/// each second kept as a bounded [`Sampled`].
pub struct Segmented {
    cap: usize,
    segments: Vec<Sampled>,
}

impl Segmented {
    pub fn new(cap_per_second: usize) -> Self {
        Self {
            cap: cap_per_second,
            segments: Vec::new(),
        }
    }

    pub fn push(&mut self, second: usize, v: f64) {
        while self.segments.len() <= second {
            self.segments.push(Sampled::new(self.cap));
        }
        self.segments[second].push(v);
    }

    /// Every kept value, in order.
    pub fn values(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.values().iter().copied())
            .collect()
    }

    pub fn count(&self) -> u64 {
        self.segments.iter().map(Sampled::count).sum()
    }

    pub fn sum(&self) -> f64 {
        self.segments.iter().map(Sampled::sum).sum()
    }
}

/// The median over the seconds of `parts` (pooled second by second) of
/// `stat` applied to that second's kept values, skipping seconds with
/// fewer than `min` kept values; also returns how many seconds counted.
/// A host stall that spoils a few seconds of a run moves this by at most
/// a rank, where it would move a pooled tail percentile outright.
pub fn per_second_median(
    parts: &[&Segmented],
    min: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> (f64, usize) {
    let seconds = parts.iter().map(|p| p.segments.len()).max().unwrap_or(0);
    let stats: Vec<f64> = (0..seconds)
        .map(|i| {
            parts
                .iter()
                .filter_map(|p| p.segments.get(i))
                .flat_map(|s| s.values().iter().copied())
                .collect::<Vec<f64>>()
        })
        .filter(|v| v.len() >= min)
        .map(|v| stat(&v))
        .collect();
    (median(&stats), stats.len())
}

/// A measuring window of fixed wall-clock length.
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether the window still has time left.
    pub fn open(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const PROCESS_CPU: i32 = 2;
const THREAD_CPU: i32 = 3;

/// Reading of a CPU-time clock, in ms. The kernel leaves out the time
/// the hypervisor ran other guests (steal), which wall time includes.
#[allow(unsafe_code)]
fn cpu_clock_ms(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// CPU time of this process, every thread (exited ones too), in ms.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(PROCESS_CPU)
}

/// Wall and process CPU time of one operation.
pub struct Stopwatch {
    /// Start on the wall clock.
    pub wall: Instant,
    /// Start on the process CPU clock, ms.
    pub cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_ms(),
        }
    }

    /// `(wall ms, CPU ms)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        (ms_since(self.wall), process_cpu_ms() - self.cpu)
    }
}

/// CPU time the calibration kernel takes on the reference host, a
/// 2-vCPU KVM guest on an Intel Xeon (2.3–2.8 ms there from run to run).
pub const CALIBRATION_REFERENCE_MS: f64 = 2.5;

/// Host-speed calibration. A shared host runs the same code up to a
/// third slower or faster from one minute to the next (neighbours on the
/// sibling hyperthreads, frequency), which no run length averages out.
/// A run therefore times a fixed kernel, which no change to the program
/// touches, between its operations and scales its CPU times by
/// `CALIBRATION_REFERENCE_MS` over the kernel's median CPU time: the
/// figures read as CPU ms on the reference host.
#[derive(Default)]
pub struct Calibration {
    cpu_ms: Vec<f64>,
}

impl Calibration {
    /// Time the kernel once on this thread.
    pub fn sample(&mut self) {
        let t = cpu_clock_ms(THREAD_CPU);
        std::hint::black_box(kernel());
        self.cpu_ms.push(cpu_clock_ms(THREAD_CPU) - t);
    }

    /// Time the kernel `n` times.
    pub fn block(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Median CPU time of the kernel in this run, ms.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.cpu_ms)
    }

    /// Factor from this run's CPU ms to reference-host CPU ms.
    pub fn scale(&self) -> f64 {
        CALIBRATION_REFERENCE_MS / self.kernel_ms()
    }

    /// One line for the report: the kernel's figures and the factor.
    pub fn note(&self) -> String {
        format!(
            "calibration kernel {:.4} ms CPU here (median of {}), {CALIBRATION_REFERENCE_MS} ms on the reference host: scale {:.4}",
            self.kernel_ms(),
            self.cpu_ms.len(),
            self.scale()
        )
    }
}

/// The calibration kernel: 40 sweeps of a 3-point stencil with a source
/// term over 4096 doubles (32 KiB, cache-resident), floating-point work
/// of the kind the solver's sweeps do.
fn kernel() -> f64 {
    let mut a = vec![1.0f64; 4096];
    for sweep in 0..40 {
        for i in 1..a.len() - 1 {
            let source = ((i + sweep) as f64 * 1e-3).sin() * 1e-3;
            a[i] = 0.25 * (a[i - 1] + a[i + 1]) + 0.5 * a[i] + source;
        }
    }
    a.iter().sum()
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(beyond(&s, 50.0), 2);
    }

    #[test]
    fn sampled_keeps_an_even_bounded_subset() {
        let mut s = Sampled::new(8);
        for i in 0..100 {
            s.push(i as f64);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 4950.0);
        assert!(s.values().len() < 8);
        let gaps: Vec<f64> = s.values().windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|&g| g == gaps[0]), "{gaps:?}");
    }

    #[test]
    fn uniform_stream_repeats_per_seed() {
        let a: Vec<f64> = (0..4)
            .map({
                let mut u = Uniform::new(7);
                move |_| u.next_f64()
            })
            .collect();
        let mut u = Uniform::new(7);
        for x in a {
            assert_eq!(x, u.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
    }
}
