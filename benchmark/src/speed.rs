//! The box's speed, sampled through the timed window.
//!
//! The reference box is a shared VM whose cores run anywhere between 1×
//! and 1.8× slower from one minute to the next (a fixed single-threaded
//! loop shows the same swings with nothing else running), so raw
//! wall-clock and CPU numbers from two runs of one commit differ by
//! 15–20 %. A harness thread therefore times a fixed kernel of its own
//! every few milliseconds while the window runs; the ratio of that time to
//! the kernel's time at reference speed is the slowdown the server's
//! CPU-bound work saw too. The end-to-end timing metrics are reported at
//! reference speed (`ref_*`); the raw ones are printed beside them.

use expred_stats::hash::Fnv64;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time at reference speed (the box's fast mode).
pub const REFERENCE_KERNEL_NS: f64 = 20_000.0;

/// Pause between samples: ≈ 1.5 % duty, ≈ 250 samples per second.
const SAMPLE_EVERY: Duration = Duration::from_millis(4);

/// Formats 768 pseudo-random integers and hashes the text: allocation-free
/// after the first call, branchy, and owned by the harness, so no change
/// to the program can move it.
fn kernel(scratch: &mut String) -> u64 {
    scratch.clear();
    let mut x = 88_172_645_463_325_252u64;
    for _ in 0..768 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let _ = write!(scratch, "{},", x % 100_000);
    }
    let mut digest = Fnv64::new();
    digest.write_bytes(scratch.as_bytes());
    digest.finish()
}

/// A running sampler; [`SpeedProbe::finish`] stops and joins it.
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<Vec<u64>>,
}

impl SpeedProbe {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut scratch = String::new();
            let mut samples = Vec::new();
            while !stopped.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_EVERY);
                // Two untimed passes re-warm the caches the sleep lost.
                black_box(kernel(&mut scratch));
                black_box(kernel(&mut scratch));
                let started = Instant::now();
                black_box(kernel(&mut scratch));
                samples.push(started.elapsed().as_nanos() as u64);
            }
            samples
        });
        Self { stop, sampler }
    }

    /// Stops sampling and summarises the window.
    pub fn finish(self) -> Result<Speed, String> {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self
            .sampler
            .join()
            .map_err(|_| "speed probe thread panicked".to_owned())?;
        Speed::from_samples(samples)
    }
}

/// The window's measured speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Mean kernel time, slowest 2 % of samples dropped (preemptions).
    pub kernel_ns: f64,
    pub samples: usize,
}

impl Speed {
    fn from_samples(mut samples: Vec<u64>) -> Result<Self, String> {
        if samples.is_empty() {
            return Err("speed probe took no sample".into());
        }
        samples.sort_unstable();
        let kept = &samples[..(samples.len() * 98).div_ceil(100)];
        Ok(Self {
            kernel_ns: kept.iter().sum::<u64>() as f64 / kept.len() as f64,
            samples: samples.len(),
        })
    }

    /// How much slower than reference speed the box ran (1.0 = reference).
    pub fn slowdown(&self) -> f64 {
        self.kernel_ns / REFERENCE_KERNEL_NS
    }

    /// Factor that takes a wall-clock time of which `cpu_share` was
    /// CPU-bound to reference speed: only that share is rescaled.
    pub fn wall_factor(&self, cpu_share: f64) -> f64 {
        1.0 - cpu_share.clamp(0.0, 1.0) * (1.0 - 1.0 / self.slowdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (String::new(), String::new());
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a, b);
        assert!(a.len() > 768 * 2);
    }

    #[test]
    fn summary_drops_the_slowest_samples() {
        let mut samples = vec![20_000u64; 99];
        samples.push(5_000_000); // one preempted sample
        let speed = Speed::from_samples(samples).unwrap();
        assert_eq!(speed.kernel_ns, 20_000.0);
        assert_eq!(speed.samples, 100);
        assert_eq!(speed.slowdown(), 1.0);
        assert!(Speed::from_samples(Vec::new()).is_err());
    }

    #[test]
    fn only_the_cpu_share_is_rescaled() {
        let slow = Speed {
            kernel_ns: 2.0 * REFERENCE_KERNEL_NS,
            samples: 1,
        };
        // Fully CPU-bound: twice as slow a box, half the time at reference.
        assert_eq!(slow.wall_factor(1.0), 0.5);
        // Sleep-bound: nothing to correct.
        assert_eq!(slow.wall_factor(0.0), 1.0);
        assert_eq!(slow.wall_factor(0.5), 0.75);
        assert_eq!(slow.wall_factor(7.0), 0.5);
        let reference = Speed {
            kernel_ns: REFERENCE_KERNEL_NS,
            samples: 1,
        };
        assert_eq!(reference.wall_factor(0.9), 1.0);
    }

    #[test]
    fn probe_samples_while_running() {
        let probe = SpeedProbe::start();
        std::thread::sleep(Duration::from_millis(40));
        let speed = probe.finish().unwrap();
        assert!(speed.samples >= 2);
        assert!(speed.kernel_ns > 0.0);
    }
}
