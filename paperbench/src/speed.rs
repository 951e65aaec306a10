//! Host-speed reference: a fixed kernel timed around every measured step,
//! so that the timed metrics are read at one reference speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! tens of percent over seconds to minutes, as neighbours load its cores.
//! The drift moves whole runs, so no amount of repetition inside a run
//! removes it from the run's median. The reference kernel below does the
//! same fixed work on every run: a dependent walk through a random cycle of
//! 256 KiB (inside L2) and a dependent floating-point chain, on one thread,
//! as the workloads run. It calls no repository code, so no change to the
//! program moves its time. (A walk through 4 MiB, in the shared L3, was
//! tried first: it swung with the neighbours' cache use far more than the
//! workloads did, and widened their spread.)
//!
//! A step that took `wall` seconds between reference readings `before` and
//! `after` is reported as `wall × REFERENCE_S / ((before + after) / 2)`:
//! seconds at the speed at which the kernel takes [`REFERENCE_S`]. The raw
//! wall times stay in the provenance line.

use std::time::Instant;

/// Reference-kernel seconds that define the reference speed: about the
/// kernel's time on an unloaded core of the development host (Xeon, 2
/// cores). Only scales the reported values.
pub const REFERENCE_S: f64 = 0.04;
/// Words of the cycle: 256 KiB of `u64`, inside L2.
const WORDS: usize = 1 << 15;
/// Steps of the walk per kernel run.
const WALK: usize = 1 << 21;
/// Steps of the floating-point chain per kernel run.
const CHAIN: usize = 1 << 23;
/// Kernel runs per reading; the reading is their median.
const RUNS: usize = 3;

/// The reference kernel's cycle and its readings.
#[derive(Debug)]
pub struct HostSpeed {
    cycle: Vec<u64>,
    last: Option<f64>,
    /// Every reading, in seconds, in order.
    pub readings: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// The first reading, which pays for page faults, is taken here and
    /// dropped.
    pub fn new() -> Self {
        let mut speed = Self {
            cycle: random_cycle(WORDS, 0x9e37_79b9_7f4a_7c15),
            last: None,
            readings: Vec::new(),
        };
        speed.read();
        speed.readings.clear();
        speed.last = None;
        speed
    }

    /// Times the kernel: the median of [`RUNS`] runs, in seconds.
    pub fn read(&mut self) -> f64 {
        let runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(kernel(std::hint::black_box(&self.cycle)));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let reading = crate::stats::median(&runs);
        self.readings.push(reading);
        self.last = Some(reading);
        reading
    }

    /// The reading that opens a step: the previous step's closing reading
    /// when there is one, else a fresh one.
    pub fn before(&mut self) -> f64 {
        match self.last {
            Some(r) => r,
            None => self.read(),
        }
    }

    /// Closes a step that took `wall` seconds and opened at reading
    /// `before`: reads the kernel and returns the step's seconds at the
    /// reference speed.
    pub fn after(&mut self, wall: f64, before: f64) -> f64 {
        let after = self.read();
        wall * REFERENCE_S * 2.0 / (before + after)
    }

    /// Runs a fallible `step` between two readings. Returns its result, its
    /// wall seconds and its seconds at the reference speed.
    ///
    /// # Errors
    /// The step's error.
    pub fn time<T, E>(&mut self, step: impl FnOnce() -> Result<T, E>) -> Result<(T, Secs), E> {
        let before = self.before();
        let t0 = Instant::now();
        let value = step()?;
        let wall = t0.elapsed().as_secs_f64();
        let scaled = self.after(wall, before);
        Ok((value, Secs { wall, scaled }))
    }
}

/// A step's time, as measured and at the reference speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Secs {
    /// Wall seconds.
    pub wall: f64,
    /// Seconds at the reference speed.
    pub scaled: f64,
}

impl std::ops::AddAssign for Secs {
    fn add_assign(&mut self, rhs: Self) {
        self.wall += rhs.wall;
        self.scaled += rhs.scaled;
    }
}

/// A single cycle through `0..n` (Sattolo's shuffle) from a fixed
/// generator, so every step of the walk misses the previous one's line.
fn random_cycle(n: usize, seed: u64) -> Vec<u64> {
    let mut next: Vec<u64> = (0..n as u64).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

fn kernel(cycle: &[u64]) -> (u64, f64) {
    let mut at = 0u64;
    for _ in 0..WALK {
        at = cycle[at as usize];
    }
    let mut x = 1.0f64;
    for i in 0..CHAIN {
        x = x.mul_add(0.999_999_9, (i & 7) as f64 * 1e-9);
    }
    (at, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_visits_every_word() {
        let c = random_cycle(1000, 3);
        let (mut at, mut seen) = (0usize, vec![false; 1000]);
        for _ in 0..1000 {
            assert!(!seen[at]);
            seen[at] = true;
            at = c[at] as usize;
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn timing_scales_by_the_readings() {
        let mut speed = HostSpeed::new();
        let ((), t) = speed.time(|| Ok::<_, ()>(())).unwrap();
        assert_eq!(speed.readings.len(), 2);
        let mean = (speed.readings[0] + speed.readings[1]) / 2.0;
        assert!((t.scaled - t.wall * REFERENCE_S / mean).abs() <= 1e-12 * (1.0 + t.scaled));
        // The next step opens at this step's closing reading.
        speed.time(|| Ok::<_, ()>(())).unwrap();
        assert_eq!(speed.readings.len(), 3);
    }
}
