//! Small shared pieces: a seeded RNG, order statistics, and the metric
//! record every phase reports into.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully deterministic generator. Every input the
/// benchmark makes (data, queries, arrival times, inserts) derives from
/// the `--seed` through one of these.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate` per
    /// second.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }
}

/// Zipf sampler over ranks `0..n`: rank `i` has probability
/// `∝ 1 / (i + 1)^theta`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// Nearest-rank quantile of `xs` (sorted in place); `NaN` when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let idx = ((xs.len() - 1) as f64 * q).round() as usize;
    xs[idx]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Completions counted in consecutive `slice`-long windows from a start.
/// Only whole windows count: one cut short by the end of the phase would
/// report a lower rate, so completions after the last whole window are
/// dropped. A phase shorter than one slice is one window of its length.
pub struct Slices {
    start: Instant,
    slice: Duration,
    counts: Vec<u64>,
}

impl Slices {
    pub fn new(start: Instant, dur: Duration, slice: Duration) -> Self {
        let whole = (dur.as_secs_f64() / slice.as_secs_f64()) as usize;
        let (n, slice) = if whole == 0 { (1, dur) } else { (whole, slice) };
        Self {
            start,
            slice,
            counts: vec![0; n],
        }
    }

    /// Counts `n` completions at `at`.
    pub fn add(&mut self, at: Instant, n: u64) {
        let i = (at.duration_since(self.start).as_secs_f64() / self.slice.as_secs_f64()) as usize;
        if let Some(c) = self.counts.get_mut(i) {
            *c += n;
        }
    }

    /// The rate (1/s) of each window.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.slice.as_secs_f64();
        self.counts.iter().map(|&c| c as f64 / secs).collect()
    }
}

/// One reported number: its value, unit, and how many samples it rests
/// on.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Minimal JSON string escaping for the metadata line.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
