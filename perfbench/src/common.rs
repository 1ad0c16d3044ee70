//! Helpers shared by the workloads: seed mixing, hashing, quantiles and
//! the metric records the report is rendered from.

use std::time::{Duration, Instant};

/// Distinct input rounds each workload cycles through.
pub const ROUNDS: usize = 16;

/// Length of each traced or untraced block a traced run alternates.
pub const TRACE_BLOCK: Duration = Duration::from_millis(250);

/// SplitMix64 finalizer: a well-mixed 64-bit value from any input.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of input round `round` of a run seeded with `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    splitmix(seed ^ splitmix(round as u64 + 1))
}

/// FNV-1a over 64-bit words, for run digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn floats(&mut self, xs: &[f64]) {
        for &x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Linear-interpolated quantile `q` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Set-up timings spread over a whole run: the host's speed drifts over
/// seconds, so samples taken in one burst would all see one host state.
/// A burst of `SETUP_BURST` builds runs every `SETUP_EVERY` of measuring.
pub struct SetupSamples {
    secs: Vec<f64>,
    last: Instant,
}

const SETUP_BURST: usize = 3;
const SETUP_EVERY: Duration = Duration::from_millis(100);

impl SetupSamples {
    /// Time `SETUP_BURST` builds now and return the last one built.
    pub fn first<T, E>(f: impl FnMut() -> Result<T, E>) -> Result<(Self, T), E> {
        let mut s = SetupSamples {
            secs: Vec::new(),
            last: Instant::now(),
        };
        let built = s.burst(f)?;
        Ok((s, built))
    }

    fn burst<T, E>(&mut self, mut f: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        let mut last = None;
        for _ in 0..SETUP_BURST {
            let t0 = Instant::now();
            let built = std::hint::black_box(f()?);
            self.secs.push(t0.elapsed().as_secs_f64());
            last = Some(built);
        }
        self.last = Instant::now();
        Ok(last.expect("a burst builds at least once"))
    }

    /// Time another burst if `SETUP_EVERY` has passed since the last one.
    pub fn maybe<T, E>(&mut self, f: impl FnMut() -> Result<T, E>) -> Result<(), E> {
        if self.last.elapsed() >= SETUP_EVERY {
            self.burst(f)?;
        }
        Ok(())
    }

    pub fn median(&self) -> f64 {
        median(&self.secs)
    }

    pub fn len(&self) -> usize {
        self.secs.len()
    }
}

/// Call `step(traced)` until `seconds` have passed, in blocks of
/// `TRACE_BLOCK` that alternate untraced (first) and traced.
pub fn alternate_blocks(
    seconds: f64,
    mut step: impl FnMut(bool) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut traced = false;
    while start.elapsed().as_secs_f64() < seconds {
        let end = Instant::now() + TRACE_BLOCK;
        while Instant::now() < end {
            step(traced)?;
        }
        traced = !traced;
    }
    Ok(())
}

/// Op time per block of `sustained_elems_per_s`.
const RATE_BLOCK_S: f64 = 0.5;

/// The end-to-end metrics of a timed run, from the wall time of every op
/// that passed its check, in the order the ops ran.
///
/// The host's speed flips between states that last tens of seconds, so
/// the share of a run spent in the slow state varies widely from run to
/// run. Statistics that follow that share (the mean rate, and the median
/// op time, which jumps between the two modes) are reported but not
/// bounded. The bounded rate is `sustained_elems_per_s`: the 10th
/// percentile of the rate over consecutive half-second blocks of op time,
/// the rate the job sustains in all but its slowest tenth. It and
/// `op_p90_ms` sit in the slow state whenever a run has any of it.
pub fn push_timed_metrics(
    o: &mut Outcome,
    ops: Vec<f64>,
    elems_per_op: u64,
    setups: &SetupSamples,
) {
    let n = Some(ops.len());
    let rate = |ops: &[f64]| (elems_per_op * ops.len() as u64) as f64 / ops.iter().sum::<f64>();
    let mut blocks = Vec::new();
    let (mut start, mut secs) = (0, 0.0);
    for (i, &t) in ops.iter().enumerate() {
        secs += t;
        if secs >= RATE_BLOCK_S {
            blocks.push(rate(&ops[start..=i]));
            (start, secs) = (i + 1, 0.0);
        }
    }
    blocks.sort_by(f64::total_cmp);
    let sustained = quantile(&blocks, 0.1);
    let mean_rate = rate(&ops);
    let mut sorted = ops;
    sorted.sort_by(f64::total_cmp);
    let ms = |q: f64| quantile(&sorted, q) * 1e3;
    let m = &mut o.metrics;
    m.push(metric(
        "sustained_elems_per_s",
        sustained,
        "elem/s",
        Some(blocks.len()),
    ));
    m.push(metric("op_p90_ms", ms(0.9), "ms", n));
    m.push(metric("setup_s", setups.median(), "s", Some(setups.len())));
    m.push(metric(
        "rss_peak_mib",
        crate::host::rss_peak_mib(),
        "MiB",
        None,
    ));
    o.extra.push(metric("elems_per_s", mean_rate, "elem/s", n));
    o.extra.push(metric("op_p50_ms", ms(0.5), "ms", n));
}

/// One named number with its unit and, for timings, the sample count it
/// summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// Build a [`Metric`]; `samples` is `None` for counts and derived ratios.
pub fn metric(name: &str, value: f64, unit: &'static str, samples: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// A workload run's outcome, before rendering.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when an oracle or determinism check failed.
    pub correct: bool,
    /// The metrics BENCHMARK.json names, for this mode.
    pub metrics: Vec<Metric>,
    /// Further numbers printed in the report line only.
    pub extra: Vec<Metric>,
    /// Named pass/fail findings printed in the report line.
    pub checks: Vec<(String, bool)>,
    /// Human-readable reasons for any failure.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// Render a number as JSON: shortest round-trip form, `null` if not finite.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Render a string as a JSON string literal.
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
