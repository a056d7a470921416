//! The statistics every reported timing goes through.
//!
//! Percentiles are nearest-rank over the raw samples (no interpolation,
//! no histogram buckets), a percentile is only *supported* when at least
//! [`MIN_BEYOND`] samples lie beyond it, and a request that failed enters
//! the latency sample as `+∞`: it misses every latency limit, so failures
//! can only push a percentile up, never hide behind the successes.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as supported (p99 therefore needs at least 1000 samples).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 · n)`, clamped to `[1, n]`. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    sorted.get(rank(n, p) - 1).copied()
}

/// The 1-based nearest rank of percentile `p` in a sample of `n >= 1`.
fn rank(n: usize, p: f64) -> usize {
    let r = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond percentile `p`'s rank in a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether a sample of `n` supports percentile `p`.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Median of an unsorted sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Consecutive completions per chunk: enough that a chunk's p99 has
/// [`MIN_BEYOND`] samples beyond it.
pub const CHUNK: usize = 1000;

/// Client-side request latencies in completion order, with failures as
/// `+∞`.
///
/// Besides whole-sample percentiles it offers *chunked* statistics: the
/// completions are cut into consecutive chunks of at least [`CHUNK`]
/// requests and the statistic is the median of the per-chunk values, so a
/// burst of interference from outside the program (a preempted virtual
/// CPU, a noisy neighbour) that spoils a few chunks does not move it, while
/// every per-chunk percentile still has enough samples beyond it.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    /// `(completed at, seconds since the phase started; latency ms)`.
    samples: Vec<(f64, f64)>,
    failed: u64,
}

impl Latencies {
    /// Records a request that completed at `done_s` after `ms` milliseconds.
    pub fn ok(&mut self, done_s: f64, ms: f64) {
        self.samples.push((done_s, ms));
    }

    /// Records a request that failed (refused, i/o error or timeout) at
    /// `done_s`: it misses every latency limit.
    pub fn failed(&mut self, done_s: f64) {
        self.samples.push((done_s, f64::INFINITY));
        self.failed += 1;
    }

    /// Requests attempted (completed plus failed).
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Requests that failed.
    pub fn failures(&self) -> u64 {
        self.failed
    }

    /// Merges another sample of the same phase into this one.
    pub fn extend(&mut self, other: Latencies) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
    }

    /// Nearest-rank percentile in ms over the whole sample (`+∞` if it
    /// lands on a failure, `None` for an empty sample).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile_of(&self.samples, p)
    }

    /// The completions in order, cut into `max(1, n / CHUNK)` consecutive
    /// chunks of near-equal size.
    fn chunks(&self) -> Vec<&[(f64, f64)]> {
        let n = self.samples.len();
        let k = (n / CHUNK).max(1);
        (0..k)
            .map(|i| &self.samples[i * n / k..(i + 1) * n / k])
            .filter(|c| !c.is_empty())
            .collect()
    }

    fn sorted(&mut self) {
        self.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    /// Median over chunks of each chunk's nearest-rank percentile `p`.
    pub fn chunked_percentile(&mut self, p: f64) -> Option<f64> {
        self.sorted();
        let per_chunk: Vec<f64> = self
            .chunks()
            .iter()
            .filter_map(|c| percentile_of(c, p))
            .collect();
        median(&per_chunk)
    }

    /// Median over chunks of the chunk's successful completions per second
    /// of the wall time it spans (from the previous chunk's last
    /// completion, or the phase start).
    pub fn chunked_rate(&mut self) -> Option<f64> {
        self.sorted();
        let mut from = 0.0;
        let mut rates = Vec::new();
        for chunk in self.chunks() {
            let to = chunk.last().map_or(from, |s| s.0);
            let ok = chunk.iter().filter(|s| s.1.is_finite()).count();
            if to > from {
                rates.push(ok as f64 / (to - from));
            }
            from = to;
        }
        median(&rates)
    }
}

fn percentile_of(samples: &[(f64, f64)], p: f64) -> Option<f64> {
    let mut ms: Vec<f64> = samples.iter().map(|s| s.1).collect();
    ms.sort_by(f64::total_cmp);
    nearest_rank(&ms, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank_without_interpolation() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.5], 99.0), Some(7.5));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert_eq!(beyond(0, 50.0), 0);
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        let mut lat = Latencies::default();
        for ms in 1..=98 {
            lat.ok(f64::from(ms), f64::from(ms));
        }
        lat.failed(99.0);
        lat.failed(100.0);
        assert_eq!((lat.attempted(), lat.failures()), (100, 2));
        // The failures sort above every success: p98 is the slowest
        // success, p99 lands on a failure.
        assert_eq!(lat.percentile(98.0), Some(98.0));
        assert_eq!(lat.percentile(99.0), Some(f64::INFINITY));
        // Even the most generous finite limit is missed by a failure.
        assert!(lat.percentile(100.0).is_some_and(|ms| ms > f64::MAX));
        // Merging keeps the failure count.
        let mut other = Latencies::default();
        other.failed(101.0);
        lat.extend(other);
        assert_eq!((lat.attempted(), lat.failures()), (101, 3));
    }

    #[test]
    fn chunked_statistics_shrug_off_a_burst_but_keep_ten_beyond_each_p99() {
        // 5000 requests, one per ms, 2 ms each — except a burst of 200
        // slow ones inside the third chunk.
        let mut lat = Latencies::default();
        for i in 0..5000 {
            let ms = if (2100..2300).contains(&i) { 50.0 } else { 2.0 };
            lat.ok(f64::from(i + 1) / 1000.0, ms);
        }
        assert_eq!(lat.percentile(99.0), Some(50.0));
        assert_eq!(lat.chunked_percentile(99.0), Some(2.0));
        assert!((lat.chunked_rate().expect("rate") - 1000.0).abs() < 1e-6);
        // Fewer than two chunks' worth is one chunk: the plain statistic.
        let mut short = Latencies::default();
        for i in 0..1500 {
            short.ok(f64::from(i + 1) / 1000.0, if i < 20 { 9.0 } else { 1.0 });
        }
        assert_eq!(short.chunked_percentile(99.0), short.percentile(99.0));
        assert_eq!(CHUNK / 100, MIN_BEYOND);
        // Completion order, not insertion order, defines the chunks; a
        // failure counts as an attempt but not as throughput.
        let mut mixed = Latencies::default();
        mixed.ok(0.002, 1.0);
        mixed.failed(0.004);
        mixed.ok(0.001, 1.0);
        assert!((mixed.chunked_rate().expect("rate") - 500.0).abs() < 1e-9);
    }
}
