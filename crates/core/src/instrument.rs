//! [`InstrumentedBackend`]: the per-stage profiling decorator.
//!
//! Composes like [`crate::FaultInjectingBackend`] — wrap any
//! [`InferenceBackend`] and serve through the same pool — but instead of
//! perturbing inputs it *times* the forward's stages: each `forward_one`
//! runs the inner backend's observed entry point with a fresh
//! [`StageTimer`], then folds the per-stage durations into shared
//! [`StageStats`] histograms (renderable under `/metrics`, printable as the
//! `ascend-cli profile` table).
//!
//! Two invariants:
//!
//! * **Bit identity** — observation never touches the computation: the
//!   observed forward is the same code path as the bare forward, stage
//!   events carry no data, and the determinism suite compares instrumented
//!   vs bare logits bit for bit.
//! * **No wallclock here** — this module never reads a clock. All timing
//!   happens inside [`StageTimer`] (ascend-obs, the sanctioned timing
//!   authority); even the whole-forward duration is derived as the sum of
//!   stage durations rather than from a clock read of our own.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::sync::Arc;

use ascend_obs::{HistSnapshot, Histogram, Registry, Stage, StageObserver, StageTimer};
use ascend_tensor::Tensor;
use sc_core::ScError;

use crate::backend::InferenceBackend;
use crate::engine::ForwardScratch;

/// Shared per-stage timing histograms, one observation per forward pass.
///
/// Each stage's histogram records the stage's *total time within one
/// forward* (all layers accumulated), so `count()` equals the number of
/// instrumented forwards and `sum_ns` the total time spent in that stage.
pub struct StageStats {
    registry: Registry,
    stages: Vec<Arc<Histogram>>,
    forward: Arc<Histogram>,
}

impl Default for StageStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StageStats {
    /// Fresh, empty stats with one histogram per [`Stage`] plus the
    /// whole-forward histogram, all registered for Prometheus rendering.
    pub fn new() -> Self {
        let registry = Registry::new();
        let stages = Stage::ALL
            .iter()
            .map(|s| {
                registry.histogram(
                    &format!("ascend_forward_stage_{}_seconds", s.as_str()),
                    "Per-forward time spent in this stage (all layers accumulated).",
                )
            })
            .collect();
        let forward = registry.histogram(
            "ascend_forward_seconds",
            "Whole-forward duration (sum of stage durations).",
        );
        StageStats { registry, stages, forward }
    }

    /// Folds one forward's [`StageTimer`] into the histograms. A timer with
    /// no completed stage pairs (the inner backend has no stage structure)
    /// records nothing.
    pub fn record(&self, timer: &StageTimer) {
        let total = timer.grand_total();
        if total.is_zero() && Stage::ALL.iter().all(|&s| timer.calls(s) == 0) {
            return;
        }
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            if timer.calls(stage) > 0 {
                if let Some(h) = self.stages.get(i) {
                    h.observe(timer.total(stage));
                }
            }
        }
        self.forward.observe(total);
    }

    /// Number of forwards recorded so far.
    pub fn forwards(&self) -> u64 {
        self.forward.snapshot().count()
    }

    /// Snapshot of one stage's per-forward histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistSnapshot {
        self.stages
            .get(stage.index())
            .map(|h| h.snapshot())
            .unwrap_or_else(|| Histogram::new().snapshot())
    }

    /// Snapshot of the whole-forward histogram.
    pub fn forward_snapshot(&self) -> HistSnapshot {
        self.forward.snapshot()
    }

    /// Prometheus text for all stage histograms.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// The human-readable per-stage breakdown `ascend-cli profile` prints:
    /// one row per stage with total time, mean per forward, and share of
    /// the forward's stage time.
    pub fn table(&self) -> String {
        let forwards = self.forwards().max(1);
        let snaps: Vec<(Stage, HistSnapshot)> =
            Stage::ALL.iter().map(|&s| (s, self.stage_snapshot(s))).collect();
        let stage_sum_ns: u64 = snaps.iter().map(|(_, s)| s.sum_ns).sum();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>10} {:>12} {:>14} {:>8}\n",
            "stage", "forwards", "total ms", "mean µs/fwd", "share"
        ));
        out.push_str(&format!("{}\n", "-".repeat(60)));
        for (stage, snap) in &snaps {
            let total_ms = snap.sum_ns as f64 / 1e6;
            let mean_us = snap.sum_ns as f64 / 1e3 / forwards as f64;
            let share = if stage_sum_ns > 0 {
                snap.sum_ns as f64 / stage_sum_ns as f64 * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<12} {:>10} {:>12.3} {:>14.1} {:>7.1}%\n",
                stage.as_str(),
                snap.count(),
                total_ms,
                mean_us,
                share
            ));
        }
        let fwd = self.forward_snapshot();
        out.push_str(&format!("{}\n", "-".repeat(60)));
        out.push_str(&format!(
            "{:<12} {:>10} {:>12.3} {:>14.1} {:>7.1}%\n",
            "forward",
            fwd.count(),
            fwd.sum_ns as f64 / 1e6,
            fwd.sum_ns as f64 / 1e3 / forwards as f64,
            100.0
        ));
        out
    }
}

/// The profiling decorator: times each forward's stages into shared
/// [`StageStats`], leaving the computation untouched.
///
/// Composes with the rest of the decorator family — e.g.
/// `InstrumentedBackend::new(FaultInjectingBackend::new(engine, ...)?)`
/// measures the faulted forward. Timing overhead is a handful of `Instant`
/// reads per stage per layer inside [`StageTimer`]; the *uninstrumented*
/// path pays only a virtual call forwarding a no-op observer (the
/// throughput bench pins this to noise).
pub struct InstrumentedBackend<B> {
    inner: B,
    stats: Arc<StageStats>,
    name: String,
}

impl<B: InferenceBackend> InstrumentedBackend<B> {
    /// Wraps `inner` with fresh stats.
    pub fn new(inner: B) -> Self {
        Self::with_stats(inner, Arc::new(StageStats::new()))
    }

    /// Wraps `inner`, folding timings into caller-owned `stats` (how a
    /// session exposes the same stats it hands to `/metrics`).
    pub fn with_stats(inner: B, stats: Arc<StageStats>) -> Self {
        let name = format!("instrumented+{}", inner.name());
        InstrumentedBackend { inner, stats, name }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The shared stats this decorator records into.
    pub fn stats(&self) -> &Arc<StageStats> {
        &self.stats
    }
}

impl<B: InferenceBackend> InferenceBackend for InstrumentedBackend<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn vit_config(&self) -> &ascend_vit::VitConfig {
        self.inner.vit_config()
    }

    fn plan(&self) -> &ascend_vit::PrecisionPlan {
        self.inner.plan()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn make_scratch(&self) -> ForwardScratch {
        self.inner.make_scratch()
    }

    fn forward_one(
        &self,
        patches: &Tensor,
        scratch: &mut ForwardScratch,
    ) -> Result<Vec<f32>, ScError> {
        let mut timer = StageTimer::new();
        let out = self.inner.forward_one_observed(patches, scratch, &mut timer)?;
        self.stats.record(&timer);
        Ok(out)
    }

    fn forward_one_owned(
        &self,
        patches: Tensor,
        scratch: &mut ForwardScratch,
    ) -> Result<Vec<f32>, ScError> {
        // The observed entry point borrows; under a fault-injecting inner
        // this costs the instrumented path one defensive copy (inside the
        // fault decorator) that the bare owned path avoids — an accepted
        // cost of profiling, never of plain serving.
        self.forward_one(&patches, scratch)
    }

    fn forward_one_observed(
        &self,
        patches: &Tensor,
        scratch: &mut ForwardScratch,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        // An outer observer takes precedence: events flow to the caller,
        // and this decorator's stats stay out of the way (no double
        // timing of the same forward).
        self.inner.forward_one_observed(patches, scratch, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stats_record_only_completed_stage_pairs() {
        let stats = StageStats::new();
        let mut timer = StageTimer::new();
        timer.enter(Stage::Softmax);
        std::thread::sleep(Duration::from_millis(1));
        timer.exit(Stage::Softmax);
        stats.record(&timer);
        assert_eq!(stats.forwards(), 1);
        assert_eq!(stats.stage_snapshot(Stage::Softmax).count(), 1);
        assert_eq!(stats.stage_snapshot(Stage::Gelu).count(), 0);

        // An empty timer records nothing at all.
        stats.record(&StageTimer::new());
        assert_eq!(stats.forwards(), 1);
    }

    #[test]
    fn table_lists_every_stage_and_the_forward_row() {
        let stats = StageStats::new();
        let mut timer = StageTimer::new();
        timer.enter(Stage::Attention);
        std::thread::sleep(Duration::from_millis(1));
        timer.exit(Stage::Attention);
        stats.record(&timer);
        let table = stats.table();
        for stage in Stage::ALL {
            assert!(table.contains(stage.as_str()), "missing {}", stage.as_str());
        }
        assert!(table.contains("forward"));
        assert!(table.contains("share"));
    }

    #[test]
    fn render_exposes_per_stage_histograms() {
        let stats = StageStats::new();
        let mut timer = StageTimer::new();
        timer.enter(Stage::Gelu);
        timer.exit(Stage::Gelu);
        stats.record(&timer);
        let text = stats.render();
        assert!(text.contains("# TYPE ascend_forward_stage_gelu_seconds histogram"));
        assert!(text.contains("ascend_forward_stage_gelu_seconds_count 1"));
        assert!(text.contains("# TYPE ascend_forward_seconds histogram"));
    }
}
