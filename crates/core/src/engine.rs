//! End-to-end SC inference: executing the low-precision ViT with
//! thermometer-coded arithmetic.
//!
//! The engine consumes a trained BN-ViT in its `W·-A·-R·` plan and runs it
//! the way the accelerator would:
//!
//! * every quantizer site becomes a thermometer codec (`level = value/step`,
//!   BSL from the plan) — linear layers are then *exact* in SC, because
//!   truth-table multiplication and BSN accumulation of thermometer levels
//!   reproduce integer arithmetic bit-for-bit (`sc-core` proves this by
//!   property test, so the engine computes on levels directly);
//! * BatchNorm folds into per-channel affines absorbed by the neighbouring
//!   scale factors ([`ascend_vit::norm::Norm::folded_affine`]);
//! * GELU runs through a **gate-assisted SI** transfer table compiled per
//!   MLP layer ([`sc_nonlinear::gate_si`]), wide thermometer in, activation
//!   grid out;
//! * attention softmax runs through the **iterative approximate softmax
//!   block** ([`sc_nonlinear::softmax_iter`]) at the configured
//!   `[By, s1, s2, k]` — the level-domain fast path, which is
//!   property-tested identical to the bit-level circuit simulation.
//!
//! The one float-domain remnant is LayerNorm, which cannot fold into static
//! scale factors; the engine therefore requires a BatchNorm model — exactly
//! the constraint that motivates the paper's LN→BN swap (§V).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use ascend_obs::{Stage, StageObserver};
use ascend_tensor::Tensor;
use ascend_vit::norm::Norm;
use ascend_vit::{NormKind, VitModel};
use sc_core::rescale::RescaleMode;
use sc_core::ScError;
use sc_nonlinear::gate_si::GateAssistedSi;
use sc_nonlinear::ref_fn;
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};
use sc_core::encoding::Thermometer;

/// Hardware configuration of the engine's nonlinear blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Softmax state BSL (`By` of Table VI).
    pub softmax_by: usize,
    /// Softmax `sum(z)` sub-sample rate (`s1`).
    pub softmax_s1: usize,
    /// Softmax `y·sum(z)` sub-sample rate (`s2`).
    pub softmax_s2: usize,
    /// Softmax iteration count (`k`); the accelerator instantiates `k`
    /// parallel blocks (Table VI note).
    pub softmax_k: usize,
    /// Softmax input BSL (`Bx`, 4 in Table IV).
    pub softmax_bx: usize,
    /// Gate-assisted-SI GELU input BSL (the accumulated stream width).
    pub gelu_bx: usize,
    /// Re-scaling rounding mode.
    pub mode: RescaleMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // The paper's recommended [By, s1, s2, k] = [8, 32, 8, 3].
        EngineConfig {
            softmax_by: 8,
            softmax_s1: 32,
            softmax_s2: 8,
            softmax_k: 3,
            softmax_bx: 4,
            gelu_bx: 256,
            mode: RescaleMode::Round,
        }
    }
}

impl EngineConfig {
    /// The `[By, s1, s2, k]` quadruple of Table VI.
    pub fn from_quad(by: usize, s1: usize, s2: usize, k: usize) -> Self {
        EngineConfig { softmax_by: by, softmax_s1: s1, softmax_s2: s2, softmax_k: k, ..Default::default() }
    }
}

/// A quantized linear layer frozen at compile time: the fake-quantized
/// weight matrix plus its bias.
///
/// Weight quantization is purely a function of the trained parameters and
/// the precision plan, so the quantized matrices are materialized once at
/// [`ScEngine::compile`] time instead of on every forward call.
pub(crate) struct QuantLinear {
    pub(crate) w: Tensor,
    pub(crate) b: Tensor,
}

impl QuantLinear {
    pub(crate) fn compile(lin: &ascend_vit::model::Linear, bsl: Option<usize>) -> QuantLinear {
        QuantLinear {
            w: fake_quant(&lin.w, lin.w_site.step_value(), bsl),
            b: lin.b.clone(),
        }
    }

    /// Bytes of the materialized weight + bias buffers.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.w.numel() + self.b.numel()) * std::mem::size_of::<f32>()
    }
}

/// The frozen per-layer network state every backend executes: folded norm
/// affines, pre-quantized linears, and the quantizer step sizes snapshot
/// from the model's sites.
///
/// This is **the** definition of "same frozen state" that the SC engine
/// and the float reference share — both compile paths capture layers
/// through [`QuantLayerSnapshot::capture`], so a change to a quantization
/// site or to affine folding can never reach one backend and not the
/// other (`tests/backend_parity.rs` rests on that).
pub(crate) struct QuantLayerSnapshot {
    pub(crate) norm1_affine: (Vec<f32>, Vec<f32>),
    pub(crate) norm2_affine: (Vec<f32>, Vec<f32>),
    pub(crate) q: QuantLinear,
    pub(crate) k: QuantLinear,
    pub(crate) v: QuantLinear,
    pub(crate) proj: QuantLinear,
    pub(crate) fc1: QuantLinear,
    pub(crate) fc2: QuantLinear,
    pub(crate) attn_in_step: f32,
    pub(crate) attn_out_step: f32,
    pub(crate) res1_step: f32,
    pub(crate) res2_step: f32,
    pub(crate) mlp_in_step: f32,
    pub(crate) mlp_mid_step: f32,
}

impl QuantLayerSnapshot {
    /// Captures one encoder block's frozen state under `plan`.
    pub(crate) fn capture(
        block: &ascend_vit::model::Block,
        plan: &ascend_vit::PrecisionPlan,
    ) -> Self {
        let (n1, n2) = block.norms();
        let (in_site_a, out_site_a) = block.attn().sites();
        let (res1, res2) = block.res_sites();
        let (mlp_in, mlp_mid) = block.mlp().sites();
        QuantLayerSnapshot {
            norm1_affine: n1.folded_affine(),
            norm2_affine: n2.folded_affine(),
            q: QuantLinear::compile(block.attn().q(), plan.weights),
            k: QuantLinear::compile(block.attn().k(), plan.weights),
            v: QuantLinear::compile(block.attn().v(), plan.weights),
            proj: QuantLinear::compile(block.attn().proj(), plan.weights),
            fc1: QuantLinear::compile(block.mlp().fc1(), plan.weights),
            fc2: QuantLinear::compile(block.mlp().fc2(), plan.weights),
            attn_in_step: in_site_a.step_value(),
            attn_out_step: out_site_a.step_value(),
            res1_step: res1.step_value(),
            res2_step: res2.step_value(),
            mlp_in_step: mlp_in.step_value(),
            mlp_mid_step: mlp_mid.step_value(),
        }
    }

    /// Bytes of the snapshot's materialized buffers (affines + linears).
    pub(crate) fn resident_bytes(&self) -> usize {
        let affines = self.norm1_affine.0.len()
            + self.norm1_affine.1.len()
            + self.norm2_affine.0.len()
            + self.norm2_affine.1.len();
        affines * std::mem::size_of::<f32>()
            + [&self.q, &self.k, &self.v, &self.proj, &self.fc1, &self.fc2]
                .iter()
                .map(|l| l.resident_bytes())
                .sum::<usize>()
    }
}

/// Per-layer compiled artifacts of the SC engine: the shared frozen
/// snapshot plus the SC-only GELU transfer table.
pub(crate) struct LayerPlan {
    pub(crate) snap: QuantLayerSnapshot,
    pub(crate) gelu: GateAssistedSi,
}

/// The compiled SC inference engine.
///
/// `compile` snapshots **everything** inference needs — quantized weights,
/// folded affines, quantizer steps, transfer tables — into plain immutable
/// data. The trained [`VitModel`] (which carries train-time interior
/// mutability for BN statistics and range observers) is *not* retained, so
/// a compiled engine is `Sync`: every forward entry point takes `&self`,
/// and the [`crate::serve`] runtime fans a request queue out over a worker
/// pool sharing one engine by reference — no cloning, no locking.
pub struct ScEngine {
    pub(crate) vit: ascend_vit::VitConfig,
    pub(crate) plan: ascend_vit::PrecisionPlan,
    pub(crate) config: EngineConfig,
    pub(crate) softmax: IterSoftmaxBlock,
    pub(crate) layers: Vec<LayerPlan>,
    pub(crate) head_affine: (Vec<f32>, Vec<f32>),
    pub(crate) patch_embed: QuantLinear,
    pub(crate) head: QuantLinear,
    pub(crate) cls_token: Tensor,
    pub(crate) pos_embedding: Tensor,
}

/// Reusable per-thread scratch buffers for
/// [`InferenceBackend::forward_one`](crate::backend::InferenceBackend::forward_one).
///
/// Holding the scratch outside the per-image loop keeps the hot path free
/// of repeated allocations; each serving worker owns one instance. The
/// buffers are backend-specific capacity, not state: any backend accepts a
/// scratch made by any other backend of the same geometry (buffers are
/// resized on use), so decorators can delegate scratch allocation freely.
pub struct ForwardScratch {
    pub(crate) softmax_row: Vec<f64>,
}

impl ForwardScratch {
    /// A scratch with no pre-sized buffers — for backends that need none,
    /// including [`InferenceBackend`](crate::backend::InferenceBackend)
    /// implementations outside this crate (buffers grow on first use if a
    /// backend does touch them).
    pub fn empty() -> Self {
        ForwardScratch { softmax_row: Vec::new() }
    }
}

impl ScEngine {
    /// Compiles the engine for a trained BatchNorm model.
    ///
    /// `calib_patches`/`calib_batch` supply one representative batch used to
    /// calibrate the GELU input range and the softmax logit scale.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if the model uses LayerNorm (not
    /// SC-mappable; see module docs) or a softmax configuration is
    /// infeasible.
    pub fn compile(
        model: &VitModel,
        config: EngineConfig,
        calib_patches: &Tensor,
        calib_batch: usize,
    ) -> Result<Self, ScError> {
        if model.config.norm != NormKind::Batch {
            return Err(ScError::InvalidParam {
                name: "model",
                reason: "SC engine requires a BatchNorm model (paper §V LN→BN swap)".into(),
            });
        }
        let seq = model.config.seq_len();

        // Calibrate: observe attention-score and GELU-input magnitudes with
        // a float probe pass.
        let probe = Probe::collect(model, calib_patches, calib_batch);

        // Softmax block: αx sized so Bx/2 levels cover the observed score
        // range; αy sized so By/2 levels cover [0, 1]. The requested s1/s2
        // were chosen for the paper's m = 64; for other row lengths the
        // engine degrades them to the nearest feasible rates (divisibility
        // of the internal stream widths).
        let ax = (2.0 * probe.score_scale.max(0.5) / config.softmax_bx as f64).max(1e-3);
        // Circuit-aware αy calibration: try the DSE's scale options and keep
        // the one with the lowest MAE on the probed attention rows.
        let base_ay = 2.0 / config.softmax_by as f64;
        let mut softmax: Option<(f64, IterSoftmaxBlock)> = None;
        for mult in [0.25, 0.5, 1.0] {
            let candidate = feasible_softmax(IterSoftmaxConfig {
                m: seq,
                k: config.softmax_k,
                bx: config.softmax_bx,
                ax,
                by: config.softmax_by,
                ay: base_ay * mult,
                s1: config.softmax_s1,
                s2: config.softmax_s2,
                mode: config.mode,
            });
            let Ok(block) = candidate else { continue };
            // Calibration metric: overall MAE plus a heavy penalty on the
            // row's dominant entry — clamping the top attention weight is
            // far more damaging than diffuse small-entry error.
            let mut score = 0.0f64;
            for row in &probe.score_rows {
                let got = block.run_levels(row)?;
                let want = sc_nonlinear::ref_fn::softmax(row);
                let mut top = 0usize;
                for (i, w) in want.iter().enumerate() {
                    if *w > want[top] {
                        top = i;
                    }
                }
                let mae: f64 = got
                    .iter()
                    .zip(want.iter())
                    .map(|(g, w)| (g - w).abs())
                    .sum::<f64>()
                    / row.len() as f64;
                score += mae + 4.0 * (got[top] - want[top]).abs();
            }
            let better = softmax.as_ref().is_none_or(|(best, _)| score < *best);
            if better {
                softmax = Some((score, block));
            }
        }
        let softmax = softmax
            .ok_or_else(|| ScError::InvalidParam {
                name: "softmax",
                reason: "no feasible softmax configuration for this model geometry".into(),
            })?
            .1;

        // Per-layer folded affines, GELU tables, pre-quantized weights, and
        // quantizer-step snapshots: after this loop the engine never touches
        // the model again.
        let plan = model.plan();
        let mut layers = Vec::with_capacity(model.blocks().len());
        for (li, block) in model.blocks().iter().enumerate() {
            let snap = QuantLayerSnapshot::capture(block, &plan);
            let gelu_in =
                Thermometer::with_range(config.gelu_bx, probe.gelu_absmax[li].max(0.5))?;
            let act_bsl = plan.acts.unwrap_or(16);
            let gelu_out = Thermometer::new(act_bsl, snap.mlp_mid_step as f64)?;
            let gelu = GateAssistedSi::compile(ref_fn::gelu, gelu_in, gelu_out)?;
            layers.push(LayerPlan { snap, gelu });
        }
        let head_affine = folded(model.head_norm());

        Ok(ScEngine {
            vit: model.config,
            plan,
            config,
            softmax,
            layers,
            head_affine,
            patch_embed: QuantLinear::compile(model.patch_embed(), plan.weights),
            head: QuantLinear::compile(model.head(), plan.weights),
            cls_token: model.cls_token().clone(),
            pos_embedding: model.pos_embedding().clone(),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The precision plan the engine was compiled at.
    pub fn plan(&self) -> &ascend_vit::PrecisionPlan {
        &self.plan
    }

    /// Number of compiled encoder layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The compiled softmax block (e.g. for hardware costing).
    pub fn softmax_block(&self) -> &IterSoftmaxBlock {
        &self.softmax
    }

    /// The compiled per-layer GELU blocks.
    pub fn gelu_blocks(&self) -> Vec<&GateAssistedSi> {
        self.layers.iter().map(|l| &l.gelu).collect()
    }

    /// The ViT geometry the engine was compiled for.
    pub fn vit_config(&self) -> &ascend_vit::VitConfig {
        &self.vit
    }

    /// Allocates the scratch buffers [`ScEngine::forward_one`] needs.
    ///
    /// One instance per thread; the serial batched
    /// [`forward`](crate::backend::InferenceBackend::forward) keeps one
    /// across its whole batch, and each [`crate::serve`] worker owns one.
    pub fn scratch(&self) -> ForwardScratch {
        ForwardScratch { softmax_row: vec![0.0f64; self.vit.seq_len()] }
    }

    /// Runs SC inference for **one image**, returning its logits row.
    ///
    /// `patches` holds the image's `[num_patches, patch_dim]` patch matrix.
    /// This is the shared per-image inner loop: the serial batched
    /// [`forward`](crate::backend::InferenceBackend::forward) and the
    /// parallel [`crate::serve::ServePool`] both reach it through the
    /// [`InferenceBackend`](crate::backend::InferenceBackend) framing loop,
    /// which is what makes the parallel runtime bit-for-bit identical to
    /// the serial path by construction.
    ///
    /// # Errors
    ///
    /// Propagates softmax-block errors (infeasible configurations are
    /// rejected at [`ScEngine::compile`] time, so this is unexpected).
    ///
    /// # Panics
    ///
    /// Panics (like the tensor ops it is built from) if `patches` is not
    /// `[num_patches, patch_dim]`; the batched
    /// [`InferenceBackend`](crate::backend::InferenceBackend) entry points
    /// validate sizes and return [`ScError::InvalidParam`] instead.
    pub fn forward_one(
        &self,
        patches: &Tensor,
        scratch: &mut ForwardScratch,
    ) -> Result<Vec<f32>, ScError> {
        self.forward_one_observed(patches, scratch, &mut ascend_obs::NoopObserver)
    }

    /// [`ScEngine::forward_one`] with clock-free stage-boundary events.
    ///
    /// Emits [`StageObserver`] `enter`/`exit` pairs around patch embedding,
    /// per-layer attention linear algebra, the SC softmax, the SC GELU, the
    /// MLP linear algebra, and the head — the paper's fig. 8 cost-split
    /// axes. The compute itself never reads a clock (events carry no
    /// timestamps); the observer decides what a boundary means. With
    /// [`ascend_obs::NoopObserver`] this *is* `forward_one`, bit for bit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScEngine::forward_one`].
    pub fn forward_one_observed(
        &self,
        patches: &Tensor,
        scratch: &mut ForwardScratch,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        let cfg = &self.vit;
        let plan = &self.plan;
        let (s, d, h, dh) = (cfg.seq_len(), cfg.dim, cfg.heads, cfg.head_dim());

        // Patch embedding (+ cls, + pos), then the residual grid.
        observer.enter(Stage::PatchEmbed);
        let tokens = linear(patches, &self.patch_embed.w, &self.patch_embed.b);
        let mut x = assemble_sequence(&tokens, &self.cls_token, &self.pos_embedding, 1, cfg);
        observer.exit(Stage::PatchEmbed);

        for lp in &self.layers {
            let sn = &lp.snap;
            // --- MSA (softmax carved out as its own stage) ---
            observer.enter(Stage::Attention);
            let n1 = affine(&x, &sn.norm1_affine);
            let xq = fake_quant(&n1, sn.attn_in_step, plan.acts);
            let q = split_heads(&linear(&xq, &sn.q.w, &sn.q.b), 1, s, h, dh);
            let k = split_heads(&linear(&xq, &sn.k.w, &sn.k.b), 1, s, h, dh);
            let v = split_heads(&linear(&xq, &sn.v.w, &sn.v.b), 1, s, h, dh);
            let mut scores =
                q.batched_matmul(&k.batched_transpose()).scale(1.0 / (dh as f32).sqrt());
            observer.exit(Stage::Attention);
            observer.enter(Stage::Softmax);
            self.sc_softmax_rows(&mut scores, &mut scratch.softmax_row)?;
            observer.exit(Stage::Softmax);
            observer.enter(Stage::Attention);
            let ctx = merge_heads(&scores.batched_matmul(&v), 1, s, h, dh);
            let ctxq = fake_quant(&ctx, sn.attn_out_step, plan.acts);
            let attn_out = linear(&ctxq, &sn.proj.w, &sn.proj.b);
            x = fake_quant(&x.add(&attn_out), sn.res1_step, plan.residual);
            observer.exit(Stage::Attention);

            // --- MLP with gate-assisted SI GELU ---
            observer.enter(Stage::Mlp);
            let n2 = affine(&x, &sn.norm2_affine);
            let hq = fake_quant(&n2, sn.mlp_in_step, plan.acts);
            let pre = linear(&hq, &sn.fc1.w, &sn.fc1.b);
            observer.exit(Stage::Mlp);
            observer.enter(Stage::Gelu);
            let act = self.sc_gelu(&pre, &lp.gelu);
            observer.exit(Stage::Gelu);
            observer.enter(Stage::Mlp);
            let out = linear(&act, &sn.fc2.w, &sn.fc2.b);
            x = fake_quant(&x.add(&out), sn.res2_step, plan.residual);
            observer.exit(Stage::Mlp);
        }

        // Head.
        observer.enter(Stage::Head);
        let hn = affine(&x, &self.head_affine);
        let cls = hn.reshape(&[1, s, d]).select_axis1(0);
        let logits = linear(&cls, &self.head.w, &self.head.b).into_data();
        observer.exit(Stage::Head);
        Ok(logits)
    }

    /// Applies the SC softmax block to every row of `[n, s, s]` scores,
    /// staging each row through the caller-provided scratch buffer.
    fn sc_softmax_rows(&self, scores: &mut Tensor, row_buf: &mut Vec<f64>) -> Result<(), ScError> {
        let shape = scores.shape().to_vec();
        let s = shape[2];
        let rows = scores.numel() / s;
        let data = scores.data_mut();
        row_buf.resize(s, 0.0);
        for r in 0..rows {
            for (b, v) in row_buf.iter_mut().zip(&data[r * s..(r + 1) * s]) {
                *b = *v as f64;
            }
            let y = self.softmax.run_levels(row_buf)?;
            for (dst, v) in data[r * s..(r + 1) * s].iter_mut().zip(y.iter()) {
                *dst = *v as f32;
            }
        }
        Ok(())
    }

    /// Applies the compiled gate-SI GELU transfer elementwise.
    fn sc_gelu(&self, x: &Tensor, block: &GateAssistedSi) -> Tensor {
        let table = block.ones_table();
        let in_scale = block.input().scale();
        let in_half = (block.input().len() / 2) as f64;
        let out_scale = block.output().scale();
        let out_half = (block.output().len() / 2) as i64;
        x.map(|v| {
            let t = ((v as f64 / in_scale).round().clamp(-in_half, in_half) + in_half) as usize;
            (out_scale * (table[t] as i64 - out_half) as f64) as f32
        })
    }
}

impl crate::backend::InferenceBackend for ScEngine {
    fn name(&self) -> &str {
        "sc-exact"
    }

    fn vit_config(&self) -> &ascend_vit::VitConfig {
        &self.vit
    }

    fn plan(&self) -> &ascend_vit::PrecisionPlan {
        &self.plan
    }

    fn resident_bytes(&self) -> usize {
        let f32s = std::mem::size_of::<f32>();
        let layers: usize = self
            .layers
            .iter()
            .map(|lp| {
                lp.snap.resident_bytes() + std::mem::size_of_val(lp.gelu.ones_table())
            })
            .sum();
        layers
            + (self.head_affine.0.len() + self.head_affine.1.len()) * f32s
            + self.patch_embed.resident_bytes()
            + self.head.resident_bytes()
            + (self.cls_token.numel() + self.pos_embedding.numel()) * f32s
    }

    fn make_scratch(&self) -> ForwardScratch {
        self.scratch()
    }

    fn forward_one(
        &self,
        patches: &Tensor,
        scratch: &mut ForwardScratch,
    ) -> Result<Vec<f32>, ScError> {
        ScEngine::forward_one(self, patches, scratch)
    }

    fn forward_one_observed(
        &self,
        patches: &Tensor,
        scratch: &mut ForwardScratch,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        ScEngine::forward_one_observed(self, patches, scratch, observer)
    }
}

/// Builds the softmax block, halving `s1`/`s2` until the configuration is
/// feasible for the given row length.
fn feasible_softmax(mut cfg: IterSoftmaxConfig) -> Result<IterSoftmaxBlock, ScError> {
    let requested = (cfg.s1, cfg.s2);
    let mut s1 = cfg.s1;
    while s1 >= 1 {
        let mut s2 = cfg.s2;
        while s2 >= 1 {
            cfg.s1 = s1;
            cfg.s2 = s2;
            if let Ok(block) = IterSoftmaxBlock::new(cfg) {
                return Ok(block);
            }
            s2 /= 2;
        }
        s1 /= 2;
    }
    Err(ScError::InvalidParam {
        name: "softmax",
        reason: format!(
            "no feasible sub-sample rates at or below s1={} s2={} for m={}",
            requested.0, requested.1, cfg.m
        ),
    })
}

/// Eval-mode LSQ: `round(clamp(x/s, −L/2, L/2))·s`, or pass-through in FP.
pub(crate) fn fake_quant(x: &Tensor, step: f32, bsl: Option<usize>) -> Tensor {
    match bsl {
        None => x.clone(),
        Some(l) => {
            let half = (l / 2) as f32;
            x.map(|v| (v / step).clamp(-half, half).round() * step)
        }
    }
}

pub(crate) fn linear(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let mut out = x.matmul(w);
    let (n, m) = (out.shape()[0], out.shape()[1]);
    for i in 0..n {
        for j in 0..m {
            out.data_mut()[i * m + j] += b.data()[j];
        }
    }
    out
}

pub(crate) fn affine(x: &Tensor, (scale, shift): &(Vec<f32>, Vec<f32>)) -> Tensor {
    let (n, m) = (x.shape()[0], x.shape()[1]);
    let mut out = x.clone();
    for i in 0..n {
        for j in 0..m {
            let v = &mut out.data_mut()[i * m + j];
            *v = *v * scale[j] + shift[j];
        }
    }
    out
}

fn folded(norm: &Norm) -> (Vec<f32>, Vec<f32>) {
    norm.folded_affine()
}

pub(crate) fn split_heads(x: &Tensor, batch: usize, s: usize, h: usize, dh: usize) -> Tensor {
    x.reshape(&[batch, s, h, dh]).permute(&[0, 2, 1, 3]).reshape(&[batch * h, s, dh])
}

pub(crate) fn merge_heads(x: &Tensor, batch: usize, s: usize, h: usize, dh: usize) -> Tensor {
    x.reshape(&[batch, h, s, dh]).permute(&[0, 2, 1, 3]).reshape(&[batch * s, h * dh])
}

pub(crate) fn assemble_sequence(
    tokens: &Tensor,
    cls: &Tensor,
    pos: &Tensor,
    batch: usize,
    cfg: &ascend_vit::VitConfig,
) -> Tensor {
    let (p, s, d) = (cfg.num_patches(), cfg.seq_len(), cfg.dim);
    let mut out = vec![0.0f32; batch * s * d];
    for bi in 0..batch {
        out[bi * s * d..bi * s * d + d].copy_from_slice(cls.data());
        out[bi * s * d + d..(bi + 1) * s * d]
            .copy_from_slice(&tokens.data()[bi * p * d..(bi + 1) * p * d]);
        for j in 0..s * d {
            out[bi * s * d + j] += pos.data()[j];
        }
    }
    Tensor::from_vec(out, &[batch * s, d])
}

/// Calibration probe: float forward capturing score/GELU-input magnitudes
/// and a sample of attention-score rows for scale selection.
struct Probe {
    /// 98th percentile of |score| — robust to outliers, which merely clamp
    /// (softmax saturates for them anyway).
    score_scale: f64,
    gelu_absmax: Vec<f64>,
    score_rows: Vec<Vec<f64>>,
}

impl Probe {
    fn collect(model: &VitModel, patches: &Tensor, batch: usize) -> Probe {
        // Mirror the engine's own dataflow in float (exact softmax, float
        // GELU) and record magnitudes.
        let cfg = &model.config;
        let plan = model.plan();
        let (s, _d, h, dh) = (cfg.seq_len(), cfg.dim, cfg.heads, cfg.head_dim());
        let wq = |lin: &ascend_vit::model::Linear| -> Tensor {
            fake_quant(&lin.w, lin.w_site.step_value(), plan.weights)
        };
        let tokens = linear(patches, &wq(model.patch_embed()), &model.patch_embed().b);
        let mut x =
            assemble_sequence(&tokens, model.cls_token(), model.pos_embedding(), batch, cfg);
        let mut score_samples: Vec<f64> = Vec::new();
        let mut gelu_absmax = Vec::new();
        let mut score_rows: Vec<Vec<f64>> = Vec::new();
        for block in model.blocks() {
            let (n1, n2) = block.norms();
            let (in_site_a, out_site_a) = block.attn().sites();
            let (res1, res2) = block.res_sites();
            let xq = fake_quant(&affine(&x, &n1.folded_affine()), in_site_a.step_value(), plan.acts);
            let q = split_heads(&linear(&xq, &wq(block.attn().q()), &block.attn().q().b), batch, s, h, dh);
            let k = split_heads(&linear(&xq, &wq(block.attn().k()), &block.attn().k().b), batch, s, h, dh);
            let v = split_heads(&linear(&xq, &wq(block.attn().v()), &block.attn().v().b), batch, s, h, dh);
            let scores =
                q.batched_matmul(&k.batched_transpose()).scale(1.0 / (dh as f32).sqrt());
            score_samples.extend(scores.data().iter().map(|v| v.abs() as f64));
            if score_rows.len() < 64 {
                let rows = scores.numel() / s;
                for r in (0..rows).step_by((rows / 8).max(1)) {
                    score_rows.push(
                        scores.data()[r * s..(r + 1) * s].iter().map(|v| *v as f64).collect(),
                    );
                }
            }
            let probs = scores.softmax_last();
            let ctx = merge_heads(&probs.batched_matmul(&v), batch, s, h, dh);
            let ctxq = fake_quant(&ctx, out_site_a.step_value(), plan.acts);
            let attn_out = linear(&ctxq, &wq(block.attn().proj()), &block.attn().proj().b);
            x = fake_quant(&x.add(&attn_out), res1.step_value(), plan.residual);

            let (mlp_in, mlp_mid) = block.mlp().sites();
            let hq = fake_quant(&affine(&x, &n2.folded_affine()), mlp_in.step_value(), plan.acts);
            let pre = linear(&hq, &wq(block.mlp().fc1()), &block.mlp().fc1().b);
            let mut mx = 0.0f64;
            for v in pre.data() {
                mx = mx.max(v.abs() as f64);
            }
            gelu_absmax.push(mx);
            let act = fake_quant(
                &pre.map(ascend_tensor::graph::gelu_f),
                mlp_mid.step_value(),
                plan.acts,
            );
            let out = linear(&act, &wq(block.mlp().fc2()), &block.mlp().fc2().b);
            x = fake_quant(&x.add(&out), res2.step_value(), plan.residual);
        }
        score_samples.sort_by(f64::total_cmp);
        let idx = ((score_samples.len() as f64) * 0.98) as usize;
        let score_scale = score_samples.get(idx.min(score_samples.len().saturating_sub(1)))
            .copied()
            .unwrap_or(1.0);
        Probe { score_scale, gelu_absmax, score_rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InferenceBackend;
    use crate::fixture::{train_or_load, FixtureRecipe};
    use ascend_vit::VitConfig;

    fn trained_quant_model() -> (VitModel, ascend_vit::data::Dataset, ascend_vit::data::Dataset) {
        // The shared checkpoint-cached converged fixture (trains once per
        // cache lifetime; `tests/backend_parity.rs` rides the same cache).
        train_or_load(&FixtureRecipe::tiny_converged("engine-unit", 5))
    }

    #[test]
    fn engine_rejects_layernorm_models() {
        let cfg = VitConfig {
            image: 8,
            patch: 4,
            dim: 16,
            layers: 1,
            heads: 2,
            classes: 2,
            norm: ascend_vit::NormKind::Layer,
            ..Default::default()
        };
        let model = VitModel::new(cfg);
        let calib = Tensor::zeros(&[4, cfg.patch_dim()]);
        assert!(ScEngine::compile(&model, EngineConfig::default(), &calib, 1).is_err());
    }

    #[test]
    fn engine_tracks_the_model_with_float_approximate_softmax() {
        // The fair reference: the same model running the *float* iterative
        // softmax (Algorithm 1 at the same k). The engine's remaining delta
        // is then pure SC quantization, which must be small. This mirrors
        // the paper's stage-2 setup, where the network is adapted to the
        // approximation and the circuit only adds quantization error.
        let (mut model, train, test) = trained_quant_model();
        let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
        let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16).unwrap();
        model.set_softmax(ascend_vit::SoftmaxKind::IterApprox {
            k: engine.config().softmax_k,
        });
        let idx: Vec<usize> = (0..32).collect();
        let patches = test.patches(&idx, 4);
        let sc_logits = engine.forward(&patches, 32).unwrap();
        let float_logits = model.predict(&patches, 32);
        let agree = sc_logits
            .argmax_rows()
            .iter()
            .zip(float_logits.argmax_rows().iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(agree >= 22, "SC engine diverges from approx-softmax model: {agree}/32 agree");
    }

    #[test]
    fn engine_accuracy_close_to_model_accuracy() {
        let (model, train, test) = trained_quant_model();
        let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
        let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16).unwrap();
        let sc_acc = engine.accuracy(&test, 16).unwrap();
        let float_acc = ascend_vit::train::evaluate(&model, &test, 16);
        assert!(
            (sc_acc - float_acc).abs() < 0.25,
            "sc {sc_acc} vs float {float_acc}"
        );
    }

    #[test]
    fn coarser_softmax_state_does_not_crash_and_stays_bounded() {
        let (model, train, test) = trained_quant_model();
        let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
        for by in [4usize, 8, 16] {
            let cfg = EngineConfig::from_quad(by, 8, 4, 3);
            let engine = ScEngine::compile(&model, cfg, &calib, 16).unwrap();
            let acc = engine.accuracy(&test, 16).unwrap();
            assert!((0.0..=1.0).contains(&acc), "By={by} acc {acc}");
        }
    }
}
