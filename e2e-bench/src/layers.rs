//! The traced run's per-layer measurements. Every number comes from
//! timing a call into a layer's public functions from this file; nothing
//! inside the library is instrumented.
//!
//! The server's internal path cannot be wrapped from outside, so the
//! traced run replays a sample of the workload's own request bytes
//! in-process through the same chain the server runs:
//!
//! `http1::read_request` → `decode_infer_request` → (`ModelRegistry::acquire`)
//! → `ServePool::try_submit` / `collect` → `encode_logits` → `Response::write_to`

use std::io::BufReader;
use std::time::{Duration, Instant};

use ascend::serve::{JobTiming, ServeRequest};
use ascend::{InferenceBackend, InstrumentedBackend, ScEngine, Session};
use ascend_http::http1::{self, Limits, Response};
use ascend_http::HttpConfig;
use ascend_obs::{HistSnapshot, Stage};
use ascend_registry::{ModelRegistry, ModelSpec, RegistryConfig};
use sc_core::ScError;

use crate::stats::{median, nearest_rank};
use crate::trace::{Ctx, Tracer};
use crate::workloads::{self, ms, Fixture, Live, Model};

/// Wall-clock budget of each in-process probe; every probe also takes a
/// minimum number of samples, so a slow forward still yields a median.
const PROBE_BUDGET: Duration = Duration::from_millis(800);

/// Thread id the replay chain's spans are filed under.
pub const REPLAY_THREAD: u32 = 100;

/// What the in-process replay produced.
#[derive(Default)]
pub struct Replay {
    pub timings: Vec<JobTiming>,
    pub queue_full: u64,
    pub mismatches: u64,
    pub failed: u64,
}

/// Replays up to `n` of the workload's requests, serially, through the
/// server's own chain of public calls, against the live system's pool (or
/// its registry), recording one span per layer call.
pub fn replay(fx: &Fixture, live: &Live, tracer: &Tracer, n: usize) -> Replay {
    let cfg = HttpConfig::new("127.0.0.1:0");
    let limits = Limits {
        max_header_bytes: cfg.max_header_bytes,
        max_headers: cfg.max_headers,
        max_body_bytes: cfg.max_body_bytes,
    };
    let mut out = Replay::default();
    let started = Instant::now();
    for i in 0..n {
        if i >= 5 && started.elapsed() > PROBE_BUDGET * 2 {
            break;
        }
        let target = &fx.targets[i % fx.targets.len()];
        let request_id = 1_000_000 + i as u64;
        let root = tracer.id();
        let ctx = Ctx {
            parent: Some(root),
            request: request_id,
            thread: REPLAY_THREAD,
        };
        let start = Instant::now();
        let result = replay_one(tracer, ctx, &limits, live, &target.request);
        let end = Instant::now();
        tracer.record(
            "replay",
            root,
            Ctx::root(request_id, REPLAY_THREAD),
            start,
            end,
        );
        match result {
            Ok((body, timing)) => {
                if body != target.expected {
                    out.mismatches += 1;
                }
                out.timings.push(timing);
            }
            Err(ScError::QueueFull { .. }) => {
                out.queue_full += 1;
                out.failed += 1;
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

fn replay_one(
    t: &Tracer,
    ctx: Ctx,
    limits: &Limits,
    live: &Live,
    bytes: &[u8],
) -> Result<(Vec<u8>, JobTiming), ScError> {
    let bad = |reason: String| ScError::InvalidParam {
        name: "replay",
        reason,
    };
    let request = t
        .span("http1.read_request", ctx, || {
            http1::read_request(&mut BufReader::new(bytes), limits)
        })
        .map_err(|e| bad(format!("parse: {e:?}")))?;
    let handle;
    let session: &Session = match live {
        Live::Offline(session) => session,
        Live::Http(server) => match (server.session(), server.registry()) {
            (Some(session), _) => session,
            (None, Some(registry)) => {
                let name = request
                    .target
                    .strip_prefix("/v1/models/")
                    .and_then(|rest| rest.strip_suffix("/infer"))
                    .ok_or_else(|| bad(format!("no model in {}", request.target)))?;
                handle = t.span("registry.acquire", ctx, || registry.acquire(name))?;
                handle.session()
            }
            (None, None) => return Err(bad("server fronts nothing".into())),
        },
    };
    let vit = session.backend().vit_config();
    let (patches, images) = t.span("codec.decode", ctx, || {
        ascend_http::decode_infer_request(&request.body, vit)
    })?;
    let pool = session.runner()?;
    let pending = t.span("serve.try_submit", ctx, || {
        pool.try_submit(ServeRequest::new(patches, images))
    })?;
    let (logits, timing) = t.span("serve.collect", ctx, || pending.collect())?;
    let body = t.span("codec.encode", ctx, || {
        ascend_http::encode_logits(&logits, images, vit.classes)
    });
    let mut wire = Vec::with_capacity(body.len() + 128);
    let response = Response::binary(200, body);
    t.span("http1.write", ctx, || response.write_to(&mut wire, false))
        .map_err(|e| bad(format!("write: {e}")))?;
    Ok((response.body, timing))
}

/// Serial forward cost and its six-stage split for one model.
pub struct EngineProbe {
    /// Median µs of the bare serial forward of one image.
    pub forward_us: f64,
    /// Mean of the same, comparable with the stage means.
    pub forward_mean_us: f64,
    /// Mean µs per image of each stage, in [`Stage::ALL`] order.
    pub stage_us: [f64; 6],
}

impl EngineProbe {
    pub fn stage_sum_us(&self) -> f64 {
        self.stage_us.iter().sum()
    }
}

/// Times the bare serial `InferenceBackend::forward`, interleaved image by
/// image with the same forward through `InstrumentedBackend` for the stage
/// split, so both see the same machine conditions.
pub fn engine_probe(model: &Model, fx: &Fixture) -> Result<EngineProbe, String> {
    let engine = &model.reference;
    let instrumented = InstrumentedBackend::new(engine);
    let mut bare_us = Vec::new();
    let started = Instant::now();
    while bare_us.len() < 10 || (started.elapsed() < PROBE_BUDGET && bare_us.len() < 2000) {
        let patches = &fx.patches[bare_us.len() % fx.patches.len()];
        let t0 = Instant::now();
        std::hint::black_box(engine.forward(patches, 1).map_err(|e| e.to_string())?);
        bare_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(
            instrumented
                .forward(patches, 1)
                .map_err(|e| e.to_string())?,
        );
    }
    let stats = instrumented.stats();
    let forwards = stats.forwards().max(1) as f64;
    let mut stage_us = [0.0; 6];
    for (slot, stage) in stage_us.iter_mut().zip(Stage::ALL) {
        *slot = stats.stage_snapshot(stage).sum_ns as f64 / 1e3 / forwards;
    }
    Ok(EngineProbe {
        forward_us: median(&bare_us).unwrap_or(0.0),
        forward_mean_us: bare_us.iter().sum::<f64>() / bare_us.len() as f64,
        stage_us,
    })
}

/// Kernel costs: one softmax row at the workload's token count and one
/// GELU element.
pub struct KernelProbe {
    pub softmax_row_us: f64,
    pub softmax_rows_per_image: f64,
    pub gelu_us_per_elem: f64,
}

pub fn kernel_probe(engine: &ScEngine, seed: u64) -> Result<KernelProbe, String> {
    let vit = engine.vit_config();
    let block = engine.softmax_block();
    let m = block.config().m;
    let mut rng = seed | 1;
    let mut uniform = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng >> 11) as f64 / (1u64 << 53) as f64
    };
    let row: Vec<f64> = (0..m).map(|_| uniform() * 4.0 - 2.0).collect();
    let softmax_row_us = per_call_us(|| {
        block
            .run_levels(std::hint::black_box(&row))
            .map(|y| std::hint::black_box(y).len())
    })
    .map_err(|e| format!("softmax row: {e}"))?;
    let gelu = engine.gelu_blocks();
    let gelu = gelu.first().ok_or("engine has no GELU block")?;
    let xs: Vec<f64> = (0..256).map(|_| uniform() * 4.0 - 2.0).collect();
    let gelu_us_per_elem = per_call_us(|| -> Result<f64, ScError> {
        Ok(xs
            .iter()
            .map(|&x| gelu.eval_value(std::hint::black_box(x)))
            .sum())
    })
    .map_err(|e| format!("gelu: {e}"))?
        / xs.len() as f64;
    Ok(KernelProbe {
        softmax_row_us,
        softmax_rows_per_image: (vit.layers * vit.heads * vit.seq_len()) as f64,
        gelu_us_per_elem,
    })
}

/// Median µs per call over batches of calls, within the probe budget.
fn per_call_us<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Result<f64, E> {
    const BATCH: usize = 16;
    let mut per_call = Vec::new();
    let started = Instant::now();
    while per_call.len() < 5 || (started.elapsed() < PROBE_BUDGET / 2 && per_call.len() < 500) {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(f()?);
        }
        per_call.push(t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    Ok(median(&per_call).unwrap_or(0.0))
}

/// Cold and warm `ModelRegistry::acquire` on a private registry over the
/// model's artifact: `(cold ms p50, warm µs p50)`.
pub fn registry_probe(model: &Model) -> Result<(f64, f64), String> {
    let registry = ModelRegistry::new(RegistryConfig::default());
    registry
        .register(ModelSpec::artifact("probe", model.path.as_path()).serve(
            ascend::serve::ServeConfig {
                workers: workloads::POOL_WORKERS,
                queue_depth: workloads::QUEUE_DEPTH,
                ..Default::default()
            },
        ))
        .map_err(|e| e.to_string())?;
    let mut cold_ms = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        let handle = registry.acquire("probe").map_err(|e| e.to_string())?;
        cold_ms.push(ms(t0.elapsed()));
        drop(handle);
        registry.evict("probe");
    }
    let _warm = registry.acquire("probe").map_err(|e| e.to_string())?;
    let mut warm_us = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        std::hint::black_box(registry.acquire("probe").map_err(|e| e.to_string())?);
        warm_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok((
        median(&cold_ms).unwrap_or(0.0),
        median(&warm_us).unwrap_or(0.0),
    ))
}

/// `ScEngine::load` and `SessionBuilder::build` over the model's artifact:
/// `(load ms p50, build ms p50)`.
pub fn artifact_probe(model: &Model) -> Result<(f64, f64), String> {
    let mut load_ms = Vec::new();
    let mut build_ms = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        std::hint::black_box(ScEngine::load(&model.path).map_err(|e| e.to_string())?);
        load_ms.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        std::hint::black_box(workloads::session(model)?);
        build_ms.push(ms(t0.elapsed()));
    }
    Ok((
        median(&load_ms).unwrap_or(0.0),
        median(&build_ms).unwrap_or(0.0),
    ))
}

/// Nearest-rank percentile, in ms, of the observations a log2 histogram
/// gained between two snapshots. The histogram only knows which power-of-
/// two bucket a value fell in, so this reports the bucket's midpoint.
pub fn hist_delta_ms(before: &HistSnapshot, after: &HistSnapshot, p: f64) -> f64 {
    let counts: Vec<u64> = after
        .buckets
        .iter()
        .zip(&before.buckets)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
    let mut cum = 0;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64 - 1.0;
            return (lo + hi) / 2.0 / 1e6;
        }
    }
    0.0
}

/// `(p50, p99)` in ms of queue wait and of service over pool timings.
pub fn timing_percentiles(timings: &[JobTiming]) -> [f64; 4] {
    let mut wait: Vec<f64> = timings.iter().map(|t| ms(t.queue_wait)).collect();
    let mut service: Vec<f64> = timings.iter().map(|t| ms(t.service)).collect();
    wait.sort_by(f64::total_cmp);
    service.sort_by(f64::total_cmp);
    let p = |s: &[f64], q| nearest_rank(s, q).unwrap_or(0.0);
    [
        p(&wait, 50.0),
        p(&wait, 99.0),
        p(&service, 50.0),
        p(&service, 99.0),
    ]
}
