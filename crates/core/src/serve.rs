//! Parallel batched inference: the serving runtime over any
//! [`InferenceBackend`].
//!
//! ASCEND's accelerator is a throughput design — Table VI instantiates `k`
//! softmax blocks *in parallel* precisely so attention rows can be served
//! concurrently. This module gives the software model the same shape: a
//! persistent [`ServePool`] of long-lived worker threads fed by a bounded
//! channel-based work queue. A backend is immutable once compiled (`Sync`
//! is a supertrait of [`InferenceBackend`]), so workers share it through
//! one [`Arc`] — no cloning, no locking on the hot path.
//!
//! The pool is generic over `B: InferenceBackend`: the SC-exact engine,
//! the float reference, and any decorator stack
//! ([`crate::backend::FaultInjectingBackend`]) serve through the very same
//! workers.
//!
//! Three properties are hard contracts, not best efforts:
//!
//! * **Determinism** — every worker runs the same per-image
//!   [`InferenceBackend::forward_one`] loop the serial path runs, each
//!   request is served by exactly one worker, and results are reassembled
//!   in submission order, so parallel output is **bit-for-bit identical**
//!   to serial output for any worker count, micro-batch size, or pool age
//!   (`tests/serve_determinism.rs` proves it, including across repeated
//!   `run` calls on one pool).
//! * **Backpressure, blocking or shedding** — with a non-zero
//!   [`ServeConfig::queue_depth`] the work queue is a bounded channel and
//!   the caller picks the admission policy per call: once `queue_depth`
//!   requests are waiting, [`ServePool::submit`] *blocks* the submitter
//!   until a slot frees, while [`ServePool::try_submit`] *refuses* with a
//!   typed [`ScError::QueueFull`] and enqueues nothing — the building
//!   block a network front-end needs to shed load (`503`) instead of
//!   wedging its socket threads. Admitted requests are never dropped and
//!   never reordered, and [`ServePool::queued`] exposes the live queue
//!   depth as a gauge.
//! * **No head-of-line blocking** — there are no inter-request barriers:
//!   workers pull the next request the moment they finish the previous
//!   one, so one slow request occupies one worker while the rest of the
//!   pool keeps serving unrelated work.
//!
//! ```no_run
//! use ascend::serve::{ServeConfig, ServePool};
//! use std::sync::Arc;
//! # fn demo(engine: ascend::ScEngine, patches: &ascend_tensor::Tensor) {
//! let pool = ServePool::new(Arc::new(engine), ServeConfig::auto()).unwrap();
//! for _ in 0..3 {
//!     // Every round reuses the same long-lived workers.
//!     let (_logits, report) = pool.run_batch(patches, 64).unwrap();
//!     println!("{}", report.summary());
//! }
//! pool.shutdown(); // graceful: close the queue, join the workers
//! # }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ascend_obs::{Histogram, Registry, TraceBuffer, TraceId};
use ascend_tensor::Tensor;
use sc_core::ScError;

use crate::backend::InferenceBackend;

/// Spans retained by the pool's trace ring (two spans — queue-wait and
/// service — per request, so this covers the last ~2048 requests).
pub const TRACE_SPAN_CAPACITY: usize = 4096;

/// Runtime knobs of the [`ServePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker-thread count; `0` resolves to the machine's
    /// [`std::thread::available_parallelism`]. The pool spawns exactly
    /// this many long-lived threads at construction and
    /// [`ServeReport::workers`] reports the same number.
    pub workers: usize,
    /// Images per work unit when [`ServePool::run_batch`] carves a large
    /// batch into requests. Smaller micro-batches balance load better;
    /// larger ones amortize per-request bookkeeping. Must be at least 1.
    pub micro_batch: usize,
    /// Capacity of the pool's work queue, in requests. `0` means
    /// **unbounded**: [`ServePool::submit`] never blocks (and
    /// [`ServePool::try_submit`] never sheds) — memory is the only limit,
    /// which makes `0` an opt-in footgun for network-facing pools. Any
    /// other value bounds admission: once `queue_depth` requests are
    /// waiting beyond the ones workers already hold, `submit` blocks the
    /// caller until a worker frees a slot, while `try_submit` returns
    /// [`ScError::QueueFull`] immediately. Neither drops or reorders an
    /// admitted request.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { workers: 0, micro_batch: 8, queue_depth: 0 }
    }
}

impl ServeConfig {
    /// Auto mode: worker count from the machine, default micro-batching,
    /// unbounded queue.
    pub fn auto() -> Self {
        Self::default()
    }

    /// The effective worker count (`workers`, or the machine's available
    /// parallelism when `workers == 0`; always at least 1).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// One unit of serving work: a patch tensor holding `images` images.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Pre-extracted patches, `[images · num_patches, patch_dim]`.
    pub patches: Tensor,
    /// Number of images in `patches`.
    pub images: usize,
    /// Trace id minted at admission (the HTTP handler or CLI entry); when
    /// `None`, the pool mints one at submit so every job is attributable.
    pub trace: Option<TraceId>,
}

impl ServeRequest {
    /// Wraps a patch tensor as a request.
    pub fn new(patches: Tensor, images: usize) -> Self {
        ServeRequest { patches, images, trace: None }
    }

    /// Tags the request with a trace id minted at admission, so the spans
    /// the pool records for it are attributable to the original request.
    pub fn with_trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Results of one [`ServePool::run`]: per-request logits plus metrics.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Logits per request, in request order; row `i` of entry `r` is the
    /// class scores of image `i` of request `r`.
    pub logits: Vec<Tensor>,
    /// Latency and throughput metrics for the run.
    pub report: ServeReport,
}

/// Latency/throughput metrics of one serving run.
///
/// Service latencies and queue waits are tracked *separately*: a request's
/// wall time is `queue_wait + service`, and conflating the two (as early
/// versions did) makes backend cost look inflated exactly when the queue is
/// backed up — the moment the split matters most.
#[derive(Debug, Clone)]
pub struct ServeReport {
    latencies: Vec<Duration>,
    queue_waits: Vec<Duration>,
    wall: Duration,
    images: usize,
    workers: usize,
}

impl ServeReport {
    /// Assembles a report from raw parts: per-request service latencies,
    /// the run's wall clock, total images, and the worker count that served
    /// it. This is how front-ends that collect their own timings (the
    /// `ascend-http` `/metrics` exporter, the loadgen binary) reuse the
    /// percentile/throughput/summary machinery instead of re-deriving it.
    /// Queue waits are empty.
    pub fn from_parts(
        latencies: Vec<Duration>,
        wall: Duration,
        images: usize,
        workers: usize,
    ) -> Self {
        ServeReport { latencies, queue_waits: Vec::new(), wall, images, workers }
    }

    /// Number of requests served.
    pub fn requests(&self) -> usize {
        self.latencies.len()
    }

    /// Total images served.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Worker threads of the pool that served the run — the actual number
    /// of long-lived threads, not a bound recomputed from the queue shape.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Wall-clock time of the whole run.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Per-request service latencies, in request order (the time a worker
    /// spent on the request, excluding queue wait).
    pub fn latencies(&self) -> &[Duration] {
        &self.latencies
    }

    /// Per-request queue waits (admission to worker claim), in request
    /// order and index-aligned with [`ServeReport::latencies`]. Empty when
    /// the report was assembled by [`ServeReport::from_parts`].
    pub fn queue_waits(&self) -> &[Duration] {
        &self.queue_waits
    }

    /// Aggregate throughput in images per second.
    ///
    /// An empty run (zero images) reports `0.0`. A wall clock too short to
    /// measure (sub-resolution, reads as zero) reports [`f64::INFINITY`]
    /// explicitly rather than a misleading `0.0 images/s`.
    pub fn throughput(&self) -> f64 {
        if self.images == 0 {
            return 0.0;
        }
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.images as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Nearest-rank latency percentile.
    ///
    /// Total on every input: an empty run returns [`Duration::ZERO`],
    /// `p <= 0` returns the minimum latency, `p >= 100` the maximum, and a
    /// NaN `p` returns [`Duration::ZERO`] (there is no meaningful rank to
    /// ask for). Never panics.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        nearest_rank(&self.latencies, p)
    }

    /// Nearest-rank queue-wait percentile, with the same totality contract
    /// as [`ServeReport::latency_percentile`]. A report without the split
    /// (empty queue waits) returns [`Duration::ZERO`] for every `p`.
    pub fn queue_wait_percentile(&self, p: f64) -> Duration {
        nearest_rank(&self.queue_waits, p)
    }

    /// One-line human-readable summary. An unmeasurably short wall prints
    /// `inf images/s` (see [`ServeReport::throughput`]), never `0.0`. When
    /// the queue-wait split is available it is appended, so backpressure is
    /// visible next to the service latencies it would otherwise hide in.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} images / {} requests on {} workers in {:.1} ms — {:.1} images/s \
             (latency p50 {:.2} ms, p95 {:.2} ms, max {:.2} ms)",
            self.images,
            self.requests(),
            self.workers,
            self.wall.as_secs_f64() * 1e3,
            self.throughput(),
            self.latency_percentile(50.0).as_secs_f64() * 1e3,
            self.latency_percentile(95.0).as_secs_f64() * 1e3,
            self.latency_percentile(100.0).as_secs_f64() * 1e3,
        );
        if !self.queue_waits.is_empty() {
            line.push_str(&format!(
                " (queue wait p50 {:.2} ms, p95 {:.2} ms)",
                self.queue_wait_percentile(50.0).as_secs_f64() * 1e3,
                self.queue_wait_percentile(95.0).as_secs_f64() * 1e3,
            ));
        }
        line
    }
}

/// Nearest-rank percentile over unsorted samples. Total on every input:
/// empty samples or NaN `p` return [`Duration::ZERO`], `p <= 0` the
/// minimum, `p >= 100` the maximum.
fn nearest_rank(samples: &[Duration], p: f64) -> Duration {
    if samples.is_empty() || p.is_nan() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.saturating_sub(1).min(sorted.len() - 1);
    sorted.get(idx).copied().unwrap_or(Duration::ZERO)
}


/// The two-way timing split of one served request.
///
/// `queue_wait` runs from admission (the queue `send`) to the moment a
/// worker claims the job; `service` is the time that worker spent in the
/// backend forward. End-to-end request latency is their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobTiming {
    /// Admission → worker claim.
    pub queue_wait: Duration,
    /// Worker claim → reply (the backend forward).
    pub service: Duration,
}

impl JobTiming {
    /// End-to-end latency: `queue_wait + service`.
    pub fn total(&self) -> Duration {
        self.queue_wait.saturating_add(self.service)
    }
}

/// One queued unit of work: an owned request plus its reply channel and
/// the admission bookkeeping (trace id, submit instant) the worker needs
/// to attribute and split its timing.
struct Job {
    patches: Tensor,
    images: usize,
    trace: TraceId,
    submitted: Instant,
    reply: SyncSender<Served>,
}

/// What a worker sends back for one job.
struct Served {
    result: Result<Tensor, ScError>,
    timing: JobTiming,
}

/// Pool-owned observability state: the queue-wait/service histograms every
/// worker records into (rendered under `/metrics`) and the bounded span
/// ring behind `GET /debug/trace`.
///
/// Spans are recorded only for jobs a worker actually claimed — a request
/// refused at admission ([`ScError::QueueFull`]) never reaches the ring,
/// so shed traffic cannot leak spans.
pub struct PoolObs {
    registry: Registry,
    trace: TraceBuffer,
    queue_wait: Arc<Histogram>,
    service: Arc<Histogram>,
}

impl PoolObs {
    fn new() -> Self {
        let registry = Registry::new();
        let queue_wait = registry.histogram(
            "ascend_request_queue_wait_seconds",
            "Time a request spent admitted but unclaimed in the pool queue.",
        );
        let service = registry.histogram(
            "ascend_request_service_seconds",
            "Time a worker spent serving a request (backend forward only).",
        );
        PoolObs {
            registry,
            trace: TraceBuffer::new(TRACE_SPAN_CAPACITY),
            queue_wait,
            service,
        }
    }

    /// The bounded span ring (chrome://tracing export via
    /// [`TraceBuffer::to_chrome_json`]).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Queue-wait histogram across all served requests.
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// Service-time histogram across all served requests.
    pub fn service(&self) -> &Histogram {
        &self.service
    }

    /// Prometheus text for the pool's histograms.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

/// The pool's submission side: bounded (backpressure) or unbounded.
enum WorkQueue {
    Unbounded(Sender<Job>),
    Bounded(SyncSender<Job>),
}

impl WorkQueue {
    /// Enqueues a job; a bounded queue blocks until a slot frees up.
    fn send(&self, job: Job) -> Result<(), ScError> {
        let sent = match self {
            WorkQueue::Unbounded(tx) => tx.send(job).is_ok(),
            WorkQueue::Bounded(tx) => tx.send(job).is_ok(),
        };
        if sent {
            Ok(())
        } else {
            Err(ScError::PoolGone)
        }
    }

    /// Enqueues a job without ever blocking: a full bounded queue is a
    /// typed [`ScError::QueueFull`] (the job is handed back untouched
    /// inside the mpsc error and dropped here — nothing was admitted).
    fn try_send(&self, job: Job, depth: usize) -> Result<(), ScError> {
        match self {
            // An unbounded queue is never full; only disconnection fails.
            WorkQueue::Unbounded(tx) => tx.send(job).map_err(|_| ScError::PoolGone),
            WorkQueue::Bounded(tx) => tx.try_send(job).map_err(|e| match e {
                mpsc::TrySendError::Full(_) => ScError::QueueFull { depth },
                mpsc::TrySendError::Disconnected(_) => ScError::PoolGone,
            }),
        }
    }
}

/// Live occupancy gauges of a pool, shared with its workers.
///
/// `queued` counts requests admitted to the work queue but not yet claimed
/// by a worker; `in_flight` counts requests a worker is serving right now.
/// Both are monotonic counters' differences maintained with relaxed
/// atomics — a metrics gauge, not a synchronization primitive.
#[derive(Debug, Default)]
struct Gauges {
    queued: AtomicUsize,
    in_flight: AtomicUsize,
}

/// A pending request submitted to a [`ServePool`]: redeem it with
/// [`ServeHandle::collect`] to block for the logits.
///
/// Dropping a handle without collecting abandons the result (the worker's
/// reply is discarded); the request itself still runs to completion.
pub struct ServeHandle {
    rx: Receiver<Served>,
    images: usize,
}

impl ServeHandle {
    /// Number of images in the submitted request.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Blocks until the request has been served, returning its logits and
    /// the request's [`JobTiming`] — queue wait and service time,
    /// separately, so backpressure never masquerades as backend cost.
    ///
    /// # Errors
    ///
    /// Propagates the backend's execution error for this request, or
    /// [`ScError::PoolGone`] if the serving worker disappeared (panicked)
    /// before replying.
    pub fn collect(self) -> Result<(Tensor, JobTiming), ScError> {
        match self.rx.recv() {
            Ok(served) => served.result.map(|t| (t, served.timing)),
            Err(_) => Err(ScError::PoolGone),
        }
    }
}

/// A persistent pool of long-lived inference workers over a shared
/// backend.
///
/// Construction spawns the worker threads once; every
/// [`ServePool::submit`], [`ServePool::run`], and [`ServePool::run_batch`]
/// afterwards reuses them (each worker holds one
/// [`crate::engine::ForwardScratch`] for its whole lifetime). Work flows
/// through an mpsc channel — bounded by [`ServeConfig::queue_depth`] for
/// real backpressure — and each request is claimed by exactly one worker
/// the moment it is free, so there are no admission waves and no
/// inter-request barriers. The pool is `Sync`: submitters on any thread
/// share it by reference.
///
/// Shutdown is graceful via [`ServePool::shutdown`] or `Drop`: the queue
/// closes, workers finish what they hold and exit, and the threads are
/// joined.
///
/// Generic over `B: InferenceBackend` (including unsized trait objects, so
/// [`crate::Session`] holds a `ServePool<dyn InferenceBackend>`).
pub struct ServePool<B: InferenceBackend + ?Sized + 'static = crate::engine::ScEngine> {
    backend: Arc<B>,
    cfg: ServeConfig,
    /// `Some` for the pool's whole life; taken (dropped) on shutdown to
    /// close the channel and release the workers.
    queue: Option<WorkQueue>,
    gauges: Arc<Gauges>,
    observability: Arc<PoolObs>,
    workers: Vec<JoinHandle<()>>,
}

impl<B: InferenceBackend + ?Sized + 'static> ServePool<B> {
    /// Spawns the pool: `cfg.resolved_workers()` threads, each parked on
    /// the work queue with its own reusable scratch.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if `micro_batch` is zero, and
    /// [`ScError::Io`] if the OS refuses to spawn a worker thread.
    pub fn new(backend: Arc<B>, cfg: ServeConfig) -> Result<Self, ScError> {
        if cfg.micro_batch == 0 {
            return Err(ScError::InvalidParam {
                name: "micro_batch",
                reason: "micro-batch size must be at least 1".into(),
            });
        }
        let (queue, rx): (WorkQueue, Receiver<Job>) = if cfg.queue_depth == 0 {
            let (tx, rx) = mpsc::channel();
            (WorkQueue::Unbounded(tx), rx)
        } else {
            let (tx, rx) = mpsc::sync_channel(cfg.queue_depth);
            (WorkQueue::Bounded(tx), rx)
        };
        let rx = Arc::new(Mutex::new(rx));
        let gauges = Arc::new(Gauges::default());
        let observability = Arc::new(PoolObs::new());
        let workers = (0..cfg.resolved_workers())
            .map(|i| {
                let rx = Arc::clone(&rx);
                let backend = Arc::clone(&backend);
                let gauges = Arc::clone(&gauges);
                let observability = Arc::clone(&observability);
                std::thread::Builder::new()
                    .name(format!("ascend-serve-{i}"))
                    .spawn(move || {
                        worker_loop(&*backend, &rx, &gauges, &observability, i as u32)
                    })
                    .map_err(|e| ScError::Io {
                        path: format!("thread ascend-serve-{i}"),
                        reason: e.to_string(),
                        not_found: false,
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServePool { backend, cfg, queue: Some(queue), gauges, observability, workers })
    }

    /// The pool's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The shared backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Number of live worker threads the pool was spawned with.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Live queue depth: requests admitted to the work queue that no
    /// worker has claimed yet. A relaxed-atomic gauge for metrics and
    /// load-shedding decisions, not a synchronization primitive — the
    /// value can be momentarily stale under concurrent submitters.
    pub fn queued(&self) -> usize {
        self.gauges.queued.load(Ordering::Relaxed)
    }

    /// Requests a worker is serving right now (claimed, not yet replied).
    /// Same relaxed-gauge semantics as [`ServePool::queued`].
    pub fn in_flight(&self) -> usize {
        self.gauges.in_flight.load(Ordering::Relaxed)
    }

    /// The queue's configured capacity in requests (`0` = unbounded).
    pub fn queue_capacity(&self) -> usize {
        self.cfg.queue_depth
    }

    /// The pool's observability state: queue-wait/service histograms and
    /// the span ring behind `GET /debug/trace`.
    pub fn obs(&self) -> &PoolObs {
        &self.observability
    }

    /// Submits one owned request to the pool, returning a [`ServeHandle`]
    /// to collect its logits later — the streaming half of the API.
    ///
    /// With a bounded queue ([`ServeConfig::queue_depth`] `> 0`) this call
    /// **blocks** while the queue is full; it never drops the request and
    /// never reorders it past requests submitted earlier from the same
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if the request's patch tensor
    /// does not hold exactly `images` images, or if the pool has no live
    /// workers left.
    pub fn submit(&self, request: ServeRequest) -> Result<ServeHandle, ScError> {
        let (job, rx, images) = self.make_job(request)?;
        // The queue is `Some` for the pool's whole life (taken only during
        // drop); a typed error keeps this hot path panic-free even if that
        // invariant ever breaks.
        let queue = self.queue.as_ref().ok_or(ScError::PoolGone)?;
        queue.send(job)?;
        self.gauges.queued.fetch_add(1, Ordering::Relaxed);
        Ok(ServeHandle { rx, images })
    }

    /// Non-blocking admission: like [`ServePool::submit`], but a full
    /// bounded queue **refuses** the request with a typed
    /// [`ScError::QueueFull`] instead of blocking the caller — nothing is
    /// enqueued on refusal, so the caller can shed the load (an HTTP
    /// front-end answers `503 Retry-After`) and stay responsive. On an
    /// unbounded queue (`queue_depth == 0`) this is identical to `submit`:
    /// admission never fails for capacity reasons.
    ///
    /// # Errors
    ///
    /// [`ScError::QueueFull`] when the bounded queue is at capacity,
    /// [`ScError::InvalidParam`] for a malformed request, and
    /// [`ScError::PoolGone`] when no live workers remain.
    pub fn try_submit(&self, request: ServeRequest) -> Result<ServeHandle, ScError> {
        let (job, rx, images) = self.make_job(request)?;
        let queue = self.queue.as_ref().ok_or(ScError::PoolGone)?;
        queue.try_send(job, self.cfg.queue_depth)?;
        self.gauges.queued.fetch_add(1, Ordering::Relaxed);
        Ok(ServeHandle { rx, images })
    }

    /// Validates a request and packages it as a queue job plus the
    /// caller's reply endpoint — the shared front half of
    /// [`ServePool::submit`] and [`ServePool::try_submit`].
    fn make_job(
        &self,
        request: ServeRequest,
    ) -> Result<(Job, Receiver<Served>, usize), ScError> {
        let cfg = self.backend.vit_config();
        let (p, pd) = (cfg.num_patches(), cfg.patch_dim());
        if request.patches.data().len() != request.images * p * pd {
            return Err(ScError::InvalidParam {
                name: "request",
                reason: format!(
                    "request holds {} values, expected {} for {} images of [{p}, {pd}] patches",
                    request.patches.data().len(),
                    request.images * p * pd,
                    request.images
                ),
            });
        }
        // Capacity 1 and exactly one message: the worker's reply never
        // blocks, so a slow collector cannot stall the pool.
        let (reply, rx) = mpsc::sync_channel(1);
        let images = request.images;
        let trace = request.trace.unwrap_or_else(TraceId::mint);
        #[expect(clippy::disallowed_methods, reason = "admission timestamp for the queue-wait split; never reaches the logits")]
        let submitted = Instant::now();
        Ok((Job { patches: request.patches, images, trace, submitted, reply }, rx, images))
    }

    /// Serves a queue of requests, returning per-request logits in request
    /// order plus a [`ServeReport`].
    ///
    /// Implemented as submit-all / collect-in-order over the persistent
    /// workers: requests stream into the pool (blocking on a full bounded
    /// queue) and each worker pulls its next request the moment it
    /// finishes the previous one — a slow request never stalls unrelated
    /// work on other workers.
    ///
    /// The borrowed requests are cloned into the queue; streaming callers
    /// that already own their requests should use [`ServePool::submit`]
    /// directly and pay no copy.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if a request's patch tensor does
    /// not hold exactly `images` images (checked for the whole slice
    /// before anything is enqueued), and propagates backend errors (the
    /// first in request order, deterministically).
    pub fn run(&self, requests: &[ServeRequest]) -> Result<ServeOutcome, ScError> {
        let cfg = self.backend.vit_config();
        let (p, pd) = (cfg.num_patches(), cfg.patch_dim());
        for req in requests {
            if req.patches.data().len() != req.images * p * pd {
                return Err(ScError::InvalidParam {
                    name: "requests",
                    reason: format!(
                        "request holds {} values, expected {} for {} images of [{p}, {pd}] patches",
                        req.patches.data().len(),
                        req.images * p * pd,
                        req.images
                    ),
                });
            }
        }
        #[expect(clippy::disallowed_methods, reason = "wall/latency metrics feed ServeReport only, never the logits")]
        let start = Instant::now();
        let images = requests.iter().map(|r| r.images).sum();
        let handles: Vec<ServeHandle> =
            requests.iter().map(|r| self.submit(r.clone())).collect::<Result<_, _>>()?;
        let (logits, latencies, queue_waits) = self.collect_all(handles)?;
        let report = ServeReport {
            latencies,
            queue_waits,
            wall: start.elapsed(),
            images,
            workers: self.workers.len(),
        };
        Ok(ServeOutcome { logits, report })
    }

    /// Serves one large batch: carves it into micro-batch requests,
    /// streams them through the pool, and reassembles the
    /// `[images, classes]` logits in input order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServePool::run`].
    pub fn run_batch(
        &self,
        patches: &Tensor,
        images: usize,
    ) -> Result<(Tensor, ServeReport), ScError> {
        let cfg = self.backend.vit_config();
        let (p, pd, classes) = (cfg.num_patches(), cfg.patch_dim(), cfg.classes);
        if patches.data().len() != images * p * pd {
            return Err(ScError::InvalidParam {
                name: "patches",
                reason: format!(
                    "patch tensor holds {} values, expected {} for {images} images",
                    patches.data().len(),
                    images * p * pd
                ),
            });
        }
        let mb = self.cfg.micro_batch;
        #[expect(clippy::disallowed_methods, reason = "wall/latency metrics feed ServeReport only, never the logits")]
        let start = Instant::now();
        // Each micro-batch tensor is built owned and moved straight into
        // the queue — no intermediate request vector, no clone.
        let handles: Vec<ServeHandle> = (0..images)
            .step_by(mb)
            .map(|lo| {
                let hi = (lo + mb).min(images);
                self.submit(ServeRequest::new(
                    Tensor::from_vec(
                        patches.data()[lo * p * pd..hi * p * pd].to_vec(),
                        &[(hi - lo) * p, pd],
                    ),
                    hi - lo,
                ))
            })
            .collect::<Result<_, _>>()?;
        let (logits, latencies, queue_waits) = self.collect_all(handles)?;
        let mut all = Vec::with_capacity(images * classes);
        for t in &logits {
            all.extend_from_slice(t.data());
        }
        let report = ServeReport {
            latencies,
            queue_waits,
            wall: start.elapsed(),
            images,
            workers: self.workers.len(),
        };
        Ok((Tensor::from_vec(all, &[images, classes]), report))
    }

    /// Collects every handle in submission order, propagating the first
    /// error in request order (later outstanding replies are abandoned).
    #[expect(clippy::type_complexity, reason = "a private return tuple of logits, latencies and queue waits; a named struct would be used once")]
    fn collect_all(
        &self,
        handles: Vec<ServeHandle>,
    ) -> Result<(Vec<Tensor>, Vec<Duration>, Vec<Duration>), ScError> {
        let mut logits = Vec::with_capacity(handles.len());
        let mut latencies = Vec::with_capacity(handles.len());
        let mut queue_waits = Vec::with_capacity(handles.len());
        for handle in handles {
            let (t, timing) = handle.collect()?;
            logits.push(t);
            latencies.push(timing.service);
            queue_waits.push(timing.queue_wait);
        }
        Ok((logits, latencies, queue_waits))
    }

    /// Graceful shutdown: closes the work queue, lets every worker finish
    /// the request it holds, and joins the threads. Dropping the pool does
    /// the same; this method just makes the point explicit at call sites.
    pub fn shutdown(self) {
        // Drop runs close_and_join.
    }

    fn close_and_join(&mut self) {
        self.queue.take();
        for handle in self.workers.drain(..) {
            // A panicked worker already surfaced as an error on its
            // handle; re-raising here would abort during unwinding.
            let _ = handle.join();
        }
    }
}

impl<B: InferenceBackend + ?Sized + 'static> Drop for ServePool<B> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// The worker body: pull a job, serve it with the thread's one reusable
/// scratch, reply, repeat until the queue closes.
fn worker_loop<B: InferenceBackend + ?Sized>(
    backend: &B,
    rx: &Mutex<Receiver<Job>>,
    gauges: &Gauges,
    observability: &PoolObs,
    worker: u32,
) {
    let mut scratch = backend.make_scratch();
    loop {
        // Hold the receiver lock only for the blocking pull, never while
        // serving — the other workers keep draining the queue.
        let job = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // ascend-lint: allow(no-blocking-under-lock) -- this IS the worker pull point: the receiver mutex exists only to serialize recv() across workers, guards nothing else, and is released before serving
            match guard.recv() {
                Ok(job) => job,
                Err(_) => break, // queue closed: graceful shutdown
            }
        };
        gauges.queued.fetch_sub(1, Ordering::Relaxed);
        gauges.in_flight.fetch_add(1, Ordering::Relaxed);
        #[expect(clippy::disallowed_methods, reason = "queue-wait/service split for ServeReport and the trace ring; timing never reaches the output tensor")]
        let t0 = Instant::now();
        let queue_wait = t0.saturating_duration_since(job.submitted);
        let result = backend.forward_with(&job.patches, job.images, &mut scratch);
        let service = t0.elapsed();
        // Record metrics and spans only after the timed region is closed,
        // so the ring's mutex never sits inside a measured interval.
        observability.queue_wait.observe(queue_wait);
        observability.service.observe(service);
        observability.trace.record(job.trace, "queue_wait", worker, job.submitted, queue_wait);
        observability.trace.record(job.trace, "service", worker, t0, service);
        // A dropped handle just means nobody wants this answer.
        let _ = job.reply.send(Served { result, timing: JobTiming { queue_wait, service } });
        gauges.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Order-preserving parallel map over a slice — **the** workspace-wide
/// parallel-map primitive (the bench binaries use it too, so there is one
/// chunked-scope pattern, not many). For borrowed, run-to-completion
/// sweeps this scoped form stays the right tool; request serving uses the
/// persistent [`ServePool`] instead.
///
/// Splits `items` into chunks of `chunk` and lets `workers` scoped threads
/// claim chunks dynamically off a shared atomic cursor; results come back
/// in input order regardless of which worker computed what. With
/// `workers <= 1` it degenerates to a plain serial map.
///
/// # Panics
///
/// Panics if `chunk == 0` — a zero chunk size is a caller bug (it would
/// make no progress), not a degraded mode.
pub fn parallel_map<T, R, F>(workers: usize, chunk: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(workers, chunk, items, || (), |(), i, t| f(i, t))
}

/// [`parallel_map`] with per-worker mutable state.
///
/// `init` runs once on each worker thread and the resulting state is
/// threaded through every `f(&mut state, index, item)` call that worker
/// makes — the hook sweep binaries use to reuse one expensive allocation
/// per worker instead of one per item.
///
/// # Panics
///
/// Panics if `chunk == 0` (see [`parallel_map`]).
pub fn parallel_map_with<T, S, R, I, F>(
    workers: usize,
    chunk: usize,
    items: &[T],
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    assert!(chunk > 0, "parallel_map chunk size must be at least 1");
    let n_chunks = items.len().div_ceil(chunk);
    let workers = workers.max(1).min(n_chunks.max(1));
    if workers == 1 {
        let mut state = init();
        return items.iter().enumerate().map(|(i, t)| f(&mut state, i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut mine = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let lo = c * chunk;
                        let hi = (lo + chunk).min(items.len());
                        let mut out = Vec::with_capacity(hi - lo);
                        for (i, item) in items[lo..hi].iter().enumerate() {
                            out.push(f(&mut state, lo + i, item));
                        }
                        mine.push((c, out));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(mine) => mine,
                // Re-raise a worker's panic with its original payload
                // instead of wrapping it in a second panic message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    // Reassemble in chunk order: worker scheduling never leaks into output
    // order, which is what the determinism contract rests on. Sorting by
    // the chunk index (each claimed exactly once off the atomic cursor)
    // restores input order without any partially-filled slot state.
    let mut chunks: Vec<(usize, Vec<R>)> = parts.into_iter().flatten().collect();
    chunks.sort_unstable_by_key(|&(c, _)| c);
    chunks.into_iter().flat_map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_for_ragged_chunks() {
        let items: Vec<usize> = (0..103).collect();
        let want: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1usize, 2, 3, 8] {
            for chunk in [1usize, 4, 7, 64, 1000] {
                let got = parallel_map(workers, chunk, &items, |_, x| x * 3 + 1);
                assert_eq!(got, want, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn parallel_map_passes_global_indices() {
        let items = vec![10usize; 37];
        let got = parallel_map(4, 5, &items, |i, x| i * 100 + x);
        let want: Vec<usize> = (0..37).map(|i| i * 100 + 10).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let got: Vec<usize> = parallel_map(8, 16, &[], |_, x: &usize| *x);
        assert!(got.is_empty());
        // Empty input with per-worker state: init must not be required.
        let got: Vec<usize> = parallel_map_with(4, 2, &[], || 7usize, |s, _, x: &usize| *s + *x);
        assert!(got.is_empty());
    }

    #[test]
    fn parallel_map_with_more_workers_than_items() {
        // 16 workers over 3 items: the pool must cap itself and still
        // produce every item exactly once, in order.
        let items = vec![5usize, 6, 7];
        let got = parallel_map(16, 1, &items, |i, x| (i, *x));
        assert_eq!(got, vec![(0, 5), (1, 6), (2, 7)]);
        let got = parallel_map_with(64, 2, &items, || (), |(), i, x| (i, *x));
        assert_eq!(got, vec![(0, 5), (1, 6), (2, 7)]);
    }

    #[test]
    fn parallel_map_is_exhaustive_for_every_worker_chunk_shape() {
        // Property sweep: every (workers, chunk, len) shape visits each
        // index exactly once and preserves order.
        for len in [0usize, 1, 2, 9, 33] {
            let items: Vec<usize> = (0..len).collect();
            let want: Vec<usize> = items.iter().map(|x| x + 1).collect();
            for workers in [1usize, 2, 5, 9] {
                for chunk in [1usize, 2, 3, 8, 100] {
                    let got = parallel_map(workers, chunk, &items, |_, x| x + 1);
                    assert_eq!(got, want, "len={len} workers={workers} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn parallel_map_rejects_zero_chunk() {
        let _ = parallel_map(2, 0, &[1usize, 2], |_, x| *x);
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn parallel_map_with_rejects_zero_chunk() {
        let _ = parallel_map_with(2, 0, &[1usize, 2], || (), |(), _, x| *x);
    }

    #[test]
    fn parallel_map_with_reuses_worker_state() {
        // Each worker's state counts the items it served; the grand total
        // must be every item exactly once.
        let items = vec![1usize; 50];
        let served = parallel_map_with(
            3,
            4,
            &items,
            || 0usize,
            |count, _, x| {
                *count += 1;
                (*count, *x)
            },
        );
        assert_eq!(served.len(), 50);
        // Per-worker counters are strictly positive and each item was
        // visited once (all second components intact).
        assert!(served.iter().all(|(c, x)| *c >= 1 && *x == 1));
    }

    #[test]
    fn serve_config_resolves_workers() {
        assert!(ServeConfig::auto().resolved_workers() >= 1);
        let cfg = ServeConfig { workers: 3, ..ServeConfig::default() };
        assert_eq!(cfg.resolved_workers(), 3);
    }

    #[test]
    fn report_percentiles_are_nearest_rank() {
        let report = ServeReport {
            latencies: (1..=10).map(Duration::from_millis).collect(),
            queue_waits: Vec::new(),
            wall: Duration::from_millis(20),
            images: 40,
            workers: 4,
        };
        assert_eq!(report.latency_percentile(50.0), Duration::from_millis(5));
        assert_eq!(report.latency_percentile(95.0), Duration::from_millis(10));
        assert_eq!(report.latency_percentile(100.0), Duration::from_millis(10));
        assert_eq!(report.latency_percentile(0.0), Duration::from_millis(1));
        assert_eq!(report.requests(), 10);
        assert!((report.throughput() - 2000.0).abs() < 1e-9);
        assert!(report.summary().contains("40 images / 10 requests"));
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = ServeReport {
            latencies: Vec::new(),
            queue_waits: Vec::new(),
            wall: Duration::ZERO,
            images: 0,
            workers: 1,
        };
        for p in [f64::NEG_INFINITY, -1.0, 0.0, 50.0, 100.0, 1e9, f64::NAN] {
            assert_eq!(report.latency_percentile(p), Duration::ZERO, "p={p}");
        }
        assert_eq!(report.throughput(), 0.0);
        assert!(report.summary().contains("0 images"));
    }

    #[test]
    fn zero_wall_reports_infinite_throughput_not_zero() {
        // A sub-resolution wall must never read as "0.0 images/s" — the
        // report says `inf` explicitly.
        let report = ServeReport {
            latencies: vec![Duration::ZERO; 2],
            queue_waits: Vec::new(),
            wall: Duration::ZERO,
            images: 8,
            workers: 2,
        };
        assert!(report.throughput().is_infinite());
        let line = report.summary();
        assert!(line.contains("inf images/s"), "summary was: {line}");
        assert!(!line.contains("0.0 images/s"), "summary was: {line}");
    }

    #[test]
    fn percentile_is_total_on_out_of_range_and_non_finite_p() {
        let report = ServeReport {
            latencies: (1..=4).map(Duration::from_millis).collect(),
            queue_waits: Vec::new(),
            wall: Duration::from_millis(10),
            images: 4,
            workers: 2,
        };
        // p ≤ 0 → minimum, p ≥ 100 → maximum, NaN → defined zero.
        assert_eq!(report.latency_percentile(-5.0), Duration::from_millis(1));
        assert_eq!(report.latency_percentile(f64::NEG_INFINITY), Duration::from_millis(1));
        assert_eq!(report.latency_percentile(0.0), Duration::from_millis(1));
        assert_eq!(report.latency_percentile(100.0), Duration::from_millis(4));
        assert_eq!(report.latency_percentile(250.0), Duration::from_millis(4));
        assert_eq!(report.latency_percentile(f64::INFINITY), Duration::from_millis(4));
        assert_eq!(report.latency_percentile(f64::NAN), Duration::ZERO);
    }
}
