//! Parallel inference: the serving runtime over any [`InferenceBackend`].
//!
//! ASCEND's accelerator is a throughput design — Table VI instantiates `k`
//! softmax blocks *in parallel* precisely so attention rows can be served
//! concurrently. This module gives the software model the same shape: a
//! persistent [`ServePool`] of long-lived worker threads fed by one
//! bounded channel. A backend is immutable once compiled (`Sync` is a
//! supertrait of [`InferenceBackend`]), so workers share it through one
//! [`Arc`] — no cloning, no locking on the hot path.
//!
//! The pool is generic over `B: InferenceBackend`: the SC-exact engine,
//! the float reference, and any decorator stack
//! ([`crate::backend::FaultInjectingBackend`]) serve through the very same
//! workers. There is one way through it: [`ServePool::submit`] or
//! [`ServePool::try_submit`] one owned [`ServeRequest`], then
//! [`ServeHandle::collect`] its logits and [`JobTiming`].
//!
//! Three properties are hard contracts, not best efforts:
//!
//! * **Determinism** — every worker runs the same provided
//!   [`InferenceBackend::forward_with`] loop the serial path runs (one
//!   [`InferenceBackend::forward_one`] per image, with a no-op observer),
//!   each request is served by exactly one worker, and each handle
//!   returns its own request's logits, so parallel output is
//!   **bit-for-bit identical** to serial output for any worker count or
//!   pool age (`tests/serve_determinism.rs` proves it, including across
//!   repeated rounds on one pool).
//! * **Backpressure, blocking or shedding** — the work queue is a bounded
//!   channel of [`ServeConfig::queue_depth`] slots and the caller picks
//!   the admission policy per call: once the slots are taken,
//!   [`ServePool::submit`] *blocks* the submitter until one frees, while
//!   [`ServePool::try_submit`] *refuses* with a typed
//!   [`ScError::QueueFull`] and enqueues nothing — the building block a
//!   network front-end needs to shed load (`503`) instead of wedging its
//!   socket threads. Admitted requests are never dropped and never
//!   reordered, and [`ServePool::queued`] exposes the live queue depth as
//!   a gauge.
//! * **No head-of-line blocking** — there are no inter-request barriers:
//!   workers pull the next request the moment they finish the previous
//!   one, so one slow request occupies one worker while the rest of the
//!   pool keeps serving unrelated work.
//!
//! ```no_run
//! use ascend::serve::{ServeConfig, ServePool, ServeRequest};
//! use std::sync::Arc;
//! # fn demo(engine: ascend::ScEngine, images: Vec<ascend_tensor::Tensor>) {
//! let pool = ServePool::new(Arc::new(engine), ServeConfig::default()).unwrap();
//! // Submit every image, then collect in order: the workers drain the
//! // queue while later submits wait for a slot.
//! let handles: Vec<_> =
//!     images.into_iter().map(|img| pool.submit(ServeRequest::new(img, 1)).unwrap()).collect();
//! for handle in handles {
//!     let (_logits, timing) = handle.collect().unwrap();
//!     println!("queue wait {:?}, service {:?}", timing.queue_wait, timing.service);
//! }
//! println!("service p95 {:?}", pool.obs().service().snapshot().percentile(95.0));
//! pool.shutdown(); // graceful: close the queue, join the workers
//! # }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
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

/// Runtime knobs of the [`ServePool`]. Both fields read `0` as "pick for
/// me"; [`ServeConfig::resolved`] is the one place the picks are made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeConfig {
    /// Worker-thread count; `0` resolves to the machine's
    /// [`std::thread::available_parallelism`]. The pool spawns exactly
    /// this many long-lived threads at construction.
    pub workers: usize,
    /// Capacity of the pool's work queue, in requests; `0` resolves to
    /// four slots per resolved worker, which keeps every worker busy with
    /// headroom while capping what a burst can pin. Once `queue_depth`
    /// requests are waiting beyond the ones workers already hold,
    /// [`ServePool::submit`] blocks the caller until a worker frees a
    /// slot, while [`ServePool::try_submit`] returns
    /// [`ScError::QueueFull`] immediately. Neither drops or reorders an
    /// admitted request.
    pub queue_depth: usize,
}

impl ServeConfig {
    /// The configuration with both `0`s resolved: `workers` of `0` as the
    /// machine's [`std::thread::available_parallelism`] (at least 1), and
    /// `queue_depth` of `0` as `4 × workers`. [`ServePool::new`] serves
    /// exactly this.
    pub fn resolved(&self) -> ServeConfig {
        let workers = match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let queue_depth = match self.queue_depth {
            0 => 4 * workers,
            n => n,
        };
        ServeConfig { workers, queue_depth }
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

/// Live occupancy gauges of a pool, shared with its workers.
///
/// `queued` counts requests admitted to the work queue but not yet claimed
/// by a worker; `in_flight` counts requests a worker is serving right now.
/// Both are relaxed atomics — a metrics gauge, not a synchronization
/// primitive. A submitter adds to `queued` *before* its send (see
/// [`ServePool::submit`]), so the worker's decrement can never run first
/// and the gauge never wraps below zero.
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
/// [`ServePool::submit`] or [`ServePool::try_submit`] afterwards reuses
/// them (each worker holds one [`crate::engine::ForwardScratch`] for its
/// whole lifetime). Work flows through one bounded channel of
/// [`ServeConfig::queue_depth`] slots, and each request is claimed by
/// exactly one worker the moment it is free, so there are no admission
/// waves and no inter-request barriers. The pool is `Sync`: submitters on
/// any thread share it by reference.
///
/// Shutdown is graceful via [`ServePool::shutdown`] or `Drop`: the queue
/// closes, workers finish what they hold and exit, and the threads are
/// joined.
///
/// Generic over `B: InferenceBackend` (including unsized trait objects, so
/// [`crate::Session`] holds a `ServePool<dyn InferenceBackend>`).
pub struct ServePool<B: InferenceBackend + ?Sized + 'static = crate::engine::ScEngine> {
    backend: Arc<B>,
    /// The resolved configuration: no field is `0`.
    cfg: ServeConfig,
    /// `Some` for the pool's whole life; taken (dropped) on shutdown to
    /// close the channel and release the workers.
    queue: Option<SyncSender<Job>>,
    gauges: Arc<Gauges>,
    observability: Arc<PoolObs>,
    workers: Vec<JoinHandle<()>>,
}

impl<B: InferenceBackend + ?Sized + 'static> ServePool<B> {
    /// Spawns the pool over `cfg.resolved()`: that many worker threads,
    /// each parked on the work queue with its own reusable scratch.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::Io`] if the OS refuses to spawn a worker thread.
    pub fn new(backend: Arc<B>, cfg: ServeConfig) -> Result<Self, ScError> {
        let cfg = cfg.resolved();
        let (queue, rx) = mpsc::sync_channel(cfg.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let gauges = Arc::new(Gauges::default());
        let observability = Arc::new(PoolObs::new());
        let workers = (0..cfg.workers)
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

    /// The pool's resolved configuration: the worker count and queue
    /// capacity it actually runs with, never `0`.
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
    /// load-shedding decisions, not a synchronization primitive. A submit
    /// is counted from just before its send, so while a `submit` waits on
    /// a full queue, or a refused `try_submit` has not yet undone its
    /// count, the gauge can read above [`ServePool::queue_capacity`].
    pub fn queued(&self) -> usize {
        self.gauges.queued.load(Ordering::Relaxed)
    }

    /// Requests a worker is serving right now (claimed, not yet replied).
    /// Same relaxed-gauge semantics as [`ServePool::queued`].
    pub fn in_flight(&self) -> usize {
        self.gauges.in_flight.load(Ordering::Relaxed)
    }

    /// The queue's capacity in requests (the resolved
    /// [`ServeConfig::queue_depth`]).
    pub fn queue_capacity(&self) -> usize {
        self.cfg.queue_depth
    }

    /// The pool's observability state: queue-wait/service histograms and
    /// the span ring behind `GET /debug/trace`.
    pub fn obs(&self) -> &PoolObs {
        &self.observability
    }

    /// Submits one owned request to the pool, returning a [`ServeHandle`]
    /// to collect its logits later.
    ///
    /// While the queue is full this call **blocks** until a worker frees a
    /// slot; it never drops the request and never reorders it past
    /// requests submitted earlier from the same thread.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if the request's patch tensor
    /// does not hold exactly `images` images, and [`ScError::PoolGone`] if
    /// the pool has no live workers left.
    pub fn submit(&self, request: ServeRequest) -> Result<ServeHandle, ScError> {
        let (job, handle) = self.make_job(request)?;
        // The queue is `Some` for the pool's whole life (taken only during
        // drop); a typed error keeps this hot path panic-free even if that
        // invariant ever breaks.
        let queue = self.queue.as_ref().ok_or(ScError::PoolGone)?;
        // Counted before the send, undone if the send fails. The add is
        // sequenced before the send, the send happens-before the worker's
        // `recv` of this job, and that `recv` is sequenced before the
        // worker's `fetch_sub`; so the add precedes the matching subtract
        // in `queued`'s modification order, and the gauge never wraps.
        // A submitter blocked on a full queue is counted while it waits.
        self.gauges.queued.fetch_add(1, Ordering::Relaxed);
        match queue.send(job) {
            Ok(()) => Ok(handle),
            Err(_) => {
                self.gauges.queued.fetch_sub(1, Ordering::Relaxed);
                Err(ScError::PoolGone)
            }
        }
    }

    /// Non-blocking admission: like [`ServePool::submit`], but a full
    /// queue **refuses** the request with a typed [`ScError::QueueFull`]
    /// instead of blocking the caller — nothing is enqueued on refusal,
    /// so the caller can shed the load (an HTTP front-end answers `503
    /// Retry-After`) and stay responsive.
    ///
    /// # Errors
    ///
    /// [`ScError::QueueFull`] when the queue is at capacity,
    /// [`ScError::InvalidParam`] for a malformed request, and
    /// [`ScError::PoolGone`] when no live workers remain.
    pub fn try_submit(&self, request: ServeRequest) -> Result<ServeHandle, ScError> {
        let (job, handle) = self.make_job(request)?;
        let queue = self.queue.as_ref().ok_or(ScError::PoolGone)?;
        // Counted before the send, undone on refusal: see `submit`.
        self.gauges.queued.fetch_add(1, Ordering::Relaxed);
        match queue.try_send(job) {
            Ok(()) => Ok(handle),
            Err(e) => {
                self.gauges.queued.fetch_sub(1, Ordering::Relaxed);
                Err(match e {
                    TrySendError::Full(_) => ScError::QueueFull { depth: self.cfg.queue_depth },
                    TrySendError::Disconnected(_) => ScError::PoolGone,
                })
            }
        }
    }

    /// Validates a request and packages it as a queue job plus the
    /// caller's reply endpoint — the shared front half of
    /// [`ServePool::submit`] and [`ServePool::try_submit`].
    fn make_job(&self, request: ServeRequest) -> Result<(Job, ServeHandle), ScError> {
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
        let job = Job { patches: request.patches, images, trace, submitted, reply };
        Ok((job, ServeHandle { rx, images }))
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
        #[expect(clippy::disallowed_methods, reason = "queue-wait/service split for the pool histograms and the trace ring; timing never reaches the output tensor")]
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
    assert!(chunk > 0, "parallel_map chunk size must be at least 1");
    let n_chunks = items.len().div_ceil(chunk);
    let workers = workers.max(1).min(n_chunks.max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
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
                            out.push(f(lo + i, item));
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
    }

    #[test]
    fn parallel_map_caps_workers_above_the_item_count() {
        // 16 workers over 3 items: the pool must cap itself and still
        // produce every item exactly once, in order.
        let items = vec![5usize, 6, 7];
        let got = parallel_map(16, 1, &items, |i, x| (i, *x));
        assert_eq!(got, vec![(0, 5), (1, 6), (2, 7)]);
        let got = parallel_map(64, 2, &items, |i, x| (i, *x));
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
    fn serve_config_resolves_workers() {
        assert!(ServeConfig::default().resolved().workers >= 1);
        // A zero queue depth resolves to four slots per resolved worker;
        // an explicit depth is kept as given.
        let cfg = ServeConfig { workers: 3, ..ServeConfig::default() };
        assert_eq!(cfg.resolved(), ServeConfig { workers: 3, queue_depth: 12 });
        let explicit = ServeConfig { workers: 3, queue_depth: 1 };
        assert_eq!(explicit.resolved(), explicit);
        let auto = ServeConfig::default().resolved();
        assert_eq!(auto.queue_depth, 4 * auto.workers);
    }
}
