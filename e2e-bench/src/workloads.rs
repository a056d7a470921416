//! The three workloads: seeded inputs and their serial references, the
//! timed set-up of the system under test, and the closed-loop generators.
//!
//! Every workload is a closed loop driven from this process with at most
//! two generator threads or connections, against the stack running
//! in-process with its default `HttpConfig`.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascend::serve::{JobTiming, ServeConfig, ServeRequest};
use ascend::{InferenceBackend, ScEngine, Session};
use ascend_http::{HttpConfig, HttpServer};
use ascend_registry::{ModelRegistry, ModelSpec, RegistryConfig};
use ascend_tensor::Tensor;
use sc_core::ScError;

use crate::artifacts;
use crate::stats::Latencies;
use crate::trace::{Ctx, Tracer};
use crate::wire::{self, Conn};

/// Serving-pool shape shared by every workload: one worker per core of
/// the 2-core reference host, and a bounded queue deep enough that two
/// closed-loop clients never shed.
pub const POOL_WORKERS: usize = 2;
pub const QUEUE_DEPTH: usize = 2;

/// Pause between binding an HTTP server and its first request in
/// [`setup`].
const ACCEPT_SETTLE: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `Session` at CIFAR geometry; one submitter keeps the
    /// bounded queue full. Compute-bound, no sockets.
    OfflineCifar,
    /// Two keep-alive connections to a single-model `HttpServer`.
    HttpKeepalive,
    /// Two clients, a fresh connection per request, round-robin over two
    /// models behind a registry whose budget admits one of them.
    HttpChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "offline-cifar" => Some(Workload::OfflineCifar),
            "http-keepalive" => Some(Workload::HttpKeepalive),
            "http-churn" => Some(Workload::HttpChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineCifar => "offline-cifar",
            Workload::HttpKeepalive => "http-keepalive",
            Workload::HttpChurn => "http-churn",
        }
    }

    fn models(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::OfflineCifar => &[("cifar", artifacts::CIFAR)],
            Workload::HttpKeepalive => &[("alpha", artifacts::SMOKE_A)],
            Workload::HttpChurn => &[("alpha", artifacts::SMOKE_A), ("beta", artifacts::SMOKE_B)],
        }
    }

    /// Distinct payloads drawn per run: enough that no request replays its
    /// predecessor's input, few enough that computing every serial
    /// reference stays a small part of the run.
    fn pool_size(self) -> usize {
        match self {
            Workload::OfflineCifar => 32,
            Workload::HttpKeepalive | Workload::HttpChurn => 256,
        }
    }

    pub fn is_http(self) -> bool {
        self != Workload::OfflineCifar
    }
}

/// One served model and its serial reference.
pub struct Model {
    pub name: &'static str,
    pub path: PathBuf,
    pub fingerprint: String,
    /// A separately loaded engine: the serial `InferenceBackend::forward`
    /// every served output must equal, byte for byte.
    pub reference: ScEngine,
}

/// One request the clients send: where, the full request bytes, and the
/// only response body that counts as correct.
pub struct Target {
    pub payload: usize,
    pub request: Vec<u8>,
    pub expected: Vec<u8>,
}

/// A workload's seeded inputs and references.
pub struct Fixture {
    pub workload: Workload,
    pub models: Vec<Model>,
    /// Per-payload patch tensors (`[num_patches, patch_dim]`, one image).
    pub patches: Vec<Tensor>,
    /// Round-robin request order: payload-major, alternating models.
    pub targets: Vec<Target>,
}

impl Fixture {
    pub fn new(workload: Workload, seed: u64) -> Result<Fixture, String> {
        let mut models = Vec::new();
        for &(name, artifact) in workload.models() {
            let path = artifacts::path(artifact);
            let reference =
                ScEngine::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let fingerprint = artifacts::fingerprint(&path)?;
            models.push(Model {
                name,
                path,
                fingerprint,
                reference,
            });
        }
        let vit = *models[0].reference.vit_config();
        let n = workload.pool_size();
        let (data, _) = ascend_vit::data::synth_cifar(vit.classes, n, 0, vit.image, seed);
        let patches: Vec<Tensor> = (0..n).map(|i| data.patches(&[i], vit.patch)).collect();

        // Serial references, computed on two threads before anything is
        // timed; references[m][p] is model m's 200 body for payload p.
        let references: Vec<Vec<Vec<u8>>> = models
            .iter()
            .map(|m| serial_bodies(&m.reference, &patches))
            .collect::<Result<_, _>>()?;

        let close = workload == Workload::HttpChurn;
        let mut targets = Vec::new();
        for (p, tensor) in patches.iter().enumerate() {
            let body = ascend_http::encode_infer_request(tensor.data(), 1);
            for (m, model) in models.iter().enumerate() {
                let path = match workload {
                    Workload::HttpChurn => format!("/v1/models/{}/infer", model.name),
                    _ => "/v1/infer".to_string(),
                };
                targets.push(Target {
                    payload: p,
                    request: wire::request_bytes(&path, &body, close),
                    expected: references[m][p].clone(),
                });
            }
        }
        Ok(Fixture {
            workload,
            models,
            patches,
            targets,
        })
    }
}

/// The serial forward of each payload, encoded as the `200` body.
fn serial_bodies(engine: &ScEngine, patches: &[Tensor]) -> Result<Vec<Vec<u8>>, String> {
    let classes = engine.vit_config().classes;
    let half = patches.len().div_ceil(2);
    let forward = |chunk: &[Tensor]| -> Result<Vec<Vec<u8>>, String> {
        chunk
            .iter()
            .map(|t| {
                let logits = engine
                    .forward(t, 1)
                    .map_err(|e| format!("serial forward: {e}"))?;
                Ok(ascend_http::encode_logits(&logits, 1, classes))
            })
            .collect()
    };
    std::thread::scope(|s| {
        let first = s.spawn(|| forward(&patches[..half]));
        let second = forward(&patches[half..])?;
        let mut all = first
            .join()
            .map_err(|_| "reference thread panicked".to_string())??;
        all.extend(second);
        Ok(all)
    })
}

/// The running system under test.
pub enum Live {
    Offline(Session),
    Http(HttpServer),
}

impl Live {
    pub fn addr(&self) -> Option<SocketAddr> {
        match self {
            Live::Offline(_) => None,
            Live::Http(server) => Some(server.local_addr()),
        }
    }

    /// Stops the system and waits for every thread it started.
    pub fn stop(self) {
        match self {
            Live::Offline(session) => drop(session),
            Live::Http(server) => {
                server.shutdown_handle().shutdown();
                server.join();
            }
        }
    }
}

/// Artifact load, session or registry build, pool spawn and bind — then
/// the first request, which must come back correct. Returns the live
/// system and the seconds from start to that first correct response.
pub fn setup(fx: &Fixture) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let live = match fx.workload {
        Workload::OfflineCifar => Live::Offline(session(&fx.models[0])?),
        Workload::HttpKeepalive => {
            let session = Arc::new(session(&fx.models[0])?);
            let server = HttpServer::bind(session, HttpConfig::new("127.0.0.1:0"))
                .map_err(|e| format!("bind: {e}"))?;
            Live::Http(server)
        }
        Workload::HttpChurn => {
            let registry = Arc::new(ModelRegistry::new(RegistryConfig {
                memory_budget_bytes: single_model_budget(fx),
                ..Default::default()
            }));
            for m in &fx.models {
                registry
                    .register(ModelSpec::artifact(m.name, m.path.as_path()).serve(serve_config()))
                    .map_err(|e| format!("register {}: {e}", m.name))?;
            }
            let server = HttpServer::bind_registry(registry, HttpConfig::new("127.0.0.1:0"))
                .map_err(|e| format!("bind: {e}"))?;
            Live::Http(server)
        }
    };
    let target = &fx.targets[0];
    match &live {
        Live::Offline(session) => {
            let pool = session.runner().map_err(|e| format!("pool: {e}"))?;
            let handle = pool
                .submit(ServeRequest::new(fx.patches[target.payload].clone(), 1))
                .map_err(|e| format!("first submit: {e}"))?;
            let (logits, _) = handle
                .collect()
                .map_err(|e| format!("first collect: {e}"))?;
            let classes = session.backend().vit_config().classes;
            if ascend_http::encode_logits(&logits, 1, classes) != target.expected {
                return Err("first offline output differs from the serial forward".into());
            }
        }
        Live::Http(server) => {
            // Connecting the instant bind returns races the accept thread's
            // first poll: win it and the request is served at once, lose it
            // and it waits out one 5 ms poll sleep — which one happens
            // depends on the host's scheduling, so set-up time would flip
            // between two modes from run to run. Letting the accept thread
            // reach its first poll first takes the same path every time.
            std::thread::sleep(ACCEPT_SETTLE);
            let mut conn = None;
            let ex = wire::exchange(server.local_addr(), &mut conn, &target.request)
                .map_err(|e| format!("first request: {e}"))?;
            if ex.response.status != 200 || ex.response.body != target.expected {
                return Err(format!(
                    "first response is not the serial forward (status {})",
                    ex.response.status
                ));
            }
        }
    }
    Ok((live, started.elapsed().as_secs_f64()))
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: POOL_WORKERS,
        queue_depth: QUEUE_DEPTH,
        ..ServeConfig::default()
    }
}

pub fn session(model: &Model) -> Result<Session, String> {
    Session::builder()
        .artifact(&model.path)
        .workers(POOL_WORKERS)
        .queue_depth(QUEUE_DEPTH)
        .build()
        .map_err(|e| format!("session build: {e}"))
}

/// A registry budget that admits the largest model alone, so every switch
/// between models is an LRU eviction plus a cold load.
fn single_model_budget(fx: &Fixture) -> usize {
    fx.models
        .iter()
        .map(|m| m.reference.resident_bytes())
        .max()
        .unwrap_or(0)
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Phase {
    pub latencies: Latencies,
    /// Images whose output matched the serial reference.
    pub correct_images: u64,
    /// Outputs that differed from the serial reference.
    pub mismatches: u64,
    pub wall: Duration,
    /// `try_submit` refusals on a full queue (offline submitter).
    pub queue_full: u64,
    /// Pool timings of every collected offline request.
    pub timings: Vec<JobTiming>,
    /// Connect → first response byte, in µs, for each fresh socket.
    pub fresh_first_byte_us: Vec<f64>,
}

impl Phase {
    /// Median over chunks of completed images per second (see
    /// [`Latencies::chunked_rate`]); every request carries one image.
    pub fn images_per_s(&mut self) -> f64 {
        self.latencies.chunked_rate().unwrap_or(0.0)
    }

    fn absorb(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.correct_images += other.correct_images;
        self.mismatches += other.mismatches;
        self.queue_full += other.queue_full;
        self.timings.extend(other.timings);
        self.fresh_first_byte_us.extend(other.fresh_first_byte_us);
    }
}

/// Runs the workload's closed loop for `duration` (requests in flight at
/// the deadline are completed and counted), recording spans when traced.
pub fn drive(fx: &Fixture, live: &Live, duration: Duration, tracer: Option<&Tracer>) -> Phase {
    let started = Instant::now();
    let run = Run {
        fx,
        started,
        deadline: started + duration,
        tracer,
    };
    let mut phase = match live {
        Live::Offline(session) => offline_loop(&run, session),
        Live::Http(server) => {
            let addr = server.local_addr();
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let clients: Vec<_> = (0..2)
                    .map(|thread| {
                        let (run, next) = (&run, &next);
                        s.spawn(move || http_client(run, addr, next, thread))
                    })
                    .collect();
                let mut phase = Phase::default();
                for c in clients {
                    phase.absorb(c.join().expect("client thread panicked"));
                }
                phase
            })
        }
    };
    phase.wall = started.elapsed();
    phase
}

/// What every generator of one measured phase shares.
struct Run<'a> {
    fx: &'a Fixture,
    started: Instant,
    deadline: Instant,
    tracer: Option<&'a Tracer>,
}

/// One submitter keeps `workers + queue depth` requests in flight — the
/// queue stays full — and collects them in submission order.
fn offline_loop(run: &Run, session: &Session) -> Phase {
    let Run {
        fx,
        started,
        deadline,
        tracer,
    } = *run;
    let mut phase = Phase::default();
    let Ok(pool) = session.runner() else {
        phase.latencies.failed(0.0);
        return phase;
    };
    let window = POOL_WORKERS + QUEUE_DEPTH;
    let mut in_flight = VecDeque::with_capacity(window);
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        while now < deadline && in_flight.len() < window {
            let target = &fx.targets[next % fx.targets.len()];
            next += 1;
            let start = Instant::now();
            let request = || ServeRequest::new(fx.patches[target.payload].clone(), 1);
            let handle = match pool.try_submit(request()) {
                Err(ScError::QueueFull { .. }) => {
                    phase.queue_full += 1;
                    pool.submit(request())
                }
                other => other,
            };
            let submitted = Instant::now();
            in_flight.push_back((next as u64, target, start, submitted, handle));
        }
        let Some((request, target, start, submitted, handle)) = in_flight.pop_front() else {
            break;
        };
        let collected = handle.and_then(|h| h.collect());
        let done = Instant::now();
        match collected {
            Ok((logits, timing)) => {
                let classes = fx.models[0].reference.vit_config().classes;
                if ascend_http::encode_logits(&logits, 1, classes) == target.expected {
                    phase.correct_images += 1;
                } else {
                    phase.mismatches += 1;
                }
                phase
                    .latencies
                    .ok((done - started).as_secs_f64(), ms(done - start));
                phase.timings.push(timing);
            }
            Err(_) => phase.latencies.failed((done - started).as_secs_f64()),
        }
        if let Some(t) = tracer {
            let root = t.id();
            let ctx = Ctx {
                parent: Some(root),
                request,
                thread: 0,
            };
            t.record("serve.submit", t.id(), ctx, start, submitted);
            t.record("serve.collect", t.id(), ctx, submitted, done);
            t.record("request", root, Ctx::root(request, 0), start, done);
        }
    }
    phase
}

/// One HTTP client: claims request slots off the shared counter until the
/// deadline, checks every `200` body against the serial reference, and
/// counts every other outcome as failed.
fn http_client(run: &Run, addr: SocketAddr, next: &AtomicUsize, thread: u32) -> Phase {
    let Run {
        fx,
        started,
        deadline,
        tracer,
    } = *run;
    let fresh_each = fx.workload == Workload::HttpChurn;
    let mut phase = Phase::default();
    let mut conn: Option<Conn> = None;
    while Instant::now() < deadline {
        let slot = next.fetch_add(1, Ordering::Relaxed);
        let target = &fx.targets[slot % fx.targets.len()];
        let ex = match wire::exchange(addr, &mut conn, &target.request) {
            Ok(ex) => ex,
            Err(_) => {
                conn = None;
                phase.latencies.failed(started.elapsed().as_secs_f64());
                continue;
            }
        };
        let done_s = (ex.done - started).as_secs_f64();
        if ex.response.status == 200 && ex.response.body == target.expected {
            phase.correct_images += 1;
            phase.latencies.ok(done_s, ms(ex.done - ex.start));
        } else if ex.response.status == 200 {
            phase.mismatches += 1;
            phase.latencies.ok(done_s, ms(ex.done - ex.start));
        } else {
            phase.latencies.failed(done_s);
        }
        if ex.connected.is_some() {
            phase
                .fresh_first_byte_us
                .push((ex.first_byte - ex.start).as_secs_f64() * 1e6);
        }
        if let Some(t) = tracer {
            let root = t.id();
            let ctx = Ctx {
                parent: Some(root),
                request: slot as u64,
                thread,
            };
            let write_from = match ex.connected {
                Some(connected) => {
                    t.record("client.connect", t.id(), ctx, ex.start, connected);
                    connected
                }
                None => ex.start,
            };
            t.record("client.send", t.id(), ctx, write_from, ex.sent);
            t.record("client.await", t.id(), ctx, ex.sent, ex.first_byte);
            t.record("client.recv", t.id(), ctx, ex.first_byte, ex.done);
            t.record(
                "request",
                root,
                Ctx::root(slot as u64, thread),
                ex.start,
                ex.done,
            );
        }
        if fresh_each || ex.response.wants_close() {
            if let Some(c) = conn.take() {
                c.await_close();
            }
        }
    }
    phase
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
