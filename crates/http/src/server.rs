//! The listener, connection-thread pool, router, and graceful drain.
//!
//! Threading model: one accept thread blocks in `accept` and hands each
//! new socket to a small bounded channel, so a connection reaches a
//! handler as soon as one is free; `conn_workers` handler threads each
//! own one connection at a time and run its keep-alive loop. While a
//! connection waits in the hand-off backlog, every handler closes its
//! connection after the response in progress, so keep-alive cannot hold
//! a handler against waiting clients. A handler waits at most
//! `IDLE_TIMEOUT` (1 s) for the first byte of each request, so silent
//! sockets cannot hold every handler for the whole read deadline. The
//! `ascend_http_handlers_busy` and `ascend_http_conn_backlog` gauges show
//! handler occupancy and the hand-off backlog live. Inference admission
//! inside a handler is strictly non-blocking ([`ServePool::try_submit`]):
//! a full work queue answers `503 Retry-After` immediately, so a traffic
//! burst can never wedge the socket threads behind a blocking submit —
//! the bugfix this crate is built around. When every handler is busy and
//! the hand-off backlog is full, whole connections are shed with `503`
//! the same way. A shed socket, like one answered with a parse error, is
//! half-closed and drained briefly, so the client's unread request
//! cannot reset the answer away.
//!
//! Shutdown is graceful: [`ShutdownHandle::shutdown`] sets the stop flag
//! and wakes the blocked `accept` with a connection to the listener's
//! own address; the accept thread drops that socket, exits and closes
//! the listener. Handler threads finish the request they are serving
//! (responses for admitted work are always written), remaining
//! backlogged connections get one final exchange with
//! `Connection: close`, and [`HttpServer::join`] joins every thread.
//!
//! [`ServePool::try_submit`]: ascend::ServePool::try_submit

use std::io::{BufRead, BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ascend::serve::{JobTiming, ServeRequest};
use ascend::Session;
use ascend_obs::TraceId;
use ascend_registry::{ModelRegistry, ModelState};
use sc_core::ScError;

use crate::http1::{self, Limits, ParseError, Request, Response};
use crate::metrics::ServerMetrics;
use crate::HttpConfig;

/// Back-off after a failed `accept` (e.g. `EMFILE`), so a persistent
/// error cannot spin a core. The only sleep on the accept path.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// How long a handler waits for the first byte of a request (capped at
/// `read_timeout`) before closing the connection quietly.
const IDLE_TIMEOUT: Duration = Duration::from_secs(1);

/// Bound on one wake-up connect; drain retries a wake that fails.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// Bounds of [`linger_close`]: the longest silence it waits through, and
/// its whole time on one socket (on a shed socket, the accept thread's
/// time; the usual cost is one round trip).
const LINGER_IDLE: Duration = Duration::from_millis(20);
const LINGER_BUDGET: Duration = Duration::from_millis(160);

/// How long drain waits for the accept thread before waking it again.
const WAKE_RETRY: Duration = Duration::from_millis(2);

/// A clonable remote control for stopping the server from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    /// Where a self-connect reaches the listener (loopback when it is
    /// bound to an unspecified address).
    wake_addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown: sets the stop flag and makes one best-effort
    /// connect to the listener to wake its blocked `accept`. The accept
    /// thread then exits and closes the listener, so new connects are
    /// refused even before [`HttpServer::join`]; in-flight requests
    /// finish, and `join` returns once every thread has exited (it
    /// repeats the wake, so a lost connect here cannot hang it).
    /// Idempotent: only the first call connects.
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            self.wake();
        }
    }

    /// One self-connect to unblock the accept thread. A failed connect
    /// means the listener is already closed or unreachable; drain
    /// retries, so the error carries nothing.
    fn wake(&self) {
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_CONNECT_TIMEOUT);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// What the server fronts: one session (`POST /v1/infer`) or a
/// multi-model registry (`POST /v1/models/{name}/infer`).
enum ServeTarget {
    Single(Arc<Session>),
    Registry(Arc<ModelRegistry>),
}

/// The running HTTP front-end; see the [module docs](self).
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    metrics: Arc<ServerMetrics>,
    target: Arc<ServeTarget>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds the listener, spawns the serving pool (eagerly, so a broken
    /// session fails here and not on the first request), the accept
    /// thread, and `cfg.conn_workers` connection-handler threads.
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] if the address cannot be bound or a thread cannot
    /// be spawned; [`ScError::InvalidParam`] for a zero
    /// `conn_workers`/`keep_alive_requests` or a malformed session
    /// serving configuration.
    pub fn bind(session: Arc<Session>, cfg: HttpConfig) -> Result<HttpServer, ScError> {
        // Spawn the pool now: the first request must never pay (or trip
        // over) lazy pool construction.
        session.runner()?;
        Self::bind_target(Arc::new(ServeTarget::Single(session)), cfg)
    }

    /// Binds a **multi-model** front-end over a registry. Nothing is
    /// loaded at bind time: each model warms lazily on its first
    /// `POST /v1/models/{name}/infer` (and `GET /healthz` answers `503`
    /// until at least one model is warm).
    ///
    /// # Errors
    ///
    /// Same conditions as [`HttpServer::bind`], minus the pool spawn
    /// (pools belong to the registry's warm models).
    pub fn bind_registry(
        registry: Arc<ModelRegistry>,
        cfg: HttpConfig,
    ) -> Result<HttpServer, ScError> {
        Self::bind_target(Arc::new(ServeTarget::Registry(registry)), cfg)
    }

    fn bind_target(target: Arc<ServeTarget>, cfg: HttpConfig) -> Result<HttpServer, ScError> {
        if cfg.conn_workers == 0 {
            return Err(ScError::InvalidParam {
                name: "conn_workers",
                reason: "the server needs at least one connection-handler thread".into(),
            });
        }
        if cfg.keep_alive_requests == 0 {
            return Err(ScError::InvalidParam {
                name: "keep_alive_requests",
                reason: "a connection must be allowed at least one request".into(),
            });
        }
        let sock_err = |addr: &str, e: std::io::Error| ScError::Io {
            path: addr.to_string(),
            reason: e.to_string(),
            not_found: false,
        };
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| sock_err(&cfg.addr, e))?;
        let addr = listener.local_addr().map_err(|e| sock_err(&cfg.addr, e))?;

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::new());
        let cfg = Arc::new(cfg);
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(cfg.conn_workers);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let spawn_err = |name: &str, e: std::io::Error| ScError::Io {
            path: format!("thread {name}"),
            reason: e.to_string(),
            not_found: false,
        };
        let mut workers = Vec::with_capacity(cfg.conn_workers);
        for i in 0..cfg.conn_workers {
            let rx = Arc::clone(&conn_rx);
            let target = Arc::clone(&target);
            let metrics = Arc::clone(&metrics);
            let cfg = Arc::clone(&cfg);
            let stop = Arc::clone(&stop);
            let name = format!("ascend-http-{i}");
            workers.push(
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || conn_worker(&rx, &target, &metrics, &cfg, &stop))
                    .map_err(|e| spawn_err(&name, e))?,
            );
        }
        let accept = {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let write_timeout = cfg.write_timeout;
            std::thread::Builder::new()
                .name("ascend-http-accept".into())
                .spawn(move || accept_loop(listener, &conn_tx, &stop, &metrics, write_timeout))
                .map_err(|e| spawn_err("ascend-http-accept", e))?
        };
        let shutdown = ShutdownHandle { stop, wake_addr: wake_addr(addr) };
        Ok(HttpServer { addr, shutdown, metrics, target, accept: Some(accept), workers })
    }

    /// The address the listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The session this server fronts (`None` in registry mode).
    pub fn session(&self) -> Option<&Arc<Session>> {
        match &*self.target {
            ServeTarget::Single(session) => Some(session),
            ServeTarget::Registry(_) => None,
        }
    }

    /// The model registry this server fronts (`None` in single-session
    /// mode).
    pub fn registry(&self) -> Option<&Arc<ModelRegistry>> {
        match &*self.target {
            ServeTarget::Single(_) => None,
            ServeTarget::Registry(registry) => Some(registry),
        }
    }

    /// A clonable handle that can stop the server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Graceful drain: shut down (if not already), let handlers finish
    /// their in-flight work, and join every thread. The accept thread is
    /// woken again every few milliseconds until it has exited, so one
    /// failed wake-up connect cannot hang the join. Also triggered by
    /// `Drop`; calling it explicitly just makes shutdown visible at the
    /// call site.
    pub fn join(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.shutdown.shutdown();
        if let Some(accept) = self.accept.take() {
            while !accept.is_finished() {
                std::thread::sleep(WAKE_RETRY);
                if !accept.is_finished() {
                    self.shutdown.wake();
                }
            }
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The address a self-connect uses to reach a listener bound to `addr`:
/// the loopback of the same family when `addr` is unspecified
/// (`0.0.0.0` or `[::]`), which is not a connectable destination.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Blocks in `accept`, handing sockets to the worker channel; a full
/// channel means every handler is busy and the backlog is taken, so the
/// connection is shed with a `503` instead of queueing without bound.
/// An accept that returns after the stop flag is set (the shutdown
/// wake-up, or a late client) drops its socket and exits, which closes
/// the listener and drops the sender so workers drain the backlog and
/// exit too.
fn accept_loop(
    listener: TcpListener,
    conn_tx: &SyncSender<TcpStream>,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
    write_timeout: Duration,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Counted before the send, so the handler's decrement
                // after its receive can never run first.
                metrics.conn_backlog.inc();
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        metrics.conn_backlog.dec();
                        metrics.conn_shed.inc();
                        shed_connection(stream, write_timeout);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            // Transient accept failures (e.g. per-connection resource
            // limits) must not kill the listener, nor spin on it.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Best-effort `503` on a connection there is no handler capacity for;
/// the request is unread, so the close lingers.
fn shed_connection(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let response = Response::text(503, "server at connection capacity; retry later")
        .with_header("retry-after", "1");
    if response.write_to(&mut stream, true).is_ok() {
        linger_close(&mut stream);
    }
}

/// Closes a connection whose request may still be unread without
/// destroying the answer already written to it. Dropping a socket with
/// unread input makes the kernel reset the connection, and the reset can
/// discard the answer before the client reads it. So the server
/// half-closes, then discards input until the client closes, stays
/// silent for [`LINGER_IDLE`], or [`LINGER_BUDGET`] has passed.
fn linger_close(stream: &mut TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    #[expect(clippy::disallowed_methods, reason = "bounds the discard on a closing socket; never reaches a response or a metric")]
    let started = Instant::now();
    let mut discard = [0u8; 16 * 1024];
    loop {
        let left = LINGER_BUDGET.saturating_sub(started.elapsed());
        if left.is_zero() || stream.set_read_timeout(Some(left.min(LINGER_IDLE))).is_err() {
            return;
        }
        if !matches!(stream.read(&mut discard), Ok(n) if n > 0) {
            return;
        }
    }
}

/// A connection-handler thread: pull sockets until the channel closes.
fn conn_worker(
    rx: &Mutex<Receiver<TcpStream>>,
    target: &ServeTarget,
    metrics: &ServerMetrics,
    cfg: &HttpConfig,
    stop: &AtomicBool,
) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            // ascend-lint: allow(no-blocking-under-lock) -- the handler pull point: the receiver mutex only serializes recv() across connection workers and is dropped before the socket is served
            match guard.recv() {
                Ok(stream) => stream,
                Err(_) => break, // accept loop gone: shutdown
            }
        };
        metrics.conn_backlog.dec();
        metrics.connections.inc();
        metrics.handlers_busy.inc();
        handle_connection(stream, target, metrics, cfg, stop);
        metrics.handlers_busy.dec();
    }
}

/// Runs one connection's keep-alive loop to completion.
fn handle_connection(
    mut stream: TcpStream,
    target: &ServeTarget,
    metrics: &ServerMetrics,
    cfg: &HttpConfig,
    stop: &AtomicBool,
) {
    // The read deadline is armed per request by `await_request`.
    if stream.set_write_timeout(Some(cfg.write_timeout)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let limits = Limits {
        max_header_bytes: cfg.max_header_bytes,
        max_headers: cfg.max_headers,
        max_body_bytes: cfg.max_body_bytes,
    };

    for served in 0..cfg.keep_alive_requests {
        // During drain, finish what was started but take nothing new.
        if stop.load(Ordering::SeqCst) && served > 0 {
            break;
        }
        if let Err(e) = await_request(&mut reader, cfg) {
            respond_parse_error(&mut stream, metrics, &e);
            return;
        }
        let request = match http1::read_request(&mut reader, &limits) {
            Ok(request) => request,
            Err(e) => {
                respond_parse_error(&mut stream, metrics, &e);
                return;
            }
        };
        let last = served + 1 == cfg.keep_alive_requests;
        let (response, served_infer) = route(&request, target, metrics);
        // Decide keep-alive AFTER serving: a shutdown that lands while
        // this request was in flight must close (and announce it) now,
        // and so must a handler that a backlogged connection waits for,
        // or one keep-alive client could hold it indefinitely.
        let close = last
            || request.wants_close()
            || stop.load(Ordering::SeqCst)
            || metrics.conn_backlog.get() > 0;
        match served_infer {
            Some((timing, images)) => metrics.record_served(timing, images),
            None => metrics.record_status(response.status),
        }
        if response.write_to(&mut stream, close).is_err() || close {
            return;
        }
    }
}

/// Waits at most [`IDLE_TIMEOUT`] (capped at `read_timeout`) for the first
/// byte of the next request, then arms `read_timeout` as the deadline
/// for the rest of it. Bytes already buffered (a pipelined request) need
/// no wait. A peer that closes or stays silent is [`ParseError::Idle`]:
/// a quiet close.
fn await_request(reader: &mut BufReader<TcpStream>, cfg: &HttpConfig) -> Result<(), ParseError> {
    if !reader.buffer().is_empty() {
        return Ok(());
    }
    let idle = IDLE_TIMEOUT.min(cfg.read_timeout);
    reader.get_ref().set_read_timeout(Some(idle)).map_err(ParseError::Io)?;
    loop {
        match reader.fill_buf() {
            Ok([]) => return Err(ParseError::Idle),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if http1::is_timeout(&e) => return Err(ParseError::Idle),
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    reader.get_ref().set_read_timeout(Some(cfg.read_timeout)).map_err(ParseError::Io)
}

/// Answers a request-parse failure with the right status, always with
/// `Connection: close`, and lingers on the close, since the rest of the
/// request is unread. Idle and i/o failures close quietly and at once, so
/// an ended keep-alive connection is not held.
fn respond_parse_error(stream: &mut TcpStream, metrics: &ServerMetrics, e: &ParseError) {
    let response = match e {
        ParseError::Idle | ParseError::Io(_) => return,
        ParseError::Timeout => Response::text(408, "read deadline expired mid-request"),
        ParseError::BadRequest(msg) => Response::text(400, format!("bad request: {msg}")),
        ParseError::HeadersTooLarge => Response::text(431, "header block over limit"),
        ParseError::BodyTooLarge => Response::text(413, "body over limit"),
        ParseError::LengthRequired => Response::text(411, "content-length required"),
        ParseError::VersionUnsupported(v) => {
            Response::text(505, format!("only HTTP/1.1 is served, got {v}"))
        }
        ParseError::NotImplemented(what) => {
            Response::text(501, format!("`{what}` is not implemented"))
        }
    };
    metrics.record_status(response.status);
    if response.write_to(stream, true).is_ok() {
        linger_close(stream);
    }
}

/// Dispatches one parsed request; a `200` inference also returns the
/// queue-wait/service timing split and image count for metrics.
fn route(
    request: &Request,
    target: &ServeTarget,
    metrics: &ServerMetrics,
) -> (Response, Option<(JobTiming, usize)>) {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/v1/infer") => match target {
            ServeTarget::Single(session) => infer(request, session),
            ServeTarget::Registry(_) => (
                Response::text(
                    404,
                    "this server is multi-model: POST /v1/models/{name}/infer",
                ),
                None,
            ),
        },
        ("GET", "/v1/infer") | ("HEAD", "/v1/infer") => {
            (Response::text(405, "use POST").with_header("allow", "POST"), None)
        }
        ("GET", "/metrics") => (Response::text(200, render_metrics(target, metrics)), None),
        (_, "/metrics") => {
            (Response::text(405, "use GET").with_header("allow", "GET"), None)
        }
        ("GET", "/debug/trace") => (render_trace(target), None),
        (_, "/debug/trace") => {
            (Response::text(405, "use GET").with_header("allow", "GET"), None)
        }
        ("GET", "/") | ("GET", "/healthz") => (healthz(target), None),
        (method, path) if path.starts_with("/v1/models/") => {
            model_route(method, path, request, target)
        }
        _ => (Response::text(404, format!("no route for {}", request.target)), None),
    }
}

/// Routes `/v1/models/{name}/infer`: look the model up in the registry
/// (warming it on first use) and serve on its pool. Typed errors map to
/// HTTP statuses in [`registry_error_response`].
fn model_route(
    method: &str,
    path: &str,
    request: &Request,
    target: &ServeTarget,
) -> (Response, Option<(JobTiming, usize)>) {
    let ServeTarget::Registry(registry) = target else {
        return (
            Response::text(404, "this server fronts a single model: POST /v1/infer"),
            None,
        );
    };
    let rest = path.strip_prefix("/v1/models/").unwrap_or("");
    let Some((name, action)) = rest.split_once('/') else {
        return (Response::text(404, format!("no route for {path}")), None);
    };
    match (method, action) {
        ("POST", "infer") => match registry.acquire(name) {
            Ok(handle) => infer(request, handle.session()),
            Err(e) => (registry_error_response(&e), None),
        },
        ("GET", "infer") | ("HEAD", "infer") => {
            (Response::text(405, "use POST").with_header("allow", "POST"), None)
        }
        _ => (Response::text(404, format!("no route for {path}")), None),
    }
}

/// Maps a registry acquire failure to its HTTP status: unknown model or
/// missing artifact file is the client's problem (`404`), a model over
/// the memory budget is transient pressure (`503 Retry-After`), and a
/// corrupt artifact or other load failure is the server's (`500`).
fn registry_error_response(e: &ScError) -> Response {
    match e {
        ScError::UnknownModel { .. } => Response::text(404, e.to_string()),
        ScError::Io { not_found: true, .. } => {
            Response::text(404, format!("model artifact missing: {e}"))
        }
        ScError::BudgetExceeded { .. } => {
            Response::text(503, format!("warming over budget: {e}"))
                .with_header("retry-after", "1")
        }
        ScError::QueueFull { .. } | ScError::PoolGone => shed_response(e),
        ScError::InvalidParam { .. } => Response::text(400, format!("rejected: {e}")),
        _ => Response::text(500, format!("model load failed: {e}")),
    }
}

/// `GET /healthz`. Single-session mode is healthy once bound (the pool
/// was spawned eagerly). Registry mode reports one `name=state` line per
/// model and answers `503 Retry-After` until at least one model is warm,
/// so orchestrators never route traffic at a process that would eat the
/// first request's cold-load latency for every model.
fn healthz(target: &ServeTarget) -> Response {
    let registry = match target {
        ServeTarget::Single(_) => return Response::text(200, "ascend-http: ok"),
        ServeTarget::Registry(registry) => registry,
    };
    let states = registry.states();
    let mut body = String::new();
    let mut any_warm = false;
    for (name, state) in &states {
        any_warm |= *state == ModelState::Warm;
        body.push_str(&format!("{name}={}\n", state.as_str()));
    }
    if states.is_empty() {
        body.push_str("no models registered\n");
    }
    if any_warm {
        Response::text(200, body)
    } else {
        Response::text(503, body).with_header("retry-after", "1")
    }
}

/// The `/metrics` body: server counters and the request-latency histogram,
/// followed by the pool's own registry (queue-wait and service-time
/// histograms), so one scrape covers the whole request path. In registry
/// mode the pool gauges are summed across warm models, the registry's
/// per-model block (state/resident/loads/evictions) follows, and each
/// warm pool renders its own histograms under a `# model` marker.
fn render_metrics(target: &ServeTarget, metrics: &ServerMetrics) -> String {
    let registry = match target {
        ServeTarget::Single(session) => {
            // The pool exists (bind() spawned it); a failure here means it
            // could not spawn at all, which bind() already surfaced.
            return match session.runner() {
                Ok(pool) => {
                    let mut out = metrics.render(
                        pool.queued(),
                        pool.queue_capacity(),
                        pool.in_flight(),
                        pool.workers(),
                    );
                    out.push_str(&pool.obs().render());
                    out
                }
                Err(e) => format!("# pool unavailable: {e}\n"),
            };
        }
        ServeTarget::Registry(registry) => registry,
    };
    let handles = registry.warm_handles();
    let (mut queued, mut capacity, mut in_flight, mut workers) = (0usize, 0usize, 0usize, 0usize);
    let mut pools = Vec::new();
    for handle in &handles {
        if let Ok(pool) = handle.session().runner() {
            queued += pool.queued();
            capacity += pool.queue_capacity();
            in_flight += pool.in_flight();
            workers += pool.workers();
            pools.push((handle.name(), pool));
        }
    }
    let mut out = metrics.render(queued, capacity, in_flight, workers);
    out.push_str(&registry.metrics_render());
    for (name, pool) in pools {
        out.push_str(&format!("# model {name} pool\n"));
        out.push_str(&pool.obs().render());
    }
    out
}

/// The `GET /debug/trace` body: the pool's recent request spans as
/// chrome://tracing JSON (load it via `chrome://tracing` or Perfetto).
/// Registry mode concatenates the warm models' spans.
fn render_trace(target: &ServeTarget) -> Response {
    match target {
        ServeTarget::Single(session) => match session.runner() {
            Ok(pool) => Response::json(200, pool.obs().trace().to_chrome_json()),
            Err(e) => Response::text(500, format!("pool unavailable: {e}")),
        },
        ServeTarget::Registry(registry) => {
            let handles = registry.warm_handles();
            let spans: Vec<String> = handles
                .iter()
                .filter_map(|h| Some(h.session().runner().ok()?.obs().trace().to_chrome_json()))
                .collect();
            Response::json(200, format!("[{}]", spans.join(",")))
        }
    }
}

/// Runs `POST /v1/infer`: decode, **non-blocking** admission, collect,
/// encode. The admission policy is the whole point: `try_submit` answers
/// a full queue with `503 Retry-After` immediately instead of blocking
/// this socket thread until the pool drains.
fn infer(request: &Request, session: &Session) -> (Response, Option<(JobTiming, usize)>) {
    let vit = session.backend().vit_config();
    let (patches, images) = match crate::decode_infer_request(&request.body, vit) {
        Ok(decoded) => decoded,
        Err(e) => return (Response::text(400, format!("bad payload: {e}")), None),
    };
    let pool = match session.runner() {
        Ok(pool) => pool,
        Err(e) => return (shed_response(&e), None),
    };
    // The trace id is minted here, at admission: a request the pool refuses
    // (shed below) dies with its id and must leave no spans behind.
    let trace = TraceId::mint();
    let handle = match pool.try_submit(ServeRequest::new(patches, images).with_trace(trace)) {
        Ok(handle) => handle,
        Err(e @ (ScError::QueueFull { .. } | ScError::PoolGone)) => {
            return (shed_response(&e), None)
        }
        Err(e) => return (Response::text(400, format!("rejected: {e}")), None),
    };
    match handle.collect() {
        Ok((logits, timing)) => {
            let body = crate::encode_logits(&logits, images, vit.classes);
            (Response::binary(200, body), Some((timing, images)))
        }
        Err(ScError::PoolGone) => (shed_response(&ScError::PoolGone), None),
        Err(e) => (Response::text(500, format!("inference failed: {e}")), None),
    }
}

/// The `503 Retry-After` load-shedding response.
fn shed_response(e: &ScError) -> Response {
    Response::text(503, format!("shed: {e}")).with_header("retry-after", "1")
}
