//! `loadgen` — the self-hosted stress smoke for `ascend-http`.
//!
//! Boots an [`HttpServer`] in-process over a saved artifact, then hammers
//! it with keep-alive connections and verifies the serving contract under
//! overload:
//!
//! * every request is answered `200` or shed with `503 Retry-After` —
//!   nothing is dropped without a response and nothing hangs;
//! * every `200` body is byte-identical to the in-process serial forward
//!   of the same payload (the pool's bit-identity contract survives the
//!   wire);
//! * `/metrics` is live at the end of the run;
//! * graceful drain completes (shutdown + join returns).
//!
//! Exit status is non-zero when any of those fail, so CI can run this
//! directly as a gate:
//!
//! ```text
//! loadgen --engine target/smoke/engine.sceng \
//!         --requests 200 --connections 8 --workers 2 --queue-depth 2
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::io::BufReader;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascend::serve::ServeReport;
use ascend::{BackendKind, Session};
use ascend_http::{client, HttpConfig, HttpServer};

struct Args {
    engine: String,
    /// Registry mode: `--artifact name=path` pairs (replaces `--engine`).
    artifacts: Vec<(String, String)>,
    /// Round-robin request targets in registry mode (default: every
    /// registered model, in registration order).
    models: Vec<String>,
    /// Registry memory budget: byte count, or `single` for
    /// "largest model only" (forces LRU eviction under round-robin).
    budget: Option<String>,
    backend: BackendKind,
    connections: usize,
    requests: usize,
    images: usize,
    workers: usize,
    queue_depth: usize,
    conn_workers: usize,
    trace: bool,
    bench_json: Option<String>,
}

const USAGE: &str = "\
loadgen — stress smoke for the ascend-http serving front-end

usage:
    loadgen --engine PATH [options]
    loadgen --artifact NAME=PATH [--artifact NAME=PATH ...] [options]

options:
    --engine PATH       engine or checkpoint artifact to serve (required
                        unless --artifact is given)
    --artifact N=P      registry mode: host model N from artifact P behind
                        POST /v1/models/N/infer (repeatable)
    --model NAME        registry mode: round-robin requests across these
                        models (repeatable; default: all registered models)
    --budget B          registry mode: memory budget in bytes, or `single`
                        to admit only the largest model at a time (forces
                        LRU eviction; the run fails if none happens)
    --backend sc|ref    inference backend (sc; ref needs a checkpoint)
    --requests N        total requests across all connections (200)
    --connections N     concurrent keep-alive client connections (8)
    --images N          images per request (1)
    --workers N         serving-pool worker threads (2)
    --queue-depth N     bounded admission queue depth (2; small forces shedding)
    --conn-workers N    server connection-handler threads (4)
    --trace             fetch /debug/trace after the storm and verify the
                        chrome://tracing export covers exactly the 200s
    --bench-json PATH   merge a \"loadgen\" record (images/s, latency and
                        queue-wait percentiles, shed counts) into the JSON
                        object at PATH (e.g. BENCH_serve.json)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        engine: String::new(),
        artifacts: Vec::new(),
        models: Vec::new(),
        budget: None,
        backend: BackendKind::Sc,
        connections: 8,
        requests: 200,
        images: 1,
        workers: 2,
        queue_depth: 2,
        conn_workers: 4,
        trace: false,
        bench_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.into());
        }
        if flag == "--trace" {
            args.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
        let parse = |v: &str| v.parse::<usize>().map_err(|_| format!("bad number for {flag}: {v}"));
        match flag.as_str() {
            "--engine" => args.engine = value,
            "--artifact" => {
                let Some((name, path)) = value.split_once('=') else {
                    return Err(format!("--artifact expects NAME=PATH, got `{value}`"));
                };
                if name.is_empty() || path.is_empty() {
                    return Err(format!("--artifact expects NAME=PATH, got `{value}`"));
                }
                args.artifacts.push((name.to_string(), path.to_string()));
            }
            "--model" => args.models.push(value),
            "--budget" => args.budget = Some(value),
            "--backend" => {
                args.backend = match value.as_str() {
                    "sc" => BackendKind::Sc,
                    "ref" => BackendKind::Ref,
                    other => return Err(format!("unknown backend {other} (want sc|ref)")),
                }
            }
            "--requests" => args.requests = parse(&value)?,
            "--connections" => args.connections = parse(&value)?,
            "--images" => args.images = parse(&value)?,
            "--workers" => args.workers = parse(&value)?,
            "--queue-depth" => args.queue_depth = parse(&value)?,
            "--conn-workers" => args.conn_workers = parse(&value)?,
            "--bench-json" => args.bench_json = Some(value),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if args.artifacts.is_empty() {
        if args.engine.is_empty() {
            return Err(format!("--engine is required\n\n{USAGE}"));
        }
        if !args.models.is_empty() || args.budget.is_some() {
            return Err("--model and --budget only apply with --artifact".into());
        }
    } else if !args.engine.is_empty() {
        return Err("--engine and --artifact are mutually exclusive".into());
    }
    for model in &args.models {
        if !args.artifacts.iter().any(|(n, _)| n == model) {
            return Err(format!("--model {model} names no registered --artifact"));
        }
    }
    if args.requests == 0 || args.connections == 0 || args.images == 0 {
        return Err("--requests, --connections, and --images must be nonzero".into());
    }
    Ok(args)
}

/// One round-robin request target: the URL path plus the payload it
/// carries and the serial-forward bytes every 200 must equal.
struct Target {
    path: String,
    payload: Vec<u8>,
    expected: Vec<u8>,
}

/// Everything one client thread tallies.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    shed: AtomicU64,
    shed_without_retry_after: AtomicU64,
    unexpected_status: AtomicU64,
    body_mismatch: AtomicU64,
    io_failures: AtomicU64,
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if !args.artifacts.is_empty() {
        return run_registry(args);
    }

    // The served session: bounded queue so overload actually sheds.
    let session = Session::builder()
        .artifact(&args.engine)
        .backend(args.backend)
        .workers(args.workers)
        .queue_depth(args.queue_depth)
        .build()
        .map_err(|e| format!("session build failed: {e}"))?;
    let session = Arc::new(session);

    // The canonical payload every request carries, and — computed through
    // the plain serial forward, no pool — the bytes every 200 must equal.
    let vit = session.backend().vit_config();
    let values = args.images * vit.num_patches() * vit.patch_dim();
    let patches: Vec<f32> =
        (0..values).map(|i| (i % 17) as f32 * 0.0625 - 0.5).collect();
    let payload = ascend_http::encode_infer_request(&patches, args.images);
    let (tensor, images) = ascend_http::decode_infer_request(&payload, vit)
        .map_err(|e| format!("self-check: payload does not decode: {e}"))?;
    let serial = session
        .backend()
        .forward(&tensor, images)
        .map_err(|e| format!("serial reference forward failed: {e}"))?;
    let expected = ascend_http::encode_logits(&serial, images, vit.classes);
    let targets =
        Arc::new(vec![Target { path: "/v1/infer".into(), payload, expected }]);

    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.conn_workers = args.conn_workers;
    let server = HttpServer::bind(Arc::clone(&session), cfg)
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    eprintln!(
        "loadgen: serving {} on {addr} ({} pool workers, queue depth {})",
        session.backend().name(),
        args.workers,
        args.queue_depth,
    );

    let tally = Arc::new(Tally::default());
    let next = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(std::sync::Mutex::new(Vec::with_capacity(args.requests)));
    let started = Instant::now();

    let mut clients = Vec::with_capacity(args.connections);
    for _ in 0..args.connections {
        let tally = Arc::clone(&tally);
        let next = Arc::clone(&next);
        let targets = Arc::clone(&targets);
        let latencies = Arc::clone(&latencies);
        clients.push(std::thread::spawn(move || {
            client_loop(addr, args.requests, &next, &targets, &tally, &latencies);
        }));
    }
    for c in clients {
        let _ = c.join();
    }
    let wall = started.elapsed();

    // /metrics must be live after the storm.
    let metrics_text = fetch_text(addr, "/metrics")?;
    let trace_json = if args.trace { Some(fetch_text(addr, "/debug/trace")?) } else { None };

    // Graceful drain: this returning IS the assertion.
    server.shutdown_handle().shutdown();
    server.join();

    let ok = tally.ok.load(Ordering::Relaxed);
    let shed = tally.shed.load(Ordering::Relaxed);
    let lat = {
        let mut guard = latencies.lock().map_err(|_| "latency lock poisoned".to_string())?;
        std::mem::take(&mut *guard)
    };
    let report = ServeReport::from_parts(lat, wall, ok as usize * args.images, args.workers);
    eprintln!(
        "loadgen: {} requests in {:.2}s — {ok} ok, {shed} shed (503), \
         p50 {:?}, p95 {:?}, {:.1} images/s",
        args.requests,
        wall.as_secs_f64(),
        report.latency_percentile(50.0),
        report.latency_percentile(95.0),
        report.throughput(),
    );
    eprintln!("loadgen: final /metrics:\n{metrics_text}");

    let mut failures = Vec::new();
    if ok + shed != args.requests as u64 {
        failures.push(format!(
            "{} of {} requests got neither 200 nor 503",
            args.requests as u64 - (ok + shed),
            args.requests
        ));
    }
    if ok == 0 {
        failures.push("no request succeeded at all".into());
    }
    for (count, what) in [
        (tally.unexpected_status.load(Ordering::Relaxed), "unexpected status"),
        (tally.body_mismatch.load(Ordering::Relaxed), "200 body != serial forward bytes"),
        (tally.shed_without_retry_after.load(Ordering::Relaxed), "503 without Retry-After"),
        (tally.io_failures.load(Ordering::Relaxed), "request dropped on i/o error"),
    ] {
        if count > 0 {
            failures.push(format!("{count} × {what}"));
        }
    }
    if !metrics_text.contains("ascend_http_responses_ok_total") {
        failures.push("/metrics response lacks counters".into());
    }
    if !metrics_text.contains("# TYPE ascend_request_queue_wait_seconds histogram") {
        failures.push("/metrics response lacks the queue-wait histogram".into());
    }
    if let Some(json) = &trace_json {
        check_trace(json, ok, &mut failures);
    }
    if let Some(path) = &args.bench_json {
        let obs = session
            .runner()
            .map_err(|e| format!("pool unavailable for bench record: {e}"))?
            .obs();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let record = ascend_obs::BenchRecord::new("loadgen")
            .num("images_per_s", report.throughput())
            .num("p50_ms", ms(report.latency_percentile(50.0)))
            .num("p95_ms", ms(report.latency_percentile(95.0)))
            .num("p99_ms", ms(report.latency_percentile(99.0)))
            .num("queue_wait_p50_ms", ms(obs.queue_wait().snapshot().percentile(50.0)))
            .num("queue_wait_p95_ms", ms(obs.queue_wait().snapshot().percentile(95.0)))
            .num("service_p50_ms", ms(obs.service().snapshot().percentile(50.0)))
            .num("service_p95_ms", ms(obs.service().snapshot().percentile(95.0)))
            .num("wall_s", wall.as_secs_f64())
            .int("ok", ok)
            .int("shed", shed)
            .int("requests", args.requests as u64)
            .int("connections", args.connections as u64)
            .int("workers", args.workers as u64)
            .int("images_per_request", args.images as u64)
            .text("backend", session.backend().name());
        record
            .write_merged(std::path::Path::new(path))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("loadgen: merged \"loadgen\" record into {path}");
    }
    if failures.is_empty() {
        eprintln!("loadgen: PASS");
        Ok(())
    } else {
        Err(format!("loadgen: FAIL\n  {}", failures.join("\n  ")))
    }
}

/// Registry mode: host every `--artifact` behind one listener, round-robin
/// the storm across `--model` targets, and — on top of the single-model
/// contract — verify the multi-model one:
///
/// * every model's 200 bodies are byte-identical to a serial forward of
///   that model, even while LRU eviction thrashes residency;
/// * with a `--budget` and ≥2 trafficked models, at least one eviction
///   actually happened (the budget was not silently ignored);
/// * `/metrics` carries the per-model registry gauges at the end.
fn run_registry(args: Args) -> Result<(), String> {
    use ascend_registry::{ModelRegistry, ModelSpec, RegistryConfig};

    let serve_cfg = ascend::serve::ServeConfig {
        workers: args.workers,
        micro_batch: 4,
        queue_depth: args.queue_depth,
    };

    // Per-model payloads and expected bodies from throwaway serial
    // sessions, computed before the server exists so the reference is
    // independent of everything under test. Also each model's resident
    // size, which `--budget single` needs.
    let mut per_model: Vec<(String, Vec<u8>, Vec<u8>)> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for (name, path) in &args.artifacts {
        let session = Session::builder()
            .artifact(path)
            .backend(args.backend)
            .build()
            .map_err(|e| format!("model `{name}`: serial session build failed: {e}"))?;
        let vit = session.backend().vit_config();
        let values = args.images * vit.num_patches() * vit.patch_dim();
        let patches: Vec<f32> =
            (0..values).map(|i| (i % 17) as f32 * 0.0625 - 0.5).collect();
        let payload = ascend_http::encode_infer_request(&patches, args.images);
        let (tensor, images) = ascend_http::decode_infer_request(&payload, vit)
            .map_err(|e| format!("model `{name}`: payload does not decode: {e}"))?;
        let serial = session
            .backend()
            .forward(&tensor, images)
            .map_err(|e| format!("model `{name}`: serial forward failed: {e}"))?;
        let expected = ascend_http::encode_logits(&serial, images, vit.classes);
        sizes.push(session.backend().resident_bytes());
        per_model.push((name.clone(), payload, expected));
    }

    let budget_bytes = match args.budget.as_deref() {
        None => 0,
        // `artifacts` is non-empty here (parse_args requires it), so the
        // max exists; an empty list would mean "unlimited", which is safe.
        Some("single") => sizes.iter().copied().max().unwrap_or(0),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--budget wants a byte count or `single`, got `{v}`"))?,
    };

    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: budget_bytes,
        ..Default::default()
    }));
    for (name, path) in &args.artifacts {
        registry
            .register(ModelSpec::artifact(name.as_str(), path.as_str()).backend(args.backend).serve(serve_cfg))
            .map_err(|e| format!("registering `{name}`: {e}"))?;
    }

    let model_names: Vec<String> = if args.models.is_empty() {
        args.artifacts.iter().map(|(n, _)| n.clone()).collect()
    } else {
        args.models.clone()
    };
    let mut targets = Vec::with_capacity(model_names.len());
    for name in &model_names {
        let (_, payload, expected) = per_model
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| format!("--model {name} names no registered --artifact"))?;
        targets.push(Target {
            path: format!("/v1/models/{name}/infer"),
            payload: payload.clone(),
            expected: expected.clone(),
        });
    }
    let targets = Arc::new(targets);

    let mut cfg = HttpConfig::new("127.0.0.1:0");
    cfg.conn_workers = args.conn_workers;
    let server = HttpServer::bind_registry(Arc::clone(&registry), cfg)
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    eprintln!(
        "loadgen: registry of {} models on {addr} (round-robin over {:?}, budget {})",
        args.artifacts.len(),
        model_names,
        if budget_bytes == 0 { "unlimited".to_string() } else { format!("{budget_bytes} B") },
    );

    let tally = Arc::new(Tally::default());
    let next = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(std::sync::Mutex::new(Vec::with_capacity(args.requests)));
    let started = Instant::now();
    let mut clients = Vec::with_capacity(args.connections);
    for _ in 0..args.connections {
        let tally = Arc::clone(&tally);
        let next = Arc::clone(&next);
        let targets = Arc::clone(&targets);
        let latencies = Arc::clone(&latencies);
        clients.push(std::thread::spawn(move || {
            client_loop(addr, args.requests, &next, &targets, &tally, &latencies);
        }));
    }
    for c in clients {
        let _ = c.join();
    }
    let wall = started.elapsed();

    let metrics_text = fetch_text(addr, "/metrics")?;

    // Graceful drain: this returning IS the assertion.
    server.shutdown_handle().shutdown();
    server.join();

    let ok = tally.ok.load(Ordering::Relaxed);
    let shed = tally.shed.load(Ordering::Relaxed);
    let evictions: u64 = args
        .artifacts
        .iter()
        .map(|(n, _)| registry.evictions_total(n).unwrap_or(0))
        .sum();
    let loads: u64 =
        args.artifacts.iter().map(|(n, _)| registry.loads_total(n).unwrap_or(0)).sum();
    let lat = {
        let mut guard = latencies.lock().map_err(|_| "latency lock poisoned".to_string())?;
        std::mem::take(&mut *guard)
    };
    let report = ServeReport::from_parts(lat, wall, ok as usize * args.images, args.workers);
    eprintln!(
        "loadgen: {} requests in {:.2}s — {ok} ok, {shed} shed (503), \
         {loads} model loads, {evictions} evictions, {:.1} images/s",
        args.requests,
        wall.as_secs_f64(),
        report.throughput(),
    );

    let mut failures = Vec::new();
    if ok + shed != args.requests as u64 {
        failures.push(format!(
            "{} of {} requests got neither 200 nor 503",
            args.requests as u64 - (ok + shed),
            args.requests
        ));
    }
    if ok == 0 {
        failures.push("no request succeeded at all".into());
    }
    for (count, what) in [
        (tally.unexpected_status.load(Ordering::Relaxed), "unexpected status"),
        (tally.body_mismatch.load(Ordering::Relaxed), "200 body != serial forward bytes"),
        (tally.shed_without_retry_after.load(Ordering::Relaxed), "503 without Retry-After"),
        (tally.io_failures.load(Ordering::Relaxed), "request dropped on i/o error"),
    ] {
        if count > 0 {
            failures.push(format!("{count} × {what}"));
        }
    }
    for (name, _) in &args.artifacts {
        if !metrics_text.contains(&format!("ascend_model_state{{model=\"{name}\"}}")) {
            failures.push(format!("/metrics lacks the state gauge for model `{name}`"));
        }
    }
    if !metrics_text.contains("ascend_registry_resident_bytes") {
        failures.push("/metrics lacks the registry residency gauge".into());
    }
    if budget_bytes > 0 && model_names.len() >= 2 && evictions == 0 {
        failures.push(format!(
            "budget {budget_bytes} B with {} round-robin models forced no eviction",
            model_names.len()
        ));
    }

    if let Some(path) = &args.bench_json {
        // Cold-load vs lazy shared-load on a throwaway registry: two
        // names over one artifact, so the second acquire hits the
        // weak-cache and shares the first's weights instead of reading
        // the file again.
        let artifact = &args.artifacts[0].1;
        let probe = ModelRegistry::new(RegistryConfig::default());
        for name in ["cold-probe", "shared-probe"] {
            probe
                .register(
                    ModelSpec::artifact(name, artifact.as_str())
                        .backend(args.backend)
                        .serve(serve_cfg),
                )
                .map_err(|e| format!("bench probe register failed: {e}"))?;
        }
        let t0 = Instant::now();
        probe.acquire("cold-probe").map_err(|e| format!("bench cold load failed: {e}"))?;
        let cold = t0.elapsed();
        let t1 = Instant::now();
        probe.acquire("shared-probe").map_err(|e| format!("bench shared load failed: {e}"))?;
        let shared = t1.elapsed();

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let record = ascend_obs::BenchRecord::new("registry")
            .num("cold_load_ms", ms(cold))
            .num("shared_load_ms", ms(shared))
            .num("images_per_s", report.throughput())
            .num("p50_ms", ms(report.latency_percentile(50.0)))
            .num("p95_ms", ms(report.latency_percentile(95.0)))
            .num("wall_s", wall.as_secs_f64())
            .int("ok", ok)
            .int("shed", shed)
            .int("model_loads", loads)
            .int("evictions", evictions)
            .int("models", args.artifacts.len() as u64)
            .int("requests", args.requests as u64)
            .int("budget_bytes", budget_bytes as u64);
        record
            .write_merged(std::path::Path::new(path))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("loadgen: merged \"registry\" record into {path}");
    }

    if failures.is_empty() {
        eprintln!("loadgen: PASS");
        Ok(())
    } else {
        Err(format!("loadgen: FAIL\n  {}", failures.join("\n  ")))
    }
}

/// One client thread: keep a connection alive, claim request slots off
/// the shared counter (round-robin over `targets` by slot number), and
/// tally every outcome. Reconnects when the server closes the connection
/// (keep-alive cap, shed, or drain).
fn client_loop(
    addr: std::net::SocketAddr,
    total: usize,
    next: &AtomicUsize,
    targets: &[Target],
    tally: &Tally,
    latencies: &std::sync::Mutex<Vec<Duration>>,
) {
    let mut conn: Option<(BufReader<TcpStream>, TcpStream)> = None;
    loop {
        let slot = next.fetch_add(1, Ordering::Relaxed);
        if slot >= total {
            break;
        }
        let target = &targets[slot % targets.len()];
        // Each claimed slot gets a few attempts so a connection the
        // server closed under us (keep-alive cap) is retried, but a
        // genuinely dead server cannot loop forever.
        let mut answered = false;
        for _attempt in 0..3 {
            if conn.is_none() {
                conn = connect(addr);
            }
            let Some((reader, writer)) = conn.as_mut() else {
                continue;
            };
            let sent = Instant::now();
            if client::write_request(writer, "POST", &target.path, &target.payload, false)
                .is_err()
            {
                conn = None;
                continue;
            }
            let response = match client::read_response(reader) {
                Ok(r) => r,
                Err(_) => {
                    conn = None;
                    continue;
                }
            };
            match response.status {
                200 => {
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                    if response.body != target.expected {
                        tally.body_mismatch.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Ok(mut guard) = latencies.lock() {
                        guard.push(sent.elapsed());
                    }
                }
                503 => {
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                    if response.header("retry-after").is_none() {
                        tally.shed_without_retry_after.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    tally.unexpected_status.fetch_add(1, Ordering::Relaxed);
                }
            }
            if response.wants_close() {
                conn = None;
            }
            answered = true;
            break;
        }
        if !answered {
            tally.io_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> Option<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    stream.set_write_timeout(Some(Duration::from_secs(10))).ok()?;
    let reader = BufReader::new(stream.try_clone().ok()?);
    Some((reader, stream))
}

fn fetch_text(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    let (mut reader, mut writer) =
        connect(addr).ok_or_else(|| format!("could not connect for {path}"))?;
    client::write_request(&mut writer, "GET", path, &[], true)
        .map_err(|e| format!("{path} write failed: {e}"))?;
    let response =
        client::read_response(&mut reader).map_err(|e| format!("{path} read failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("{path} answered {}", response.status));
    }
    String::from_utf8(response.body).map_err(|_| format!("{path} body is not utf-8"))
}

/// Validates the `/debug/trace` chrome://tracing export against the run's
/// outcome: well-formed envelope, paired queue-wait/service spans, and —
/// because shed requests are never claimed by a worker — span counts that
/// match the number of 200s exactly (modulo the bounded ring).
fn check_trace(json: &str, ok: u64, failures: &mut Vec<String>) {
    if !json.starts_with("{\"traceEvents\":[") || !json.trim_end().ends_with('}') {
        failures.push("/debug/trace is not a chrome traceEvents object".into());
        return;
    }
    if !json.contains("\"displayTimeUnit\"") {
        failures.push("/debug/trace lacks displayTimeUnit".into());
    }
    let count = |needle: &str| json.matches(needle).count() as u64;
    let queue_spans = count("\"name\":\"queue_wait\"");
    let service_spans = count("\"name\":\"service\"");
    if queue_spans != service_spans {
        failures.push(format!(
            "trace has {queue_spans} queue_wait spans but {service_spans} service spans"
        ));
    }
    // The ring is bounded, so only expect exact coverage while it cannot
    // have wrapped; past that, it must still be non-empty.
    let ring = ascend::serve::TRACE_SPAN_CAPACITY as u64;
    if 2 * ok <= ring {
        if queue_spans != ok {
            failures.push(format!(
                "trace covers {queue_spans} requests but {ok} got a 200 \
                 (shed requests must leave no spans)"
            ));
        }
    } else if queue_spans == 0 && ok > 0 {
        failures.push("trace is empty despite served requests".into());
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
