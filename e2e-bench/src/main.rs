//! `e2e-bench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload offline-cifar|http-keepalive|http-churn \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets the system up 30 times (`setup_s` is their
//! median), warms up, then runs the workload's closed loop for `S`
//! seconds with tracing off and reports the end-to-end metrics
//! (`images_per_s` and the p99 latency as medians over chunks of at least
//! a thousand consecutive requests; see `stats::Latencies`). With
//! `--trace 1` it runs the workload untraced and then traced for `S/2`
//! seconds each, replays a sample of its requests through the server's
//! chain of public calls, probes the engine, kernels, registry and
//! artifact loader, and reports the per-layer metrics. Every output is
//! checked byte for byte against the serial forward of its payload; any
//! mismatch fails the run.
//!
//! `BENCHMARK.json` gates `offline-cifar` and `http-keepalive`, and not
//! the p99 latency: on a 2-vCPU virtual machine the tail moves with the
//! host's CPU steal by more than any allowed bound from one run to the
//! next. The p99 is still printed and recorded (with its sample count),
//! and the traced run reports it as `client.latency_p99_ms`. `http-churn`
//! runs the same way but is not gated, for the same reason.
//!
//! The metric names and units printed are the ones `BENCHMARK.json`
//! declares. The last line of standard output is the result object;
//! the full record (with run metadata) and, for traced runs, a
//! chrome://tracing file are written under the build directory.

mod artifacts;
mod json;
mod layers;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use ascend_obs::Stage;

use crate::json::Json;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{drive, setup, Fixture, Live, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 30;

/// Unmeasured closed-loop time before the measured window.
const WARMUP: Duration = Duration::from_millis(1000);

/// Fresh-socket samples behind `http.connect_us_p50`.
const FRESH_SOCKETS: usize = 20;

/// Requests replayed through the in-process chain in a traced run.
const REPLAY_REQUESTS: usize = 200;

/// The gap between the stage sum and the whole forward that gets flagged.
const STAGE_GAP_FLAG: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The metric names and units `BENCHMARK.json` declares.
struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json lacks {key}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                    field("name")
                        .zip(field("unit"))
                        .ok_or_else(|| format!("bad {key} entry"))
                })
                .collect()
        };
        Ok(Spec {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// What a run measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Declared metrics, by name.
    metrics: Vec<(&'static str, f64)>,
    /// Everything else the record keeps (sample counts, extra figures).
    details: Vec<(&'static str, Json)>,
    /// Extra human-readable lines (the per-layer table notes).
    notes: Vec<String>,
    chrome: Option<String>,
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// declared `metrics`, each with its unit.
fn result_json(
    declared: &[(String, String)],
    correct: bool,
    attempted: u64,
    failed: u64,
    measured: &[(&str, f64)],
) -> Result<Json, String> {
    for (name, _) in measured {
        if !declared.iter().any(|(d, _)| d == name) {
            return Err(format!(
                "measured metric {name} is not declared in BENCHMARK.json"
            ));
        }
    }
    let metrics = declared
        .iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|(m, _)| m == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("declared metric {name} was not measured"))?;
            Ok((
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.clone())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted)),
        ("failed".into(), Json::Int(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

fn run_e2e(fx: &Fixture, seconds: u64) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = live.take() {
            Live::stop(previous);
        }
        let (l, secs) = setup(fx)?;
        setup_s.push(secs);
        live = Some(l);
    }
    let live = live.ok_or("no set-up ran")?;
    let warm = drive(fx, &live, WARMUP, None);
    let mut phase = drive(fx, &live, Duration::from_secs(seconds), None);
    live.stop();

    let images_per_s = phase.images_per_s();
    let lat = &mut phase.latencies;
    let attempted = lat.attempted();
    let metrics = vec![
        ("images_per_s", images_per_s),
        (
            "latency_p50_ms",
            lat.percentile(50.0).unwrap_or(f64::INFINITY),
        ),
        ("setup_s", median(&setup_s).unwrap_or(0.0)),
        ("rss_peak_mb", rss_peak_mb()),
    ];
    let details = vec![
        (
            "failed_frac",
            Json::Num(lat.failures() as f64 / attempted.max(1) as f64),
        ),
        (
            "latency_p99_ms",
            Json::Num(lat.chunked_percentile(99.0).unwrap_or(f64::INFINITY)),
        ),
        ("latency_samples", Json::Int(attempted)),
        (
            "latency_chunks",
            Json::Int((attempted / stats::CHUNK as u64).max(1)),
        ),
        (
            "latency_p99_whole_run_ms",
            Json::Num(lat.percentile(99.0).unwrap_or(f64::INFINITY)),
        ),
        (
            "latency_p99_samples_beyond",
            Json::Int(stats::beyond(attempted as usize, 99.0) as u64),
        ),
        (
            "latency_p99_supported",
            Json::Bool(stats::supported(attempted as usize, 99.0)),
        ),
        (
            "setup_samples_s",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("wall_s", Json::Num(phase.wall.as_secs_f64())),
        ("images_correct", Json::Int(phase.correct_images)),
        ("mismatches", Json::Int(phase.mismatches + warm.mismatches)),
        ("warmup_failed", Json::Int(warm.latencies.failures())),
    ];
    let mut notes = Vec::new();
    if !stats::supported(attempted as usize, 99.0) {
        notes.push(format!(
            "note: latency_p99_ms rests on {attempted} samples, {} beyond it (fewer than {})",
            stats::beyond(attempted as usize, 99.0),
            stats::MIN_BEYOND
        ));
    }
    Ok(Outcome {
        correct: phase.mismatches + warm.mismatches == 0,
        attempted,
        failed: lat.failures(),
        metrics,
        details,
        notes,
        chrome: None,
    })
}

fn run_traced(fx: &Fixture, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let (live, _) = setup(fx)?;
    let warm = drive(fx, &live, WARMUP, None);
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let mut untraced = drive(fx, &live, half, None);

    let server = match &live {
        Live::Http(server) => Some(server),
        Live::Offline(_) => None,
    };
    let registry = server.and_then(|s| s.registry());
    let registry_counts = || {
        registry.map_or((0, 0), |r| {
            fx.models.iter().fold((0, 0), |(l, e), m| {
                (
                    l + r.loads_total(m.name).unwrap_or(0),
                    e + r.evictions_total(m.name).unwrap_or(0),
                )
            })
        })
    };
    let hist_before = server.map(|s| s.metrics().latency_snapshot());
    let (loads_before, evictions_before) = registry_counts();
    let tracer = Tracer::new();
    let mut traced = drive(fx, &live, half, Some(&tracer));
    let hist_after = server.map(|s| s.metrics().latency_snapshot());
    let (loads_after, evictions_after) = registry_counts();

    let fresh_us = match live.addr() {
        Some(addr) if traced.fresh_first_byte_us.len() < FRESH_SOCKETS => {
            let mut all = traced.fresh_first_byte_us.clone();
            all.extend(fresh_socket_probe(fx, addr, FRESH_SOCKETS - all.len()));
            all
        }
        _ => traced.fresh_first_byte_us.clone(),
    };
    let replay = layers::replay(fx, &live, &tracer, REPLAY_REQUESTS);
    let (has_server, has_registry) = (server.is_some(), registry.is_some());
    live.stop();

    let model = &fx.models[0];
    let engine = layers::engine_probe(model, fx)?;
    let kernel = layers::kernel_probe(&model.reference, seed)?;
    let (cold_ms, warm_us) = layers::registry_probe(model)?;
    let (load_ms, build_ms) = layers::artifact_probe(model)?;

    // The layer metrics come from the replay chain; the accounting of
    // latency_p50_ms from the chain the workload's own requests cross: the
    // replay for HTTP workloads (the server's path cannot be wrapped from
    // outside), the traced submit/collect calls for offline-cifar.
    let spans = tracer.spans();
    let (replay_spans, loop_spans): (Vec<_>, Vec<_>) = spans
        .iter()
        .cloned()
        .partition(|s| s.thread == layers::REPLAY_THREAD);
    let self_us = trace::self_us_by_name(&replay_spans);
    let layer_us = |name: &str| self_us.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    let (chain_spans, covered_root) = if fx.workload.is_http() {
        (&replay_spans, "replay")
    } else {
        (&loop_spans, "request")
    };
    let chain_us = trace::self_us_by_name(chain_spans);
    let covered_ms = trace::covered_ms(chain_spans, covered_root);

    let (untraced_ips, traced_ips) = (untraced.images_per_s(), traced.images_per_s());
    let latency_p50 = traced.latencies.percentile(50.0).unwrap_or(f64::INFINITY);
    let (server_p50, server_p99) = match (&hist_before, &hist_after) {
        (Some(b), Some(a)) => (
            layers::hist_delta_ms(b, a, 50.0),
            layers::hist_delta_ms(b, a, 99.0),
        ),
        _ => (0.0, 0.0),
    };
    let serve_timings = if fx.workload.is_http() {
        &replay.timings
    } else {
        &traced.timings
    };
    let [wait50, wait99, service50, service99] = layers::timing_percentiles(serve_timings);
    let loads = loads_after - loads_before;
    let acquires = if has_registry {
        traced.latencies.attempted()
    } else {
        0
    };
    let warm_hit_ratio = if acquires > 0 {
        acquires.saturating_sub(loads) as f64 / acquires as f64
    } else {
        0.0
    };
    let uncovered_ms = latency_p50 - median(&covered_ms).unwrap_or(0.0);
    let stage_gap =
        (engine.stage_sum_us() - engine.forward_mean_us).abs() / engine.forward_mean_us.max(1e-9);

    let mut metrics = vec![
        (
            "client.latency_p99_ms",
            traced
                .latencies
                .chunked_percentile(99.0)
                .unwrap_or(f64::INFINITY),
        ),
        ("http.server_p50_ms", server_p50),
        ("http.server_p99_ms", server_p99),
        (
            "http.wire_residual_p50_ms",
            if has_server {
                latency_p50 - server_p50
            } else {
                0.0
            },
        ),
        ("http.connect_us_p50", median(&fresh_us).unwrap_or(0.0)),
        ("http1.parse_us", layer_us("http1.read_request")),
        ("http1.write_us", layer_us("http1.write")),
        ("codec.decode_us", layer_us("codec.decode")),
        ("codec.encode_us", layer_us("codec.encode")),
        ("serve.queue_wait_p50_ms", wait50),
        ("serve.queue_wait_p99_ms", wait99),
        ("serve.service_p50_ms", service50),
        ("serve.service_p99_ms", service99),
        ("serve.jobs", serve_timings.len() as f64),
        (
            "serve.queue_full",
            (traced.queue_full + replay.queue_full) as f64,
        ),
        ("engine.forward_us_per_image", engine.forward_us),
        ("engine.stage_gap_frac", stage_gap),
        ("kernel.softmax_row_us", kernel.softmax_row_us),
        (
            "kernel.softmax_rows_per_image",
            kernel.softmax_rows_per_image,
        ),
        ("kernel.gelu_us_per_elem", kernel.gelu_us_per_elem),
        ("registry.acquire_cold_ms_p50", cold_ms),
        ("registry.acquire_warm_us_p50", warm_us),
        ("registry.loads", loads as f64),
        (
            "registry.evictions",
            (evictions_after - evictions_before) as f64,
        ),
        ("registry.warm_hit_ratio", warm_hit_ratio),
        ("artifact.load_ms", load_ms),
        ("session.build_ms", build_ms),
        (
            "trace.overhead_frac",
            (untraced_ips - traced_ips) / untraced_ips.max(1e-9),
        ),
        ("trace.uncovered_p50_ms", uncovered_ms),
    ];
    for (stage, us) in Stage::ALL.iter().zip(engine.stage_us) {
        metrics.push((stage_metric(*stage), us));
    }

    let mut notes = vec![format!(
        "stages: sum of the six stages {:.1} us/image beside the bare forward's {:.1} \
         (means over interleaved calls; gap {:.1}%{})",
        engine.stage_sum_us(),
        engine.forward_mean_us,
        stage_gap * 100.0,
        if stage_gap > STAGE_GAP_FLAG {
            " — FLAG: over 10%"
        } else {
            ""
        }
    )];
    notes.push(format!(
        "accounting: latency_p50_ms {latency_p50:.4} = layer spans {:.4} + uncovered {uncovered_ms:.4} \
         (layers from the {} chain)",
        median(&covered_ms).unwrap_or(0.0),
        if fx.workload.is_http() { "in-process replay" } else { "traced submit/collect" }
    ));
    let chain: Vec<String> = [
        "http1.read_request",
        "registry.acquire",
        "codec.decode",
        "serve.submit",
        "serve.try_submit",
        "serve.collect",
        "codec.encode",
        "http1.write",
    ]
    .iter()
    .filter_map(|name| Some(format!("{name} {:.1}", median(chain_us.get(name)?)?)))
    .collect();
    notes.push(format!(
        "chain, median self time in us: {}",
        chain.join(" | ")
    ));
    let mismatches = warm.mismatches + untraced.mismatches + traced.mismatches + replay.mismatches;
    let replayed = replay.timings.len() as u64 + replay.failed;
    let details = vec![
        ("untraced_images_per_s", Json::Num(untraced_ips)),
        ("traced_images_per_s", Json::Num(traced_ips)),
        ("traced_latency_p50_ms", Json::Num(latency_p50)),
        ("traced_requests", Json::Int(traced.latencies.attempted())),
        (
            "http_server_samples",
            Json::Int(match (&hist_before, &hist_after) {
                (Some(b), Some(a)) => a.count() - b.count(),
                _ => 0,
            }),
        ),
        ("replayed_requests", Json::Int(replayed)),
        ("replay_failed", Json::Int(replay.failed)),
        ("fresh_socket_samples", Json::Int(fresh_us.len() as u64)),
        ("mismatches", Json::Int(mismatches)),
    ];
    Ok(Outcome {
        correct: mismatches == 0,
        attempted: untraced.latencies.attempted() + traced.latencies.attempted() + replayed,
        failed: untraced.latencies.failures() + traced.latencies.failures() + replay.failed,
        metrics,
        details,
        notes,
        chrome: Some(trace::chrome_json(&spans)),
    })
}

fn stage_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::PatchEmbed => "stage.patch_embed_us_per_image",
        Stage::Attention => "stage.attention_us_per_image",
        Stage::Softmax => "stage.softmax_us_per_image",
        Stage::Gelu => "stage.gelu_us_per_image",
        Stage::Mlp => "stage.mlp_us_per_image",
        Stage::Head => "stage.head_us_per_image",
    }
}

/// Connect → first response byte on fresh sockets, for workloads whose
/// clients rarely open one.
fn fresh_socket_probe(fx: &Fixture, addr: std::net::SocketAddr, n: usize) -> Vec<f64> {
    (0..n)
        .filter_map(|i| {
            let mut conn = None;
            let ex =
                wire::exchange(addr, &mut conn, &fx.targets[i % fx.targets.len()].request).ok()?;
            Some((ex.first_byte - ex.start).as_secs_f64() * 1e6)
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("e2e-bench/target"))
        .join("e2e-runs")
}

fn run(argv: &[String]) -> Result<bool, String> {
    if argv.first().map(String::as_str) == Some("--prepare-artifacts") {
        artifacts::prepare()?;
        return Ok(true);
    }
    let args = parse_args(argv)?;
    let spec = Spec::load()?;
    artifacts::ensure()?;
    let fx = Fixture::new(args.workload, args.seed)?;
    let outcome = if args.trace {
        run_traced(&fx, args.seed, args.seconds)?
    } else {
        run_e2e(&fx, args.seconds)?
    };
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let result = result_json(
        declared,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    )?;

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let meta = Json::Obj(vec![
        (
            "available_parallelism".into(),
            Json::Int(parallelism as u64),
        ),
        ("rustc".into(), Json::Str(env!("E2E_RUSTC_VERSION").into())),
        ("commit".into(), Json::Str(commit())),
        ("profile".into(), Json::Str(env!("E2E_PROFILE").into())),
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Int(args.seed)),
        ("run_seconds".into(), Json::Int(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "artifacts".into(),
            Json::Obj(
                fx.models
                    .iter()
                    .map(|m| (m.name.to_string(), Json::Str(m.fingerprint.clone())))
                    .collect(),
            ),
        ),
    ]);

    println!(
        "e2e-bench: {} seed {} for {} s, trace {} — {} cores, {}, {} build, commit {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parallelism,
        env!("E2E_RUSTC_VERSION"),
        env!("E2E_PROFILE"),
        commit(),
    );
    for m in &fx.models {
        println!("  artifact {:<6} {}", m.name, m.fingerprint);
    }
    for (name, unit) in declared {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |m| m.1);
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    for (name, value) in &outcome.details {
        println!("  {name:<32} {}", value.to_json());
    }
    for note in &outcome.notes {
        println!("  {note}");
    }

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = Json::Obj(vec![
        ("meta".into(), meta),
        ("result".into(), result.clone()),
        (
            "details".into(),
            Json::Obj(
                outcome
                    .details
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let record_path = dir.join(format!("{stem}.json"));
    std::fs::write(&record_path, record.to_json())
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    if let Some(chrome) = &outcome.chrome {
        let path = dir.join(format!("{stem}.chrome.json"));
        std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  chrome trace: {}", path.display());
    }
    println!("  record: {}", record_path.display());
    if !outcome.correct {
        eprintln!("e2e-bench: FAIL — an output differs from its serial forward");
    }
    println!("{}", result.to_json());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_round_trips_through_the_benchmark_json_declaration() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        for declared in [&spec.end_to_end, &spec.per_layer] {
            let names: Vec<&'static str> = declared
                .iter()
                .map(|(n, _)| &*Box::leak(n.clone().into_boxed_str()))
                .collect();
            let measured: Vec<(&str, f64)> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (*n, 0.1 + i as f64 / 3.0))
                .collect();
            let line = result_json(declared, true, 1234, 5, &measured)
                .expect("every declared metric measured")
                .to_json();
            let back = Json::parse(&line).expect("the result line is JSON");
            let Json::Obj(fields) = &back else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(back.get("attempted"), Some(&Json::Int(1234)));
            assert_eq!(back.get("failed"), Some(&Json::Int(5)));
            let metrics = back.get("metrics").expect("metrics");
            for ((name, unit), (_, value)) in declared.iter().zip(&measured) {
                let m = metrics.get(name).expect("declared metric present");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let got = m.get("value").and_then(Json::as_f64).expect("value");
                assert_eq!(got.to_bits(), value.to_bits(), "{name} keeps every digit");
            }
        }
        // A metric the file does not declare, or a declared one that was
        // not measured, is an error rather than a silently short record.
        assert!(result_json(&spec.end_to_end, true, 1, 0, &[("bogus", 1.0)]).is_err());
        assert!(result_json(&spec.end_to_end, true, 1, 0, &[]).is_err());
    }

    #[test]
    fn arguments_parse_as_documented() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload http-churn --seed 9 --seconds 10 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::HttpChurn, 9, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 1 --trace 0")).is_err());
    }
}
