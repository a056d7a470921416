//! Server-side counters and the `/metrics` exporter, backed by the
//! [`ascend_obs`] registry.
//!
//! Every update path is a single relaxed atomic operation on an
//! [`ascend_obs`] primitive — no locks, no allocation — so connection
//! threads can record at any rate. The old bounded `Mutex<VecDeque>`
//! latency window is gone: request latency lives in a fixed-bucket log2
//! [`Histogram`], which renders in Prometheus exposition format and keeps
//! percentile cost and memory flat no matter how long the server runs.
//! The serving pool's own histograms (queue wait vs service time) are
//! appended by the route handler from [`ascend::serve::PoolObs`], so one
//! scrape sees the whole request path.

use std::sync::Arc;
use std::time::Instant;

use ascend::serve::JobTiming;
use ascend_obs::{Counter, Gauge, HistSnapshot, Histogram, Registry};

/// Live counters of one [`crate::HttpServer`].
pub struct ServerMetrics {
    registry: Registry,
    /// Requests that produced a `200`.
    pub ok: Arc<Counter>,
    /// Requests shed with `503` (queue full or pool gone).
    pub shed: Arc<Counter>,
    /// Requests answered with a `4xx`.
    pub client_error: Arc<Counter>,
    /// Requests answered with a `5xx` other than shedding.
    pub server_error: Arc<Counter>,
    /// Connections accepted onto a handler thread.
    pub connections: Arc<Counter>,
    /// Connections refused with `503` because the hand-off backlog was
    /// full (every handler busy).
    pub conn_shed: Arc<Counter>,
    /// Images served across all `200` responses.
    pub images: Arc<Counter>,
    /// Handler threads that currently own a connection.
    pub handlers_busy: Arc<Gauge>,
    /// Connections accepted but not yet picked up by a handler.
    pub conn_backlog: Arc<Gauge>,
    /// Pool queue wait plus service time per `200`; excludes the socket
    /// read, parse, hand-off and response write.
    request_seconds: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    queue_capacity: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    workers: Arc<Gauge>,
    started: Instant,
}

impl ServerMetrics {
    /// Fresh, zeroed metrics; the clock for throughput starts now.
    pub fn new() -> Self {
        let registry = Registry::new();
        let ok = registry.counter("ascend_http_responses_ok_total", "Requests answered 200.");
        let shed = registry
            .counter("ascend_http_shed_total", "Requests shed with 503 (queue full or pool gone).");
        let client_error =
            registry.counter("ascend_http_client_error_total", "Requests answered 4xx.");
        let server_error = registry
            .counter("ascend_http_server_error_total", "Requests answered 5xx other than shed.");
        let connections =
            registry.counter("ascend_http_connections_total", "Connections accepted.");
        let conn_shed = registry.counter(
            "ascend_http_connections_shed_total",
            "Connections refused 503: hand-off backlog full.",
        );
        let images =
            registry.counter("ascend_images_total", "Images served across all 200 responses.");
        let handlers_busy = registry
            .gauge("ascend_http_handlers_busy", "Handler threads that currently own a connection.");
        let conn_backlog = registry.gauge(
            "ascend_http_conn_backlog",
            "Connections accepted but not yet picked up by a handler.",
        );
        let request_seconds = registry.histogram(
            "ascend_http_request_seconds",
            "Pool queue wait plus service time per 200 (no socket read, parse or write).",
        );
        let queue_depth =
            registry.gauge("ascend_queue_depth", "Admission queue depth at scrape time.");
        let queue_capacity =
            registry.gauge("ascend_queue_capacity", "Admission queue capacity (0 = unbounded).");
        let in_flight = registry.gauge("ascend_in_flight", "Jobs being computed at scrape time.");
        let workers = registry.gauge("ascend_workers", "Serving pool worker threads.");
        ServerMetrics {
            registry,
            ok,
            shed,
            client_error,
            server_error,
            connections,
            conn_shed,
            images,
            handlers_busy,
            conn_backlog,
            request_seconds,
            queue_depth,
            queue_capacity,
            in_flight,
            workers,
            #[expect(clippy::disallowed_methods, reason = "serve-layer uptime anchor for the throughput gauge; never reaches the logits")]
            started: Instant::now(),
        }
    }

    /// Records one served request: its queue-wait/service split and image
    /// count. The exported latency histogram observes the pool's queue
    /// wait plus service; the split itself is exported by the pool's own
    /// histograms.
    pub fn record_served(&self, timing: JobTiming, images: usize) {
        self.ok.inc();
        self.images.add(images as u64);
        self.request_seconds.observe(timing.total());
    }

    /// Tallies a non-`200` response under the right counter.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            503 => &self.shed,
            400..=499 => &self.client_error,
            _ => &self.server_error,
        };
        counter.inc();
    }

    /// Snapshot of the request-latency histogram: pool queue wait plus
    /// service per `200`, without the socket read, parse or write.
    pub fn latency_snapshot(&self) -> HistSnapshot {
        self.request_seconds.snapshot()
    }

    /// Images served per second of server uptime.
    pub fn throughput(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.images.get() as f64 / secs
        } else {
            0.0
        }
    }

    /// Renders the Prometheus-style text exposition for `GET /metrics`.
    ///
    /// `queued`/`queue_capacity`/`in_flight` come from the pool's live
    /// gauges; `workers` is the pool size. The caller appends the pool's
    /// own registry (queue-wait/service histograms) for the full picture.
    pub fn render(
        &self,
        queued: usize,
        queue_capacity: usize,
        in_flight: usize,
        workers: usize,
    ) -> String {
        self.queue_depth.set(queued as u64);
        self.queue_capacity.set(queue_capacity as u64);
        self.in_flight.set(in_flight as u64);
        self.workers.set(workers as u64);
        let mut out = self.registry.render();
        out.push_str(&format!(
            "# HELP ascend_throughput_images_per_second Images per second of uptime.\n\
             # TYPE ascend_throughput_images_per_second gauge\n\
             ascend_throughput_images_per_second {:.3}\n",
            self.throughput()
        ));
        out
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn timing(ms: u64) -> JobTiming {
        JobTiming { queue_wait: Duration::ZERO, service: Duration::from_millis(ms) }
    }

    #[test]
    fn render_reports_counters_gauges_and_the_latency_histogram() {
        let m = ServerMetrics::new();
        m.record_served(timing(10), 2);
        m.record_served(timing(30), 1);
        m.record_status(503);
        m.record_status(400);
        m.record_status(500);
        m.handlers_busy.inc();
        m.handlers_busy.inc();
        m.conn_backlog.inc();
        m.conn_backlog.dec();
        let text = m.render(3, 8, 1, 4);
        assert!(text.contains("ascend_http_responses_ok_total 2\n"), "{text}");
        assert!(text.contains("ascend_http_shed_total 1\n"), "{text}");
        assert!(text.contains("ascend_http_client_error_total 1\n"), "{text}");
        assert!(text.contains("ascend_http_server_error_total 1\n"), "{text}");
        assert!(text.contains("ascend_images_total 3\n"), "{text}");
        assert!(text.contains("ascend_queue_depth 3\n"), "{text}");
        assert!(text.contains("ascend_queue_capacity 8\n"), "{text}");
        assert!(text.contains("ascend_in_flight 1\n"), "{text}");
        assert!(text.contains("ascend_workers 4\n"), "{text}");
        assert!(text.contains("# TYPE ascend_http_handlers_busy gauge\n"), "{text}");
        assert!(text.contains("ascend_http_handlers_busy 2\n"), "{text}");
        assert!(text.contains("ascend_http_conn_backlog 0\n"), "{text}");
        assert!(text.contains("# TYPE ascend_http_request_seconds histogram"), "{text}");
        assert!(text.contains("ascend_http_request_seconds_count 2\n"), "{text}");
        assert!(text.contains("ascend_throughput_images_per_second"), "{text}");
    }

    #[test]
    fn latency_histogram_observes_the_end_to_end_total() {
        let m = ServerMetrics::new();
        m.record_served(
            JobTiming {
                queue_wait: Duration::from_millis(6),
                service: Duration::from_millis(10),
            },
            1,
        );
        let snap = m.latency_snapshot();
        assert_eq!(snap.count(), 1);
        // 16 ms total lands in the 2^24 ns bucket, not the 2^23 service one.
        assert_eq!(snap.sum_ns, 16_000_000);
        let (lo, hi) = snap.percentile_bounds_ns(50.0);
        assert!(lo <= 16_000_000 && 16_000_000 <= hi, "[{lo}, {hi}]");
    }

    #[test]
    fn memory_stays_flat_no_matter_how_many_requests() {
        // The histogram replaces the old sliding window: recording far more
        // requests than the old window held still renders fine and counts
        // every one of them.
        let m = ServerMetrics::new();
        for i in 0..10_000u64 {
            m.record_served(
                JobTiming {
                    queue_wait: Duration::ZERO,
                    service: Duration::from_micros(i),
                },
                1,
            );
        }
        assert_eq!(m.latency_snapshot().count(), 10_000);
        assert!(m.render(0, 0, 0, 1).contains("ascend_http_responses_ok_total 10000\n"));
    }

    #[test]
    fn request_histogram_help_names_what_it_observes() {
        let text = ServerMetrics::new().render(0, 0, 0, 1);
        let help = text
            .lines()
            .find(|l| l.starts_with("# HELP ascend_http_request_seconds "))
            .expect("request histogram is rendered with a HELP line");
        assert!(!help.contains("end-to-end"), "{help}");
        assert!(help.contains("queue wait plus service"), "{help}");
    }

    #[test]
    fn empty_metrics_render_without_panicking() {
        let text = ServerMetrics::new().render(0, 0, 0, 1);
        assert!(text.contains("ascend_http_responses_ok_total 0\n"));
        assert!(text.contains("ascend_throughput_images_per_second 0.000\n"));
    }
}
