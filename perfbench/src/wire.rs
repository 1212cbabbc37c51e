//! `wire-small`: open-loop HTTP `/query` traffic (Auto) against an
//! in-process `kg-serve` with the default `ServerConfig`, on the 6.2k-edge
//! `lubm-u2d6` graph. Search takes microseconds here, so HTTP framing,
//! JSON, the protocol layer, admission and micro-batching dominate.
//!
//! The load is open loop: request `i` is *scheduled* at `start + i/rate`.
//! When its connection is still busy at that instant, its latency is
//! timed from the schedule, so a server that falls behind is charged for
//! the queueing it causes instead of slowing the generator down (no
//! coordinated omission); on an idle connection it is timed from the
//! actual send. Requests alternate over at most two keep-alive
//! connections.

use crate::inputs::{self, PoolMix, QuerySpec};
use crate::lib_large::{self, count_search, report_search};
use crate::report::{mem_probe_main, probe_mem, Report};
use crate::stats::{median, Samples, Windowed};
use crate::trace::Tracer;
use crate::Args;
use kgreach::{Algorithm, LscrEngine, QueryOptions};
use kgreach_datagen::lubm::LubmConfig;
use kgreach_serve::protocol::render_outcome;
use kgreach_serve::{
    serve, HttpClient, Json, QueryRequest, ServerConfig, ServerHandle, ServerMetrics,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sub-runs of an untraced run, each on a freshly set-up server.
const SUBRUNS: usize = 10;
/// Set-ups timed per sub-run (the last one serves it): a set-up takes
/// about 2 ms here, so `setup_s` needs many for a steady median.
const SETUPS_PER_SUBRUN: usize = 3;
/// Untimed warm-up before a measured phase.
const WARM_UP: Duration = Duration::from_millis(100);
const MIX: PoolMix = PoolMix { broad: 900, broad_cids: &[0, 1, 2], narrow: 300 };
/// The ladder's reference rate (requests/s): the end-to-end latency
/// figures are measured here.
pub const REFERENCE_RATE: f64 = 1000.0;
/// The frozen rate ladder of the traced run, requests/s.
const LADDER: &[f64] = &[500.0, 1000.0, 2000.0, 4000.0, 8000.0, 12000.0, 16000.0];
/// The latency limit `max_qps_at_slo` holds `query_p99_ms` to.
pub const SLO_P99_MS: f64 = 5.0;
/// Retries of a shed (`429`/`503`) request before it counts as failed.
const SHED_RETRIES: usize = 3;
/// Keep-alive connections of the open-loop generator.
pub const CONNECTIONS: usize = 2;
/// Requests per percentile window: each window's p99 rests on ten
/// samples beyond it, and the median across windows is reported.
pub const WINDOW_REQUESTS: f64 = 1000.0;

/// One open-loop request: its `/query` body and expected answer.
pub struct WireQuery {
    pub body: String,
    pub expected: bool,
}

pub fn wire_pool(pool: &[QuerySpec]) -> Vec<WireQuery> {
    let constraints = inputs::constraints();
    pool.iter()
        .map(|q| WireQuery { body: q.wire_body(&constraints), expected: q.expected })
        .collect()
}

/// What an open-loop phase observed.
#[derive(Default)]
pub struct OpenLoop {
    /// Latency from the scheduled send time to the response, by
    /// window of [`WINDOW_REQUESTS`] consecutive requests.
    pub lat: Windowed,
    /// Client-measured wire time: actual send to response.
    pub wire: Samples,
    /// How late the generator sent: actual minus scheduled send time.
    pub lag: Samples,
    pub report: Report,
    pub elapsed: Duration,
    /// Whether the send lag grew from the first to the last third.
    pub backlog_grew: bool,
    /// Deepest admission queue seen at response time.
    pub queue_depth_max: u64,
    pub tracer: Option<Tracer>,
}

impl OpenLoop {
    /// The `q`-quantile latency in ms: the median over full windows.
    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.lat.quantile_ms(q, (0.9 * WINDOW_REQUESTS) as usize)
    }
}

/// Sends one request, retrying shed ones; returns the final response.
pub fn send(
    client: &mut HttpClient,
    path: &str,
    body: &str,
) -> std::io::Result<kgreach_serve::HttpResponse> {
    let mut resp = client.post_json(path, body)?;
    for _ in 0..SHED_RETRIES {
        if !matches!(resp.status, 429 | 503) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        resp = client.post_json(path, body)?;
    }
    Ok(resp)
}

/// How the generator waits for a send slot.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Yield in a loop. On a small VM a sleeping generator leaves its
    /// vCPU idle, and waking an idle vCPU adds milliseconds of jitter to
    /// the next request (measured on `wire-small`: p50 swung 0.1–1.1 ms
    /// between runs with sleeps, 0.10–0.13 ms spinning).
    Spin,
    /// Sleep. For servers that keep the CPUs busy anyway (`write-mix`),
    /// where a spinning generator would take CPU from the writer and the
    /// workers instead (measured: 8 ms of queue wait per read).
    Sleep,
}

fn wait_until(at: Instant, wait: Wait) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        match wait {
            Wait::Spin => std::thread::yield_now(),
            Wait::Sleep => std::thread::sleep(at - now),
        }
    }
}

/// Runs an open-loop phase over `conns` connections at `rate` for
/// `duration`, cycling through `pool` from `offset`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    metrics: &ServerMetrics,
    pool: &[WireQuery],
    offset: usize,
    rate: f64,
    duration: Duration,
    conns: usize,
    wait: Wait,
    epoch: Option<Instant>,
) -> OpenLoop {
    let total = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let start = Instant::now() + Duration::from_millis(2);
    let parts: Vec<OpenLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect to the server");
                    let mut part = OpenLoop {
                        report: Report::new(),
                        tracer: epoch.map(Tracer::new),
                        ..OpenLoop::default()
                    };
                    let mut lags = Vec::new();
                    let mut prev_done = start;
                    for i in (c..total).step_by(conns) {
                        let q = &pool[(offset + i) % pool.len()];
                        let scheduled = start + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(scheduled, wait);
                        let sent = Instant::now();
                        let request = i as u64;
                        if let Some(t) = part.tracer.as_mut() {
                            t.enter("bench.request", request);
                            t.enter("serve.client.wire", request);
                        }
                        let resp = send(&mut client, "/query", &q.body);
                        let done = Instant::now();
                        if let Some(t) = part.tracer.as_mut() {
                            t.exit();
                            t.exit();
                        }
                        let window = (i as f64 / WINDOW_REQUESTS) as usize;
                        // Charged from the scheduled time when the request
                        // queued behind the previous response; from the
                        // actual send when the connection sat idle, where
                        // any lateness is the generator's own wake-up.
                        let from = if prev_done > scheduled { scheduled } else { sent };
                        prev_done = done;
                        part.lat.push(window, done - from);
                        part.wire.push(done - sent);
                        part.lag.push(sent - scheduled);
                        lags.push((sent - scheduled).as_nanos() as u64);
                        part.queue_depth_max = part.queue_depth_max.max(metrics.queue_depth.get());
                        part.report.attempted += 1;
                        match resp {
                            Ok(r) if r.status == 200 => {
                                let answer = if r.body.starts_with("{\"answer\":true") {
                                    Some(true)
                                } else if r.body.starts_with("{\"answer\":false") {
                                    Some(false)
                                } else {
                                    None
                                };
                                if r.body.contains("\"interrupted\":true") {
                                    part.report.failed += 1;
                                } else if answer != Some(q.expected) {
                                    part.report.wrong_answer(&format!("{} -> {}", q.body, r.body));
                                }
                                if let Some(t) = part.tracer.as_mut() {
                                    record_answer(t, &r.body);
                                }
                            }
                            Ok(_) | Err(_) => part.report.failed += 1,
                        }
                    }
                    let third = lags.len() / 3;
                    if third > 0 {
                        let first = median_u64(&lags[..third]);
                        let last = median_u64(&lags[lags.len() - third..]);
                        part.backlog_grew = last > first + 1_000_000;
                    }
                    part
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let mut out =
        OpenLoop { report: Report::new(), elapsed: start.elapsed(), ..OpenLoop::default() };
    for p in parts {
        out.lat.merge(&p.lat);
        out.wire.extend(&p.wire);
        out.lag.extend(&p.lag);
        out.report.absorb(&p.report);
        out.backlog_grew |= p.backlog_grew;
        out.queue_depth_max = out.queue_depth_max.max(p.queue_depth_max);
        if let Some(t) = p.tracer {
            match out.tracer.as_mut() {
                None => out.tracer = Some(t),
                Some(mine) => mine.merge(t),
            }
        }
    }
    out
}

fn median_u64(v: &[u64]) -> u64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Folds the server-reported search time and counters of one `/query`
/// response into `t` (the kernel time as the engine measured it).
fn record_answer(t: &mut Tracer, body: &str) {
    let Ok(json) = Json::parse(body) else { return };
    let alg = match json.get("algorithm").and_then(Json::as_str) {
        Some("UIS") => Some(Algorithm::Uis),
        Some("UIS*") => Some(Algorithm::UisStar),
        Some("INS") => Some(Algorithm::Ins),
        _ => None,
    };
    let elapsed = json.get("elapsed_ns").and_then(Json::as_u64).unwrap_or(0);
    let mut stats = kgreach::SearchStats::default();
    if let Some(s) = json.get("stats") {
        let n = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
        stats.edges_scanned = n("edges_scanned");
        stats.edges_skipped = n("edges_skipped");
        stats.backward_edges_scanned = n("backward_edges_scanned");
        stats.passed_vertices = n("passed_vertices");
        stats.pushes = n("pushes");
        stats.lcs_invocations = n("lcs_invocations");
        stats.index_hits = n("index_hits");
        stats.negative_terminations = n("negative_terminations");
        stats.frontier_prunes = n("frontier_prunes");
        stats.vsg_size = s.get("vsg_size").and_then(Json::as_u64).map(|v| v as usize);
        stats.scck_calls = n("scck_calls");
        stats.scck_cache_hits = n("scck_cache_hits");
    }
    count_search(t, alg, &stats, elapsed);
}

/// Polls `/healthz` until it answers 200.
pub fn wait_healthy(addr: SocketAddr) {
    let mut client = HttpClient::connect(addr).expect("connect for /healthz");
    loop {
        match client.get("/healthz") {
            Ok(r) if r.status == 200 => return,
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                client = HttpClient::connect(addr).expect("reconnect for /healthz");
            }
        }
    }
}

/// Server-side histogram deltas between two points of a run.
pub struct ServerSnapshot {
    request_count: u64,
    request_sum_ns: u64,
    query_count: u64,
    query_sum_ns: u64,
    windows: u64,
    batched: u64,
    shed: u64,
}

impl ServerSnapshot {
    pub fn take(m: &ServerMetrics) -> ServerSnapshot {
        ServerSnapshot {
            request_count: m.request_latency.count(),
            request_sum_ns: m.request_latency.sum_ns(),
            query_count: m.query_latency.count(),
            query_sum_ns: m.query_latency.sum_ns(),
            windows: m.batch_windows_total.get(),
            batched: m.batched_queries_total.get(),
            shed: m.shed_queue_full_total.get() + m.shed_draining_total.get(),
        }
    }

    /// Reports the serve-layer metrics of the interval `self..now`.
    pub fn report_since(&self, report: &mut Report, m: &ServerMetrics, phase: &OpenLoop) {
        let now = ServerSnapshot::take(m);
        let per = |sum: u64, count: u64| sum as f64 / count.max(1) as f64 / 1e3;
        let request_us =
            per(now.request_sum_ns - self.request_sum_ns, now.request_count - self.request_count);
        let wire_us = phase.wire.mean_ns() / 1e3;
        report.set("serve.client.wire_us", wire_us);
        report.set("serve.server.request_us", request_us);
        report.set("serve.transport_us", wire_us - request_us);
        report.set(
            "serve.batch.enqueue_to_answer_us",
            per(now.query_sum_ns - self.query_sum_ns, now.query_count - self.query_count),
        );
        report.set(
            "serve.batch.window_size",
            (now.batched - self.batched) as f64 / (now.windows - self.windows).max(1) as f64,
        );
        report.set("serve.batch.shed", (now.shed - self.shed) as f64);
        report.set("serve.batch.queue_depth_max", phase.queue_depth_max as f64);
    }
}

/// Open-loop accounting of a phase: generator lateness, backlog growth
/// and how many samples the p99 rests on.
pub fn report_loadgen(report: &mut Report, phase: &mut OpenLoop, grown_rungs: usize) {
    report.set("loadgen.send_lag_p99_ms", phase.lag.quantile_ms(0.99));
    report.set("loadgen.backlog_growth_rungs", grown_rungs as f64);
    let mut all = phase.lat.all();
    report.set("loadgen.samples", all.len() as f64);
    report.set("loadgen.samples_beyond_p99", all.beyond(0.99) as f64);
}

fn start_server(snapshot: &std::path::Path) -> ServerHandle {
    let engine = lib_large::load_engine(snapshot, None);
    let server = serve(Arc::new(engine), ServerConfig::default()).expect("bind the server");
    wait_healthy(server.addr());
    server
}

/// In-process replay of the serve layers for the same request bodies:
/// JSON decode, protocol parse/resolve, the session answer, render and
/// JSON encode, each in its own span.
fn replay_layers(report: &mut Report, t: &mut Tracer, engine: &LscrEngine, pool: &[WireQuery]) {
    let g = engine.graph();
    let mut session = engine.session();
    let opts = QueryOptions::default();
    let (mut bytes_in, mut bytes_out) = (0usize, 0usize);
    for (i, q) in pool.iter().enumerate() {
        let request = i as u64;
        let json = t.span("serve.json.parse", request, || Json::parse(&q.body)).expect("json");
        let req =
            t.span("serve.protocol.parse", request, || QueryRequest::parse(&json)).expect("req");
        let query = t.span("serve.protocol.resolve", request, || req.resolve(&g)).expect("names");
        let out = session.answer_with_options(&query, Algorithm::Auto, &opts).expect("compiles");
        let rendered = t.span("serve.protocol.render", request, || render_outcome(&g, &out));
        let mut text = String::new();
        t.span("serve.json.write", request, || rendered.write(&mut text));
        bytes_in += q.body.len();
        bytes_out += text.len();
    }
    let n = pool.len().max(1) as f64;
    for (metric, span) in [
        ("serve.json.parse_us", "serve.json.parse"),
        ("serve.json.write_us", "serve.json.write"),
        ("serve.protocol.parse_us", "serve.protocol.parse"),
        ("serve.protocol.resolve_us", "serve.protocol.resolve"),
        ("serve.protocol.render_us", "serve.protocol.render"),
    ] {
        report.set(metric, t.mean_us(span));
    }
    report.set("serve.json.bytes_in", bytes_in as f64 / n);
    report.set("serve.json.bytes_out", bytes_out as f64 / n);
}

pub fn run(args: &Args) -> Report {
    let lubm = LubmConfig { universities: 2, departments: 6, seed: inputs::GRAPH_SEED };
    let mut inputs = inputs::read_inputs("wire-small", args.seed, lubm, &MIX);
    if args.inject_wrong_answer {
        inputs.queries[0].expected = !inputs.queries[0].expected;
    }
    let pool = wire_pool(&inputs.queries);
    let epoch = Instant::now();

    if args.mem_probe {
        mem_probe_main(|| start_server(&inputs.snapshot), ServerHandle::shutdown);
    }
    let mem_mb = if args.trace { 0.0 } else { probe_mem(args) };

    let mut report = Report::new();
    if !args.trace {
        // Sub-runs, each with a fresh server (so fresh worker and
        // connection threads) and fresh connections: latency on a small
        // VM swings with where those threads land, so every figure is
        // the median over sub-runs. Each set-up is timed for `setup_s`.
        let slice = args.seconds / SUBRUNS as u32;
        let (mut setups, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut completed, mut elapsed) = (0usize, Duration::ZERO);
        for k in 0..SUBRUNS {
            let mut server = None;
            for _ in 0..SETUPS_PER_SUBRUN {
                if let Some(s) = server.take() {
                    ServerHandle::shutdown(s);
                }
                let start = Instant::now();
                server = Some(start_server(&inputs.snapshot));
                setups.push(start.elapsed().as_secs_f64());
            }
            let server = server.expect("at least one set-up");
            let (addr, metrics) = (server.addr(), server.metrics());
            let offset = k * 1000;
            let warm = open_loop(
                addr,
                metrics,
                &pool,
                offset,
                REFERENCE_RATE,
                WARM_UP,
                CONNECTIONS,
                Wait::Spin,
                None,
            );
            report.absorb(&warm.report);
            let mut phase = open_loop(
                addr,
                metrics,
                &pool,
                offset,
                REFERENCE_RATE,
                slice,
                CONNECTIONS,
                Wait::Spin,
                None,
            );
            report.absorb(&phase.report);
            p50s.push(phase.quantile_ms(0.5));
            p99s.push(phase.quantile_ms(0.99));
            completed += phase.lat.len();
            elapsed += phase.elapsed;
            server.shutdown();
        }
        report.set("setup_s", median(&setups));
        report.set("query_p50_ms", median(&p50s));
        eprintln!("# wire-small: query_p99_ms {:.3} (median of sub-runs)", median(&p99s));
        report.set("queries_per_s", completed as f64 / elapsed.as_secs_f64());
        report.set("mem_mb", mem_mb);
        return report;
    }

    let server = start_server(&inputs.snapshot);
    let (addr, metrics) = (server.addr(), Arc::clone(server.metrics()));
    let warm =
        open_loop(addr, &metrics, &pool, 0, REFERENCE_RATE, WARM_UP, CONNECTIONS, Wait::Spin, None);
    report.absorb(&warm.report);

    // Traced run: untraced baseline at the reference rate, the same rate
    // in spans (with server-side deltas), then the ladder.
    let quarter = args.seconds / 4;
    let mut base =
        open_loop(addr, &metrics, &pool, 0, REFERENCE_RATE, quarter, CONNECTIONS, Wait::Spin, None);
    report.absorb(&base.report);
    let before = ServerSnapshot::take(&metrics);
    let mut traced = open_loop(
        addr,
        &metrics,
        &pool,
        0,
        REFERENCE_RATE,
        quarter,
        CONNECTIONS,
        Wait::Spin,
        Some(epoch),
    );
    report.absorb(&traced.report);
    before.report_since(&mut report, &metrics, &traced);
    let mut tracer = traced.tracer.take().expect("traced phase records spans");
    report_search(&mut report, &tracer);
    let p50 = traced.quantile_ms(0.5);
    report.set("query_p99_ms", traced.quantile_ms(0.99));
    report.set("trace.overhead_query_p50_ms", p50 - base.quantile_ms(0.5));
    report.set("trace.overhead_ratio", p50 / base.quantile_ms(0.5).max(1e-9));
    report_loadgen(&mut report, &mut base, 0);

    let mut max_ok = 0.0f64;
    let mut grown = 0usize;
    for &rate in LADDER {
        let rung_time = Duration::from_secs_f64((2200.0 / rate).max(2.0));
        let mut rung = open_loop(
            addr,
            &metrics,
            &pool,
            0,
            rate,
            rung_time,
            CONNECTIONS,
            Wait::Spin,
            Some(epoch),
        );
        report.absorb(&rung.report);
        let p99 = rung.quantile_ms(0.99);
        eprintln!(
            "# rung {rate}/s: p99 {p99:.3} ms, lag p99 {:.3} ms, backlog grew {}",
            rung.lag.quantile_ms(0.99),
            rung.backlog_grew
        );
        grown += usize::from(rung.backlog_grew);
        if p99 <= SLO_P99_MS && !rung.backlog_grew && rung.report.failed == 0 {
            max_ok = max_ok.max(rate);
        }
        if let Some(t) = rung.tracer.take() {
            tracer.merge(t);
        }
    }
    report.set("max_qps_at_slo", max_ok);
    report.set("loadgen.backlog_growth_rungs", grown as f64);

    let engine = Arc::clone(server.engine());
    server.shutdown();
    replay_layers(&mut report, &mut tracer, &engine, &pool);
    lib_large::sparql_audit(&mut report, &mut tracer, &engine, &inputs::constraints(), &[0, 1, 2]);
    let sample =
        lib_large::audit_sample(&engine, &inputs.queries, &inputs::constraints(), &[0, 1, 2]);
    lib_large::planner_audit(&mut report, &engine, &sample);
    lib_large::finish_trace(&mut report, &tracer, args);
    report
}
