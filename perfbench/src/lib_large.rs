//! `lib-large`: an in-process closed loop through
//! `Session::answer_with_options` with `Algorithm::Auto` on an engine
//! snapshot of a multi-million-edge LUBM graph. No serving layer is on
//! the path; the search kernels, local index, SPARQL evaluation and CSR
//! do the work. Also home of the in-process audits the other workloads
//! share (planner regret, SPARQL, search counters).

use crate::inputs::{self, PoolMix, QuerySpec, Shape};
use crate::report::{mem_probe_main, probe_mem, Report};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::Args;
use kgreach::{
    Algorithm, LocalIndex, LscrEngine, LscrQuery, QueryOptions, QueryOutcome, SearchStats,
    SubstructureConstraint,
};
use kgreach_datagen::lubm::LubmConfig;
use std::time::{Duration, Instant};

/// Graph size: the LUBM generator's edge floor (≈2.35M edges).
const EDGES: usize = 2_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Query pool: broad S1/S2 queries in the paper's shape plus a fixed
/// share of narrow-L negatives over S1–S3. Broad S3 is left out at this
/// size: its SPARQL evaluation (UIS's per-vertex `SCck`, and the `V(S,G)`
/// materialization of UIS\*/INS) runs for minutes on one query, and no
/// step budget or timeout caps it (see README.md).
const MIX: PoolMix = PoolMix { broad: 3000, broad_cids: &[0, 1], narrow: 1000 };
/// Constraints whose `V(S,G)` the SPARQL and planner audits may
/// materialize at this size.
const VSG_AUDIT: &[usize] = &[0, 1];

/// Load threads: at most one session per core.
pub fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get()).clamp(1, 2)
}

/// Loads an engine from a snapshot file, splitting the file read from
/// the decode (graph + index) when traced.
pub fn load_engine(path: &std::path::Path, tracer: Option<&mut Tracer>) -> LscrEngine {
    match tracer {
        None => {
            let bytes = std::fs::read(path).expect("read engine snapshot");
            LscrEngine::from_snapshot_bytes(&bytes).expect("decode engine snapshot")
        }
        Some(t) => {
            let bytes = t
                .span("kg.snapshot.read", 0, || std::fs::read(path))
                .expect("read engine snapshot");
            t.span("kg.snapshot.decode", 0, || LscrEngine::from_snapshot_bytes(&bytes))
                .expect("decode engine snapshot")
        }
    }
}

/// Resolves the pool against the engine's graph.
pub fn resolve_pool(
    engine: &LscrEngine,
    pool: &[QuerySpec],
    constraints: &[SubstructureConstraint],
) -> Vec<(LscrQuery, bool)> {
    let g = engine.graph();
    pool.iter().map(|q| (q.resolve(&g, constraints), q.expected)).collect()
}

/// Checks one outcome against the truth; interrupted searches and wrong
/// answers are failures.
pub fn check(report: &mut Report, out: &QueryOutcome, expected: bool, what: impl Fn() -> String) {
    report.attempted += 1;
    if out.interrupted {
        report.failed += 1;
    } else if out.answer != expected {
        report.wrong_answer(&what());
    }
}

fn alg_key(alg: Option<Algorithm>) -> &'static str {
    match alg {
        Some(Algorithm::Uis) => "uis",
        Some(Algorithm::UisStar) => "uis_star",
        Some(Algorithm::Ins) => "ins",
        _ => "other",
    }
}

/// Folds one outcome's search counters and algorithm choice into `t`.
pub fn count_search(t: &mut Tracer, alg: Option<Algorithm>, s: &SearchStats, answer_ns: u64) {
    let key = alg_key(alg);
    t.count(&format!("answer_ns.{key}"), answer_ns as f64);
    t.count(&format!("answers.{key}"), 1.0);
    t.count("answers", 1.0);
    t.count("edges_scanned", s.edges_scanned as f64);
    t.count("edges_skipped", s.edges_skipped as f64);
    t.count("backward_edges_scanned", s.backward_edges_scanned as f64);
    t.count("passed_vertices", s.passed_vertices as f64);
    t.count("pushes", s.pushes as f64);
    t.count("lcs_invocations", s.lcs_invocations as f64);
    t.count("index_hits", s.index_hits as f64);
    t.count("negative_terminations", s.negative_terminations as f64);
    t.count("frontier_prunes", s.frontier_prunes as f64);
    t.count("vsg_size", s.vsg_size.unwrap_or(0) as f64);
    t.count("scck_calls", s.scck_calls as f64);
    t.count("scck_cache_hits", s.scck_cache_hits as f64);
}

/// Reports the per-query search counters folded by [`count_search`], and
/// the kernels' share of the benchmark-side request time.
pub fn report_search(report: &mut Report, t: &Tracer) {
    let n = t.counter("answers").max(1.0);
    let kernel_ns: f64 = ["uis", "uis_star", "ins", "other"]
        .iter()
        .map(|k| t.counter(&format!("answer_ns.{k}")))
        .sum();
    let request_ns = t.agg("bench.request").total_ns;
    if request_ns > 0 {
        report.set("core.session.kernel_share", kernel_ns / request_ns as f64);
    }
    for (metric, counter) in [
        ("core.search.edges_scanned", "edges_scanned"),
        ("core.search.edges_skipped", "edges_skipped"),
        ("core.search.backward_edges_scanned", "backward_edges_scanned"),
        ("core.search.passed_vertices", "passed_vertices"),
        ("core.search.pushes", "pushes"),
        ("core.search.lcs_invocations", "lcs_invocations"),
        ("core.search.index_hits", "index_hits"),
        ("core.search.negative_terminations", "negative_terminations"),
        ("core.search.frontier_prunes", "frontier_prunes"),
        ("core.search.vsg_size", "vsg_size"),
    ] {
        report.set(metric, t.counter(counter) / n);
    }
    report.set(
        "core.search.scck_cache_hit_ratio",
        t.counter("scck_cache_hits") / t.counter("scck_calls").max(1.0),
    );
    for (key, answer_us, share) in [
        ("uis", "core.session.answer_us.uis", "core.planner.choice_share.uis"),
        ("uis_star", "core.session.answer_us.uis_star", "core.planner.choice_share.uis_star"),
        ("ins", "core.session.answer_us.ins", "core.planner.choice_share.ins"),
    ] {
        let count = t.counter(&format!("answers.{key}"));
        report.set(answer_us, t.counter(&format!("answer_ns.{key}")) / count.max(1.0) / 1e3);
        report.set(share, count / n);
    }
}

/// Step budget of the forced-algorithm audit.
const AUDIT_STEP_BUDGET: u64 = 200_000;
/// Wall-clock cap of the audit: the step budget counts scanned edges,
/// which does not bound UIS's per-vertex `SCck` cost on S3.
const AUDIT_TIMEOUT: Duration = Duration::from_millis(40);

/// The forced-algorithm audit: on a fixed sample, Auto's time divided by
/// the best forced algorithm's, with every run capped. Capped runs count
/// in `core.planner.budget_exhausted.<alg>`; finished runs are checked.
pub fn planner_audit(report: &mut Report, engine: &LscrEngine, sample: &[(LscrQuery, bool)]) {
    let opts =
        QueryOptions::default().with_step_budget(AUDIT_STEP_BUDGET).with_timeout(AUDIT_TIMEOUT);
    let mut session = engine.session();
    let mut regrets = Samples::default();
    let mut exhausted = [0u64; 4];
    let algs = [Algorithm::Auto, Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins];
    for (q, expected) in sample {
        let mut times = [0u64; 4];
        for (i, alg) in algs.into_iter().enumerate() {
            let start = Instant::now();
            let out = session.answer_with_options(q, alg, &opts).expect("audit query compiles");
            times[i] = start.elapsed().as_nanos().max(1) as u64;
            if out.interrupted {
                exhausted[i] += 1;
            } else if out.answer != *expected {
                report.attempted += 1;
                report.wrong_answer(&format!("audit {alg}: {q:?}"));
            }
        }
        let best = times[1..].iter().copied().min().unwrap_or(1);
        // Regret in thousandths, so the integer sample store keeps it.
        regrets.push_ns(times[0] * 1000 / best);
    }
    report.set("core.planner.regret_p50", regrets.quantile_ns(0.5) / 1000.0);
    report.set("core.planner.regret_p99", regrets.quantile_ns(0.99) / 1000.0);
    for (i, name) in [
        "core.planner.budget_exhausted.auto",
        "core.planner.budget_exhausted.uis",
        "core.planner.budget_exhausted.uis_star",
        "core.planner.budget_exhausted.ins",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, exhausted[i] as f64);
    }
}

/// The audit sample: the first queries of each shape over the
/// constraints in `cids` (forced UIS\*/INS materialize `V(S,G)`, which
/// no budget caps).
pub fn audit_sample(
    engine: &LscrEngine,
    pool: &[QuerySpec],
    constraints: &[SubstructureConstraint],
    cids: &[usize],
) -> Vec<(LscrQuery, bool)> {
    let g = engine.graph();
    let of = |shape: Shape| pool.iter().filter(move |q| q.shape == shape && cids.contains(&q.cid));
    let sample = of(Shape::Broad).take(24).chain(of(Shape::Narrow).take(8));
    sample.map(|q| (q.resolve(&g, constraints), q.expected)).collect()
}

/// SPARQL layer: parse time per constraint text and `V(S,G)`
/// materialization time per compiled constraint on `engine`'s graph.
pub fn sparql_audit(
    report: &mut Report,
    t: &mut Tracer,
    engine: &LscrEngine,
    constraints: &[SubstructureConstraint],
    vsg: &[usize],
) {
    let g = engine.graph();
    for (cid, c) in constraints.iter().enumerate() {
        for _ in 0..200 {
            t.span("sparql.parse", 0, || SubstructureConstraint::parse(c.sparql_text()))
                .expect("constraint parses");
        }
        if !vsg.contains(&cid) {
            continue;
        }
        let compiled = c.compile(&g).expect("constraint compiles");
        for _ in 0..3 {
            t.span("sparql.vsg", 0, || compiled.satisfying_vertices(&g));
        }
    }
    report.set("sparql.parse_us", t.mean_us("sparql.parse"));
    report.set("sparql.vsg_us", t.mean_us("sparql.vsg"));
}

/// Closed-loop result of one load thread.
struct Loop {
    lat: Samples,
    report: Report,
    tracer: Option<Tracer>,
}

/// Runs the closed loop on `threads` sessions until `duration` passes.
fn closed_loop(
    engine: &LscrEngine,
    pool: &[(LscrQuery, bool)],
    duration: Duration,
    threads: usize,
    epoch: Option<Instant>,
) -> (Samples, Report, Option<Tracer>, Duration) {
    let opts = QueryOptions::default();
    let start = Instant::now();
    let deadline = start + duration;
    let loops: Vec<Loop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let opts = &opts;
                scope.spawn(move || {
                    let mut session = engine.session();
                    let mut lp = Loop {
                        lat: Samples::with_capacity(1 << 18),
                        report: Report::new(),
                        tracer: epoch.map(Tracer::new),
                    };
                    let mut i = k;
                    let mut request = (k as u64) << 40;
                    while Instant::now() < deadline {
                        let (q, expected) = &pool[i % pool.len()];
                        i += threads;
                        request += 1;
                        let out = match lp.tracer.as_mut() {
                            None => {
                                let t0 = Instant::now();
                                let out = session
                                    .answer_with_options(q, Algorithm::Auto, opts)
                                    .expect("pool query compiles");
                                lp.lat.push(t0.elapsed());
                                out
                            }
                            Some(t) => {
                                t.enter("bench.request", request);
                                let plans = engine.cached_plans();
                                let cq = t
                                    .span("core.engine.compile", request, || engine.compile(q))
                                    .expect("pool query compiles");
                                let miss = engine.cached_plans() > plans;
                                t.count("plan_cache_misses", f64::from(u8::from(miss)));
                                t.count("compiles", 1.0);
                                t.enter("core.session.answer", request);
                                let out = session.answer_compiled(&cq, Algorithm::Auto, opts);
                                let answer_ns = t.exit();
                                let total = t.exit();
                                lp.lat.push_ns(total);
                                count_search(t, out.stats.algorithm, &out.stats, answer_ns);
                                out
                            }
                        };
                        check(&mut lp.report, &out, *expected, || format!("{q:?}"));
                    }
                    lp
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect()
    });
    let elapsed = start.elapsed();
    let mut lat = Samples::default();
    let mut report = Report::new();
    let mut tracer: Option<Tracer> = None;
    for lp in loops {
        lat.extend(&lp.lat);
        report.absorb(&lp.report);
        if let Some(t) = lp.tracer {
            match tracer.as_mut() {
                None => tracer = Some(t),
                Some(mine) => mine.merge(t),
            }
        }
    }
    (lat, report, tracer, elapsed)
}

pub fn run(args: &Args) -> Report {
    let lubm = LubmConfig::sized_edges(EDGES, inputs::GRAPH_SEED);
    let mut inputs = inputs::read_inputs("lib-large", args.seed, lubm, &MIX);
    if args.inject_wrong_answer {
        inputs.queries[0].expected = !inputs.queries[0].expected;
    }
    let constraints = inputs::constraints();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    if args.mem_probe {
        mem_probe_main(|| load_engine(&inputs.snapshot, None), drop);
    }
    let mem_mb = if args.trace { 0.0 } else { probe_mem(args) };

    // Set-up: snapshot file -> engine with graph and index loaded.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let start = Instant::now();
        let e = load_engine(&inputs.snapshot, args.trace.then_some(&mut tracer));
        setups.push(start.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    let pool = resolve_pool(&engine, &inputs.queries, &constraints);
    let threads = load_threads();

    let mut report = Report::new();
    // Warm-up pass (untimed): first-touch costs, answers checked.
    let (_, warm, _, _) = closed_loop(&engine, &pool, Duration::from_millis(500), threads, None);
    report.absorb(&warm);

    if !args.trace {
        let (mut lat, r, _, elapsed) = closed_loop(&engine, &pool, args.seconds, threads, None);
        report.absorb(&r);
        report.set("setup_s", median(&setups));
        report.set("query_p50_ms", lat.quantile_ms(0.5));
        report.set("queries_per_s", lat.len() as f64 / elapsed.as_secs_f64());
        report.set("mem_mb", mem_mb);
        return report;
    }

    // Traced run: an untraced baseline, then the same loop in spans.
    let quarter = args.seconds / 4;
    let (mut base, r, _, _) = closed_loop(&engine, &pool, quarter, threads, None);
    report.absorb(&r);
    let (mut lat, r, traced, _) =
        closed_loop(&engine, &pool, args.seconds / 2, threads, Some(epoch));
    report.absorb(&r);
    let traced = traced.expect("traced loop records spans");
    let p50 = lat.quantile_ms(0.5);
    report.set("query_p99_ms", lat.quantile_ms(0.99));
    report.set("trace.overhead_query_p50_ms", p50 - base.quantile_ms(0.5));
    report.set("trace.overhead_ratio", p50 / base.quantile_ms(0.5).max(1e-9));
    report_search(&mut report, &traced);
    report.set("core.engine.compile_us", traced.mean_us("core.engine.compile"));
    report.set(
        "core.engine.plan_cache_hit_ratio",
        1.0 - traced.counter("plan_cache_misses") / traced.counter("compiles").max(1.0),
    );
    tracer.merge(traced);

    report.set("kg.snapshot.read_s", tracer.mean_us("kg.snapshot.read") / 1e6);
    report.set("kg.snapshot.decode_s", tracer.mean_us("kg.snapshot.decode") / 1e6);
    let g = engine.graph();
    let index =
        tracer.span("core.local_index.build", 0, || LocalIndex::build(&g, &inputs::index_config()));
    report.set("core.local_index.build_s", tracer.mean_us("core.local_index.build") / 1e6);
    report.set("core.local_index.bytes", index.stats().bytes as f64);
    drop(index);

    sparql_audit(&mut report, &mut tracer, &engine, &constraints, VSG_AUDIT);
    let sample = audit_sample(&engine, &inputs.queries, &constraints, VSG_AUDIT);
    planner_audit(&mut report, &engine, &sample);
    finish_trace(&mut report, &tracer, args);
    report
}

/// Writes the span file and reports the failure fraction and span count.
pub fn finish_trace(report: &mut Report, tracer: &Tracer, args: &Args) {
    let path =
        inputs::cache_root().join("traces").join(format!("{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: cannot write trace {}: {e}", path.display());
    }
    let spans: u64 = tracer.aggregates().values().map(|a| a.count).sum();
    report.set("trace.spans", spans as f64);
    report.set("failed_frac", report.failed as f64 / report.attempted.max(1) as f64);
}
