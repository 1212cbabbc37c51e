//! `write-mix`: a durable `kg-serve` (fresh data dir, `fsync=always`, a
//! checkpoint threshold small enough for several checkpoints per run) on
//! a ~300k-edge LUBM graph. One connection posts `/update` batches in a
//! closed loop; the other sends open-loop Auto `/query` reads at a fixed
//! rate. Afterwards a copy of the data dir is crash-recovered with
//! `DurableEngine::recover` + `replay`, and the live engine, the
//! recovered engine and a rebuild of base + acknowledged batches must
//! have equal fingerprints.

use crate::inputs::{self, PoolMix};
use crate::lib_large::{self, count_search, report_search};
use crate::report::{mem_probe_main, probe_mem, Report};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::wire::{
    self, open_loop, wait_healthy, wire_pool, OpenLoop, ServerSnapshot, Wait, WireQuery,
};
use crate::Args;
use kgreach::{
    Algorithm, DurableEngine, FsyncPolicy, IndexMaintenance, LscrEngine, QueryOptions, WalConfig,
};
use kgreach_datagen::lubm::LubmConfig;
use kgreach_datagen::updates::UpdateWorkloadConfig;
use kgreach_graph::Wal;
use kgreach_serve::{serve_gated, HttpClient, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EDGES: usize = 260_000;
const SETUPS: usize = 9;
/// Reads: broad S1/S2 and narrow-L queries whose answers no prefix of
/// the update stream changes, 450 + 150 kept out of the drawn mix. Broad
/// S3 is left out as on `lib-large` (see README.md).
const MIX: PoolMix = PoolMix { broad: 900, broad_cids: &[0, 1], narrow: 300 };
const KEEP: (usize, usize) = (450, 150);
/// Open-loop read rate on the second connection, requests/s. Read
/// latency is timed from the actual send: while writes run, single reads
/// occasionally take a second (their search takes tens of ms), and on one
/// connection charging the queue behind them from the schedule would make
/// the median a measure of those few reads. The generator's lateness is
/// reported separately (`loadgen.send_lag_p99_ms`).
const READ_RATE: f64 = 100.0;
/// WAL size that rolls a checkpoint.
const CHECKPOINT_BYTES: u64 = 256 << 10;
/// Batches the traced run replays through the layer audits.
const AUDIT_BATCHES: usize = 120;

/// The update stream: 10% of the edges held out and streamed back in
/// batches of 32 inserts plus churn, from the fixed graph seed.
fn updates() -> UpdateWorkloadConfig {
    UpdateWorkloadConfig {
        holdout_fraction: 0.1,
        batch_size: 32,
        churn_per_batch: 2,
        seed: inputs::GRAPH_SEED,
    }
}

fn wal_config() -> WalConfig {
    WalConfig { fsync: FsyncPolicy::Always, checkpoint_bytes: CHECKPOINT_BYTES }
}

/// Durable start-up on a fresh data dir: recover (writes checkpoint 0
/// from the snapshot), bind gated, replay, install, `/healthz` 200.
fn start_durable(dir: &Path, snapshot: &Path) -> ServerHandle {
    let snapshot = snapshot.to_path_buf();
    let recovery = DurableEngine::recover(dir, wal_config(), move || {
        LscrEngine::from_snapshot_file(&snapshot)
    })
    .expect("recover the data dir");
    let server = serve_gated(recovery.engine(), ServerConfig::default()).expect("bind the server");
    let (durable, _) = recovery.replay().expect("replay the log");
    server.install_durable(Arc::new(durable));
    wait_healthy(server.addr());
    server
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create recovery copy");
    for entry in std::fs::read_dir(from).expect("list data dir").flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy data file");
    }
}

/// The closed-loop writer's observations.
#[derive(Default)]
struct Writes {
    lat: Samples,
    acked: usize,
    failed: u64,
    elapsed: Duration,
}

/// Posts `bodies` in order on one connection until `deadline`.
fn writer(
    addr: SocketAddr,
    bodies: &[String],
    first: usize,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Writes {
    let mut client = HttpClient::connect(addr).expect("connect the writer");
    let mut w = Writes::default();
    let start = Instant::now();
    for (i, body) in bodies.iter().enumerate().skip(first) {
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("bench.update", i as u64);
            t.enter("serve.client.update", i as u64);
        }
        let resp = wire::send(&mut client, "/update", body);
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
            t.exit();
        }
        w.lat.push(t0.elapsed());
        match resp {
            Ok(r) if r.status == 200 => w.acked += 1,
            _ => {
                // Later batches assume this one landed; stop writing.
                w.failed += 1;
                break;
            }
        }
    }
    w.elapsed = start.elapsed();
    w
}

/// Writer and reader side by side for `duration`: batches from `first`
/// on the first connection, open-loop reads on the second.
fn mixed_phase(
    server: &ServerHandle,
    pool: &[WireQuery],
    bodies: &[String],
    first: usize,
    duration: Duration,
    epoch: Option<Instant>,
) -> (Writes, OpenLoop) {
    let (addr, metrics) = (server.addr(), server.metrics());
    let deadline = Instant::now() + duration;
    let mut write_tracer = epoch.map(Tracer::new);
    let (writes, mut reads) = std::thread::scope(|scope| {
        let wt = write_tracer.as_mut();
        let w = scope.spawn(move || writer(addr, bodies, first, deadline, wt));
        let reads =
            open_loop(addr, metrics, pool, first, READ_RATE, duration, 1, Wait::Sleep, epoch);
        (w.join().expect("writer thread"), reads)
    });
    if let (Some(t), Some(w)) = (reads.tracer.as_mut(), write_tracer) {
        t.merge(w);
    }
    if first + writes.acked == bodies.len() {
        eprintln!("# write-mix: the update stream ran out before the deadline");
    }
    (writes, reads)
}

fn absorb_phase(report: &mut Report, writes: &Writes, reads: &OpenLoop) {
    report.absorb(&reads.report);
    report.attempted += writes.acked as u64 + writes.failed;
    report.failed += writes.failed;
}

/// Crash-recovers a copy of the data dir and checks the live engine, the
/// recovered engine and a rebuild of base + acknowledged batches agree.
/// Returns (recover load, replay) times.
fn recover_and_check(
    report: &mut Report,
    server: ServerHandle,
    data_dir: &Path,
    run_dir: &Path,
    inputs: &inputs::WriteInputs,
    acked: usize,
) -> (Duration, Duration) {
    let live = server.engine().graph().fingerprint();
    let crash_copy = run_dir.join("crash-copy");
    copy_dir(data_dir, &crash_copy);
    server.shutdown();
    let t0 = Instant::now();
    let recovery = DurableEngine::recover(&crash_copy, wal_config(), || {
        panic!("the crash copy holds a checkpoint")
    })
    .expect("recover the crash copy");
    let load = t0.elapsed();
    let (recovered, _) = recovery.replay().expect("replay the crash copy");
    let replay = t0.elapsed() - load;
    let recovered_fp = recovered.engine().graph().fingerprint();
    drop(recovered);
    let mut rebuilt =
        (*LscrEngine::from_snapshot_file(&inputs.snapshot).expect("base snapshot").graph()).clone();
    for batch in &inputs.batches[..acked] {
        rebuilt.apply_update(batch).expect("rebuild applies the stream");
    }
    let rebuilt_fp = rebuilt.fingerprint();
    report.attempted += 1;
    if live != recovered_fp || live != rebuilt_fp {
        report.wrong_answer(&format!(
            "fingerprints differ: live [{live}], recovered [{recovered_fp}], rebuilt [{rebuilt_fp}]"
        ));
    }
    (load, replay)
}

pub fn run(args: &Args) -> Report {
    let lubm = LubmConfig::sized_edges(EDGES, inputs::GRAPH_SEED);
    let mut inputs = inputs::write_inputs(args.seed, lubm, updates(), &MIX, KEEP);
    if args.inject_wrong_answer {
        inputs.queries[0].expected = !inputs.queries[0].expected;
    }
    let pool = wire_pool(&inputs.queries);
    let run_dir = inputs::cache_root().join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    if args.mem_probe {
        let dir = run_dir.join("probe");
        mem_probe_main(
            || start_durable(&dir, &inputs.snapshot),
            |server| {
                server.shutdown();
                let _ = std::fs::remove_dir_all(&run_dir);
            },
        );
    }
    let mem_mb = if args.trace { 0.0 } else { probe_mem(args) };

    // Set-up: snapshot file -> durable server ready (fresh data dir).
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<ServerHandle> = None;
    let mut data_dir = PathBuf::new();
    for i in 0..SETUPS {
        if let Some(s) = server.take() {
            s.shutdown();
            let _ = std::fs::remove_dir_all(&data_dir);
        }
        data_dir = run_dir.join(format!("data-{i}"));
        let start = Instant::now();
        let s = start_durable(&data_dir, &inputs.snapshot);
        setups.push(start.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let mut report = Report::new();

    if !args.trace {
        let (writes, mut reads) =
            mixed_phase(&server, &pool, &inputs.bodies, 0, args.seconds, None);
        absorb_phase(&mut report, &writes, &reads);
        recover_and_check(&mut report, server, &data_dir, &run_dir, &inputs, writes.acked);
        let _ = std::fs::remove_dir_all(&run_dir);
        report.set("setup_s", median(&setups));
        report.set("query_p50_ms", reads.wire.quantile_ms(0.5));
        report.set("queries_per_s", reads.lat.len() as f64 / reads.elapsed.as_secs_f64());
        report.set("mem_mb", mem_mb);
        return report;
    }

    // Traced run: an untraced baseline, then the traced phase continuing
    // the same update stream for the full `--seconds`, so its read p99
    // rests on ten samples beyond it.
    let (base_writes, mut base) =
        mixed_phase(&server, &pool, &inputs.bodies, 0, args.seconds / 2, None);
    absorb_phase(&mut report, &base_writes, &base);
    let first = base_writes.acked;
    let before = ServerSnapshot::take(server.metrics());
    let epoch = Instant::now();
    let (mut writes, mut reads) =
        mixed_phase(&server, &pool, &inputs.bodies, first, args.seconds, Some(epoch));
    absorb_phase(&mut report, &writes, &reads);
    before.report_since(&mut report, server.metrics(), &reads);
    let p50 = reads.wire.quantile_ms(0.5);
    report.set("query_p99_ms", reads.wire.quantile_ms(0.99));
    report.set("trace.overhead_query_p50_ms", p50 - base.wire.quantile_ms(0.5));
    report.set("trace.overhead_ratio", p50 / base.wire.quantile_ms(0.5).max(1e-9));
    let checkpoints = server.durable().expect("durable server").stats().checkpoints;
    report.set("core.durable.checkpoints", checkpoints as f64);
    let acked = first + writes.acked;
    let (load, replay) =
        recover_and_check(&mut report, server, &data_dir, &run_dir, &inputs, acked);

    report.set("update_p50_ms", writes.lat.quantile_ms(0.5));
    report.set("update_p99_ms", writes.lat.quantile_ms(0.99));
    report.set("updates_per_s", writes.acked as f64 / writes.elapsed.as_secs_f64());
    report.set("recovery_s", (load + replay).as_secs_f64());
    report.set("core.durable.recover_load_s", load.as_secs_f64());
    report.set("core.durable.replay_s", replay.as_secs_f64());
    let grew = usize::from(reads.backlog_grew);
    wire::report_loadgen(&mut report, &mut reads, grew);
    let mut tracer = reads.tracer.take().expect("traced phase records spans");

    let batches = &inputs.batches[..acked.min(AUDIT_BATCHES)];
    let reads_per_write = (reads.lat.len() as f64 / writes.acked.max(1) as f64).ceil().max(1.0);
    replica_audit(&mut report, &mut tracer, &inputs, batches, reads_per_write as usize);
    wal_audit(&mut report, &mut tracer, &run_dir, batches);
    durable_audit(&mut report, &mut tracer, &run_dir, &inputs.snapshot, batches);

    let engine = LscrEngine::from_snapshot_file(&inputs.snapshot).expect("base snapshot");
    let sample = lib_large::audit_sample(&engine, &inputs.queries, &inputs::constraints(), &[0, 1]);
    lib_large::planner_audit(&mut report, &engine, &sample);
    let _ = std::fs::remove_dir_all(&run_dir);
    lib_large::finish_trace(&mut report, &tracer, args);
    report
}

/// A non-durable replica replays the batches through
/// `LscrEngine::apply_update`, interleaved with reads at the run's
/// read/write ratio: every write bumps the epoch, so the reads recompile
/// (plan cache) and re-materialize `V(S,G)` the way the server's do.
fn replica_audit(
    report: &mut Report,
    t: &mut Tracer,
    inputs: &inputs::WriteInputs,
    batches: &[kgreach_graph::UpdateBatch],
    reads_per_write: usize,
) {
    let constraints = inputs::constraints();
    let engine = LscrEngine::from_snapshot_file(&inputs.snapshot).expect("base snapshot");
    let reads = &inputs.queries;
    let opts = QueryOptions::default();
    let mut session = engine.session();
    let mut repaired = 0usize;
    let mut next = 0usize;
    let mut scratch = Tracer::new(Instant::now());
    for (i, batch) in batches.iter().enumerate() {
        let out = t
            .span("core.engine.apply_update", i as u64, || engine.apply_update(batch))
            .expect("replica applies the batch");
        if let IndexMaintenance::Patched { partitions_repaired } = out.index {
            repaired += partitions_repaired;
        }
        for _ in 0..reads_per_write {
            let spec = &reads[next % reads.len()];
            next += 1;
            let g = engine.graph();
            let q = spec.resolve(&g, &constraints);
            let plans = engine.cached_plans();
            let cq = t
                .span("core.engine.compile", next as u64, || engine.compile(&q))
                .expect("compiles");
            scratch.count("compiles", 1.0);
            if engine.cached_plans() > plans {
                scratch.count("plan_cache_misses", 1.0);
            }
            if spec.cid != 2 {
                // S3's V(S,G) materialization is the pathological one (see
                // README.md); S1/S2 show the per-epoch re-materialization.
                t.span("sparql.vsg", next as u64, || cq.constraint.satisfying_vertices(&g));
            }
            t.enter("core.session.answer", next as u64);
            let out = session.answer_compiled(&cq, Algorithm::Auto, &opts);
            let ns = t.exit();
            count_search(&mut scratch, out.stats.algorithm, &out.stats, ns);
            lib_large::check(report, &out, spec.expected, || format!("replica read {q:?}"));
        }
    }
    report.set("core.engine.apply_update_us", t.mean_us("core.engine.apply_update"));
    report.set("core.engine.compile_us", t.mean_us("core.engine.compile"));
    report.set(
        "core.engine.plan_cache_hit_ratio",
        1.0 - scratch.counter("plan_cache_misses") / scratch.counter("compiles").max(1.0),
    );
    report.set("sparql.vsg_us", t.mean_us("sparql.vsg"));
    report
        .set("core.local_index.partitions_repaired", repaired as f64 / batches.len().max(1) as f64);
    // The search counters come from the server's responses when it
    // reported any; otherwise from the replica.
    if t.counter("answers") == 0.0 {
        report_search(report, &scratch);
    } else {
        report_search(report, t);
    }
    for c in &constraints {
        t.span("sparql.parse", 0, || kgreach::SubstructureConstraint::parse(c.sparql_text()))
            .expect("constraint parses");
    }
    report.set("sparql.parse_us", t.mean_us("sparql.parse"));
}

/// The same batches appended to a scratch log with `Wal::append` +
/// `flush` under the server's fsync policy.
fn wal_audit(
    report: &mut Report,
    t: &mut Tracer,
    run_dir: &Path,
    batches: &[kgreach_graph::UpdateBatch],
) {
    let path = run_dir.join("audit-wal.log");
    let mut wal = Wal::create(&path, 0, FsyncPolicy::Always).expect("create the audit log");
    let start_bytes = wal.len_bytes();
    for (i, batch) in batches.iter().enumerate() {
        t.span("kg.wal.append", i as u64, || wal.append(batch)).expect("append");
        t.span("kg.wal.flush", i as u64, || wal.flush()).expect("flush");
    }
    report.set("kg.wal.append_us", t.mean_us("kg.wal.append"));
    report.set("kg.wal.flush_us", t.mean_us("kg.wal.flush"));
    let n = batches.len().max(1) as f64;
    report.set("kg.wal.bytes_per_update", (wal.len_bytes() - start_bytes) as f64 / n);
    report.set("kg.wal.fsyncs_per_update", wal.syncs() as f64 / n);
}

/// The same batches through a second `DurableEngine` on a scratch dir,
/// timing `DurableEngine::apply_update` and its checkpoints.
fn durable_audit(
    report: &mut Report,
    t: &mut Tracer,
    run_dir: &Path,
    snapshot: &Path,
    batches: &[kgreach_graph::UpdateBatch],
) {
    let dir = run_dir.join("audit-durable");
    let snapshot = snapshot.to_path_buf();
    let (durable, _) =
        DurableEngine::open(&dir, wal_config(), move || LscrEngine::from_snapshot_file(&snapshot))
            .expect("open the audit data dir");
    let mut checkpoint_ns = 0u64;
    let mut checkpoints = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        t.span("core.durable.apply", i as u64, || durable.apply_update(batch)).expect("apply");
        let stats = durable.stats();
        if stats.checkpoints > checkpoints {
            checkpoints = stats.checkpoints;
            checkpoint_ns += stats.last_checkpoint_nanos;
        }
    }
    report.set("core.durable.apply_us", t.mean_us("core.durable.apply"));
    report
        .set("core.durable.checkpoint_ms", checkpoint_ns as f64 / checkpoints.max(1) as f64 / 1e6);
}
