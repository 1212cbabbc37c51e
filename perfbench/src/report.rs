//! The result line: end-to-end metrics for untraced runs, per-layer
//! metrics for traced runs, and the correctness tally.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("query_p50_ms", "ms"), ("queries_per_s", "1/s"), ("mem_mb", "MB")];

/// Per-layer metrics, reported by every workload's traced run (0 where a
/// layer is not on the workload's path).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.client.wire_us", "us"),
    ("serve.server.request_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.json.write_us", "us"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.resolve_us", "us"),
    ("serve.protocol.render_us", "us"),
    ("serve.json.bytes_in", "bytes"),
    ("serve.json.bytes_out", "bytes"),
    ("serve.batch.enqueue_to_answer_us", "us"),
    ("serve.batch.window_size", "count"),
    ("serve.batch.shed", "count"),
    ("serve.batch.queue_depth_max", "count"),
    ("core.engine.compile_us", "us"),
    ("core.engine.plan_cache_hit_ratio", "ratio"),
    ("core.session.answer_us.uis", "us"),
    ("core.session.answer_us.uis_star", "us"),
    ("core.session.answer_us.ins", "us"),
    ("core.session.kernel_share", "ratio"),
    ("core.search.edges_scanned", "count"),
    ("core.search.edges_skipped", "count"),
    ("core.search.backward_edges_scanned", "count"),
    ("core.search.passed_vertices", "count"),
    ("core.search.pushes", "count"),
    ("core.search.lcs_invocations", "count"),
    ("core.search.index_hits", "count"),
    ("core.search.negative_terminations", "count"),
    ("core.search.frontier_prunes", "count"),
    ("core.search.vsg_size", "count"),
    ("core.search.scck_cache_hit_ratio", "ratio"),
    ("core.planner.choice_share.uis", "ratio"),
    ("core.planner.choice_share.uis_star", "ratio"),
    ("core.planner.choice_share.ins", "ratio"),
    ("core.planner.regret_p50", "ratio"),
    ("core.planner.regret_p99", "ratio"),
    ("core.planner.budget_exhausted.auto", "count"),
    ("core.planner.budget_exhausted.uis", "count"),
    ("core.planner.budget_exhausted.uis_star", "count"),
    ("core.planner.budget_exhausted.ins", "count"),
    ("sparql.parse_us", "us"),
    ("sparql.vsg_us", "us"),
    ("kg.snapshot.read_s", "s"),
    ("kg.snapshot.decode_s", "s"),
    ("core.local_index.build_s", "s"),
    ("core.local_index.bytes", "bytes"),
    ("kg.wal.append_us", "us"),
    ("kg.wal.flush_us", "us"),
    ("core.engine.apply_update_us", "us"),
    ("core.durable.apply_us", "us"),
    ("kg.wal.bytes_per_update", "bytes"),
    ("kg.wal.fsyncs_per_update", "count"),
    ("core.durable.checkpoints", "count"),
    ("core.durable.checkpoint_ms", "ms"),
    ("core.local_index.partitions_repaired", "count"),
    ("core.durable.recover_load_s", "s"),
    ("core.durable.replay_s", "s"),
    ("query_p99_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("recovery_s", "s"),
    ("max_qps_at_slo", "1/s"),
    ("failed_frac", "ratio"),
    ("loadgen.send_lag_p99_ms", "ms"),
    ("loadgen.backlog_growth_rungs", "count"),
    ("loadgen.samples", "count"),
    ("loadgen.samples_beyond_p99", "count"),
    ("trace.overhead_query_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    /// Wire errors, requests still shed after retries, interrupted
    /// searches and wrong answers.
    pub failed: u64,
    /// Wrong answers and end-of-run state mismatches (a subset of
    /// `failed`; any makes the run incorrect).
    pub wrong: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// Records a metric; the name must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Folds another tally (e.g. one load thread's) into this one.
    pub fn absorb(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.correct &= other.correct;
    }

    /// Counts one wrong answer or state mismatch.
    pub fn wrong_answer(&mut self, what: &str) {
        if self.wrong < 5 {
            eprintln!("perfbench: MISMATCH {what}");
        }
        self.wrong += 1;
        self.failed += 1;
        self.correct = false;
    }

    /// The result line: `--trace 0` lists [`END_TO_END`], `--trace 1`
    /// lists [`PER_LAYER`]; metrics a workload did not set read 0.
    pub fn to_json(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                format!("\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}", self.get(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `mem_mb`: the resident memory one set-up adds, measured in a fresh
/// child process (`--mem-probe`) so neither the allocator's reuse of
/// memory freed by input generation nor the timed run affects it.
pub fn probe_mem(args: &crate::Args) -> f64 {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string(), "--mem-probe"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run the memory probe");
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(mb) if out.status.success() => mb,
        _ => panic!("memory probe failed ({}): {text}", out.status),
    }
}

/// Runs one set-up in this process and prints the resident memory it
/// added, for [`probe_mem`]; `setup` returns whatever must stay alive
/// until the measurement is taken.
pub fn mem_probe_main<T>(setup: impl FnOnce() -> T, teardown: impl FnOnce(T)) -> ! {
    let before = rss_mb();
    let state = setup();
    println!("{}", rss_mb() - before);
    teardown(state);
    std::process::exit(0)
}

/// Resident set size of this process in MiB (Linux `/proc`; 0 elsewhere).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn json_lists_every_metric_of_the_mode() {
        let mut r = Report::new();
        r.set("setup_s", 0.5);
        r.attempted = 3;
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
