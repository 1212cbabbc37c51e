//! Dynamic-update differential suite: an engine that *applied* an edit
//! stream must be indistinguishable from an engine *rebuilt* from the
//! final triple set — on every algorithm, sequentially and under
//! multi-threaded `answer_batch`, with the local index maintained
//! incrementally along the way.
//!
//! Vertex/label ids differ between the two engines (the live engine
//! interns update names incrementally; the rebuild interns in triple
//! order), so all comparisons translate queries **by name**.

use kgreach::{Algorithm, LocalIndexConfig, LscrEngine, LscrQuery, SubstructureConstraint};
use kgreach_datagen::updates::{update_workload, UpdateWorkloadConfig};
use kgreach_graph::{Graph, GraphBuilder, LabelSet, Triple, UpdateBatch};
use kgreach_integration::random_typed_graph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a graph from a triple list.
fn graph_from(triples: &[Triple]) -> Graph {
    let mut b = GraphBuilder::new();
    for t in triples {
        b.add(t);
    }
    b.build().expect("labels fit")
}

/// Translates a `(source, target, labels)` query from `from`'s id space
/// to `to`'s, by names. Returns `None` when an endpoint name does not
/// exist in `to` (possible for vertices whose every edge was deleted).
fn translate(
    q: &LscrQuery,
    from: &Graph,
    to: &Graph,
    constraint: &SubstructureConstraint,
) -> Option<LscrQuery> {
    let s = to.vertex_id(from.vertex_name(q.source))?;
    let t = to.vertex_id(from.vertex_name(q.target))?;
    let mut labels = LabelSet::EMPTY;
    for l in q.label_constraint.iter() {
        if let Some(tl) = to.label_id(from.label_name(l)) {
            labels.insert(tl);
        }
        // A label name missing in `to` has zero edges there; dropping it
        // from L is answer-preserving.
    }
    Some(LscrQuery::new(s, t, labels, constraint.clone()))
}

/// Asserts the two engines answer identically on every (s, t) name pair
/// under several label sets and `constraint`, across all algorithms.
fn assert_engines_agree(
    live: &LscrEngine,
    rebuilt: &LscrEngine,
    constraint: &SubstructureConstraint,
    context: &str,
) {
    let lg = live.graph();
    let rg = rebuilt.graph();
    let label_sets = [
        rg.all_labels(),
        {
            // Half the alphabet, id-deterministic on the rebuilt graph.
            let mut half = LabelSet::EMPTY;
            for (i, l) in rg.all_labels().iter().enumerate() {
                if i % 2 == 0 {
                    half.insert(l);
                }
            }
            half
        },
        {
            // One narrow label: |L| ≪ alphabet is always mask-selective,
            // so the overlay's incident-label masks get to skip whole
            // vertices in both expansion directions.
            let mut one = LabelSet::EMPTY;
            if let Some(l) = rg.label_id("l0") {
                one.insert(l);
            }
            one
        },
    ];
    // These fixtures are far smaller than the production candidate-count
    // gate: force it open so every label set above drives the backward
    // frontier over the overlay's *reverse* expansion view
    // (`in_expansion`), and shut so the classic candidate loop runs over
    // the overlay too.
    let forced_bidi = kgreach::QueryOptions::default().with_bidi_min_candidates(0);
    let forced_classic = kgreach::QueryOptions::default().with_bidi_min_candidates(usize::MAX);
    for s in rg.vertices() {
        for t in rg.vertices() {
            for &labels in &label_sets {
                let rq = LscrQuery::new(s, t, labels, constraint.clone());
                let Some(lq) = translate(&rq, &rg, &lg, constraint) else {
                    panic!("{context}: rebuilt vertex missing in live graph");
                };
                let expected = rebuilt.answer(&rq, Algorithm::Oracle).unwrap().answer;
                let runs = [
                    (Algorithm::Uis, &forced_bidi),
                    (Algorithm::UisStar, &forced_bidi),
                    (Algorithm::UisStar, &forced_classic),
                    (Algorithm::Ins, &forced_bidi),
                    (Algorithm::Ins, &forced_classic),
                    (Algorithm::Auto, &forced_bidi),
                    (Algorithm::Auto, &forced_classic),
                ];
                for (alg, opts) in runs {
                    let live_ans = live.answer_with_options(&lq, alg, opts).unwrap().answer;
                    let rebuilt_ans = rebuilt.answer_with_options(&rq, alg, opts).unwrap().answer;
                    let gate = opts.bidi_min_candidates;
                    prop_assert_eq_plain(
                        live_ans,
                        expected,
                        &format!("{context}: live {alg} (gate {gate:?}) vs oracle on {s}->{t}"),
                    );
                    prop_assert_eq_plain(
                        rebuilt_ans,
                        expected,
                        &format!("{context}: rebuilt {alg} (gate {gate:?}) vs oracle on {s}->{t}"),
                    );
                }
            }
        }
    }
}

fn prop_assert_eq_plain(a: bool, b: bool, msg: &str) {
    assert_eq!(a, b, "{msg}");
}

/// The random edit script: seeded ops over a bounded name universe, so
/// inserts collide with existing edges, deletes hit absent edges, and
/// vertices interned mid-script get reused — all the overlay edge cases.
fn random_batches(seed: u64, rounds: usize) -> Vec<UpdateBatch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batches = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..6) {
            let s = format!("n{}", rng.gen_range(0..16));
            let p = format!("l{}", rng.gen_range(0..4));
            let o = format!("n{}", rng.gen_range(0..16));
            if rng.gen_range(0..3) == 0 {
                batch.delete(&s, &p, &o);
            } else {
                batch.insert(&s, &p, &o);
            }
        }
        batches.push(batch);
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// On random graphs and random update scripts, the updated engine
    /// (index maintained incrementally) answers identically to an engine
    /// rebuilt from its final triples — for all four algorithms.
    #[test]
    fn overlay_engine_equals_rebuilt_engine(
        seed in 0u64..2000,
        n in 6usize..14,
        density in 1usize..3,
        rounds in 1usize..5,
    ) {
        let base = random_typed_graph(n, n * density, 3, 2, seed);
        let live = LscrEngine::with_index_config(
            base,
            LocalIndexConfig { num_landmarks: Some(3), seed, ..Default::default() },
        );
        let _ = live.local_index(); // exercise incremental maintenance
        for batch in random_batches(seed ^ 0xabcd, rounds) {
            live.apply_update(&batch).unwrap();
        }
        let final_triples: Vec<Triple> = live.graph().to_triples().collect();
        let rebuilt = LscrEngine::with_index_config(
            graph_from(&final_triples),
            LocalIndexConfig { num_landmarks: Some(3), seed, ..Default::default() },
        );
        let constraint = SubstructureConstraint::parse(
            "SELECT ?x WHERE { ?x <rdf:type> <C0> . ?x <l0> ?y . }",
        ).unwrap();
        assert_engines_agree(&live, &rebuilt, &constraint, "proptest");
    }
}

/// The acceptance-criteria scenario: an S1–S3 evaluation workload on a
/// LUBM replica, answered identically by the streamed-updates engine and
/// the rebuilt engine — sequentially and under 8-thread `answer_batch`.
#[test]
fn s_workloads_agree_after_update_stream() {
    let final_graph = kgreach_integration::small_lubm(21);
    let final_triples: Vec<Triple> = final_graph.to_triples().collect();
    let w = update_workload(
        &final_triples,
        &UpdateWorkloadConfig {
            holdout_fraction: 0.05,
            batch_size: 40,
            churn_per_batch: 3,
            seed: 77,
        },
    );

    let cfg = LocalIndexConfig { num_landmarks: Some(24), seed: 5, ..Default::default() };
    let live = LscrEngine::with_index_config(graph_from(&w.base), cfg.clone());
    let _ = live.local_index();
    let mut patched_batches = 0usize;
    for batch in &w.batches {
        let out = live.apply_update(batch).unwrap();
        if matches!(out.index, kgreach::IndexMaintenance::Patched { .. }) {
            patched_batches += 1;
        }
    }
    assert!(patched_batches > 0, "the stream must exercise partition-local repair");
    let rebuilt = LscrEngine::with_index_config(graph_from(&final_triples), cfg);

    let lg = live.graph();
    let rg = rebuilt.graph();
    assert_eq!(lg.num_edges(), rg.num_edges(), "streams must replay to the final set");

    use kgreach_datagen::constraints::{s1, s2, s3};
    let algs = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto];
    for (name, constraint) in [("S1", s1()), ("S2", s2()), ("S3", s3())] {
        let workload = kgreach_datagen::queries::generate_workload(
            &rg,
            &constraint,
            &kgreach_datagen::QueryGenConfig {
                num_true: 6,
                num_false: 6,
                seed: 13,
                max_attempts: 60_000,
                enforce_difficulty: false,
            },
        );
        let mut rebuilt_queries = Vec::new();
        let mut live_queries = Vec::new();
        for (i, gq) in workload.true_queries.iter().chain(&workload.false_queries).enumerate() {
            let lq = translate(&gq.query, &rg, &lg, &constraint)
                .expect("every final-set name exists in the live graph");
            let alg = algs[i % algs.len()];
            rebuilt_queries.push((gq.query.clone(), alg));
            live_queries.push((lq, alg));
        }
        // Sequential agreement, every algorithm.
        for ((rq, _), (lq, _)) in rebuilt_queries.iter().zip(&live_queries) {
            let expected = rebuilt.answer(rq, Algorithm::Oracle).unwrap().answer;
            for alg in algs {
                assert_eq!(
                    live.answer(lq, alg).unwrap().answer,
                    expected,
                    "{name}: live {alg} disagrees with rebuilt oracle"
                );
                assert_eq!(
                    rebuilt.answer(rq, alg).unwrap().answer,
                    expected,
                    "{name}: rebuilt {alg} disagrees with its own oracle"
                );
            }
        }
        // 8-thread shared-engine agreement.
        let live_results = live.answer_batch(&live_queries, 8);
        let rebuilt_results = rebuilt.answer_batch(&rebuilt_queries, 8);
        for (i, (lr, rr)) in live_results.iter().zip(&rebuilt_results).enumerate() {
            assert_eq!(
                lr.as_ref().unwrap().answer,
                rr.as_ref().unwrap().answer,
                "{name}: 8-thread batch disagreement on query {i}"
            );
        }
    }
}

/// Concurrent updates against concurrent readers: queries never crash,
/// never see a half-applied batch (each batch toggles one edge that
/// makes a two-hop route exist/vanish), and the final state is exact.
#[test]
fn updates_race_queries_safely() {
    let mut b = GraphBuilder::new();
    b.add_triple("src", "p", "mid");
    b.add_triple("src", "marker", "anchor");
    let engine = LscrEngine::new(b.build().unwrap());
    let constraint =
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <marker> <anchor> . }").unwrap();
    // "mid" -> "dst" flips in and out of existence; reachability of dst
    // tracks it, and "src" always satisfies the constraint.
    std::thread::scope(|scope| {
        let engine = &engine;
        let writer = scope.spawn(move || {
            for i in 0..60 {
                let mut batch = UpdateBatch::new();
                if i % 2 == 0 {
                    batch.insert("mid", "p", "dst");
                } else {
                    batch.delete("mid", "p", "dst");
                }
                engine.apply_update(&batch).unwrap();
            }
        });
        for _ in 0..2 {
            let constraint = constraint.clone();
            scope.spawn(move || {
                let mut session = engine.session();
                for _ in 0..200 {
                    let g = engine.graph();
                    let (Some(s), Some(m)) = (g.vertex_id("src"), g.vertex_id("mid")) else {
                        continue;
                    };
                    // src -> mid always holds regardless of the writer.
                    let q = LscrQuery::new(s, m, g.all_labels(), constraint.clone());
                    assert!(session.answer(&q, Algorithm::Uis).unwrap().answer);
                    if let Some(d) = g.vertex_id("dst") {
                        let q = LscrQuery::new(s, d, g.all_labels(), constraint.clone());
                        // May be true or false depending on the writer's
                        // phase; must simply not crash or wedge.
                        let _ = session.answer(&q, Algorithm::Auto).unwrap();
                    }
                }
            });
        }
        writer.join().unwrap();
    });
    // Final state: 60 batches end on a delete (i = 59 odd).
    let g = engine.graph();
    assert_eq!(g.num_edges(), 2);
    assert_eq!(engine.graph_epoch(), 60);
}

/// Snapshot persistence mid-overlay: saving a live engine compacts on
/// the fly; the restored engine answers identically and fingerprints
/// match.
#[test]
fn snapshot_mid_overlay_roundtrips() {
    let engine = LscrEngine::with_index_config(
        kgreach_integration::random_typed_graph(20, 40, 3, 2, 9),
        LocalIndexConfig { num_landmarks: Some(4), seed: 9, ..Default::default() },
    );
    let _ = engine.local_index();
    let mut batch = UpdateBatch::new();
    batch.insert("n1", "l0", "fresh").insert("fresh", "l1", "n2").delete("n0", "rdf:type", "C0");
    engine.apply_update(&batch).unwrap();
    assert!(engine.graph().has_overlay());

    let mut bytes = Vec::new();
    engine.save_snapshot(&mut bytes).unwrap();
    let restored = LscrEngine::from_snapshot(&bytes[..]).unwrap();
    assert_eq!(restored.graph().fingerprint(), engine.graph().fingerprint());
    assert!(!restored.graph().has_overlay(), "snapshots restore compact");
    assert!(restored.local_index_if_built().is_some(), "maintained index travels");

    let g = engine.graph();
    let rg = restored.graph();
    let constraint = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <l0> ?y . }").unwrap();
    for s in g.vertices() {
        for t in g.vertices() {
            let q = LscrQuery::new(s, t, g.all_labels(), constraint.clone());
            let rq = translate(&q, &g, &rg, &constraint).expect("same name universe");
            for alg in [Algorithm::Uis, Algorithm::Ins, Algorithm::Auto] {
                assert_eq!(
                    engine.answer(&q, alg).unwrap().answer,
                    restored.answer(&rq, alg).unwrap().answer,
                    "{alg} disagrees after mid-overlay snapshot"
                );
            }
        }
    }

    // Graph-level snapshot of a live graph also round-trips.
    let mut gbytes = Vec::new();
    kgreach_graph::snapshot::write_graph_snapshot(&g, &mut gbytes).unwrap();
    let gg = kgreach_graph::snapshot::read_graph_snapshot(&gbytes[..]).unwrap();
    assert_eq!(gg.fingerprint(), g.fingerprint());
}
