//! End-to-end pipeline tests: generators → constraints → workloads →
//! all three algorithms → consistency with the oracle, across crates.

use kgreach::{Algorithm, LocalIndexConfig, LscrEngine, LscrQuery};
use kgreach_datagen::constraints::{all_lubm_constraints, s1, s3};
use kgreach_datagen::queries::{generate_workload, QueryGenConfig};
use kgreach_integration::small_lubm;
use std::sync::Arc;

#[test]
fn full_lubm_pipeline_s1_to_s5() {
    let engine = LscrEngine::new(small_lubm(21));
    let g = engine.graph();
    let mut session = engine.session();
    for (name, constraint) in all_lubm_constraints() {
        let w = generate_workload(
            &g,
            &constraint,
            &QueryGenConfig {
                num_true: 3,
                num_false: 3,
                seed: 5,
                max_attempts: 30_000,
                enforce_difficulty: false,
            },
        );
        for gq in w.true_queries.iter().chain(&w.false_queries) {
            for alg in [
                Algorithm::Uis,
                Algorithm::UisStar,
                Algorithm::Ins,
                Algorithm::Oracle,
                Algorithm::Auto,
            ] {
                let out = session.answer(&gq.query, alg).unwrap();
                assert_eq!(
                    out.answer, gq.expected,
                    "{name}: {alg} wrong on {} → {}",
                    gq.query.source, gq.query.target
                );
            }
        }
    }
}

#[test]
fn workload_is_reusable_across_engines() {
    let g = Arc::new(small_lubm(22));
    let w = generate_workload(
        &g,
        &s3(),
        &QueryGenConfig {
            num_true: 4,
            num_false: 4,
            seed: 6,
            max_attempts: 30_000,
            enforce_difficulty: false,
        },
    );
    // Two engines sharing one graph, with different index layouts, must
    // agree.
    let e1 = LscrEngine::with_index_config(
        Arc::clone(&g),
        LocalIndexConfig { num_landmarks: Some(32), seed: 1, ..Default::default() },
    );
    let e2 = LscrEngine::with_index_config(
        Arc::clone(&g),
        LocalIndexConfig { num_landmarks: Some(500), seed: 2, ..Default::default() },
    );
    for gq in w.true_queries.iter().chain(&w.false_queries) {
        let a = e1.answer(&gq.query, Algorithm::Ins).unwrap().answer;
        let b = e2.answer(&gq.query, Algorithm::Ins).unwrap().answer;
        assert_eq!(a, gq.expected);
        assert_eq!(b, gq.expected);
    }
}

#[test]
fn graph_io_roundtrip_preserves_answers() {
    let g = small_lubm(23);
    let mut bytes = Vec::new();
    kgreach_graph::io::write_graph(&g, &mut bytes).unwrap();
    let g2 = kgreach_graph::io::read_graph(&bytes[..]).unwrap();
    assert_eq!(g2.num_vertices(), g.num_vertices());
    assert_eq!(g2.num_edges(), g.num_edges());

    // Same query by *name* answers identically on both copies (ids may
    // differ after a round-trip; names are the stable identity).
    let c = s1();
    let make = |g: &kgreach_graph::Graph| {
        LscrQuery::new(
            g.vertex_id("UndergraduateStudent0.Department0.University0").unwrap(),
            g.vertex_id("University1").unwrap(),
            g.all_labels(),
            c.clone(),
        )
    };
    let e1 = LscrEngine::new(g);
    let e2 = LscrEngine::new(g2);
    let a = e1.answer(&make(&e1.graph()), Algorithm::Uis).unwrap().answer;
    let b = e2.answer(&make(&e2.graph()), Algorithm::Uis).unwrap().answer;
    assert_eq!(a, b);
}

#[test]
fn lcr_baselines_agree_on_lubm() {
    use kgreach_graph::traverse::lcr_reachable;
    use kgreach_lcr::{Budget, LandmarkConfig, LandmarkIndex, OnlineLcr, ZouIndex};
    use rand::{Rng, SeedableRng};

    let g = small_lubm(24);
    let landmark = LandmarkIndex::build(
        &g,
        &LandmarkConfig { num_landmarks: Some(40), b: 5 },
        Budget::unlimited(),
    )
    .unwrap();
    let zou = ZouIndex::build(&g, Budget::unlimited()).unwrap();
    let mut online = OnlineLcr::new(g.num_vertices());

    let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
    for _ in 0..150 {
        let s = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
        let t = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
        let l = kgreach_graph::LabelSet::from_bits(rng.gen::<u64>()).intersection(g.all_labels());
        let expected = lcr_reachable(&g, s, t, l);
        assert_eq!(online.bfs(&g, s, t, l).0, expected, "online bfs {s}->{t}");
        assert_eq!(online.dfs(&g, s, t, l).0, expected, "online dfs {s}->{t}");
        assert_eq!(landmark.reaches(&g, s, t, l), expected, "landmark {s}->{t}");
        assert_eq!(zou.reaches(&g, s, t, l), expected, "zou {s}->{t}");
    }
}

#[test]
fn sparql_vsg_equals_brute_force_scck() {
    let g = small_lubm(25);
    for (name, constraint) in all_lubm_constraints() {
        let compiled = constraint.compile(&g).unwrap();
        let via_engine = compiled.satisfying_vertices(&g);
        let via_scck: Vec<_> = g.vertices().filter(|&v| compiled.satisfies(&g, v)).collect();
        assert_eq!(via_engine, via_scck, "{name}: V(S,G) mismatch");
    }
}

#[test]
fn passed_vertex_metric_ordering() {
    // INS's pruning should never pass *more* vertices than UIS* on the
    // same true query (both are V(S,G)-driven; INS adds index pruning).
    // This is the paper's Figures 10-14 passed-vertex ordering.
    let g = small_lubm(26);
    let w = generate_workload(
        &g,
        &s3(),
        &QueryGenConfig {
            num_true: 6,
            num_false: 0,
            seed: 8,
            max_attempts: 30_000,
            enforce_difficulty: false,
        },
    );
    let engine = LscrEngine::new(g);
    let mut session = engine.session();
    let mut ins_total = 0usize;
    let mut uis_total = 0usize;
    for gq in &w.true_queries {
        ins_total += session.answer(&gq.query, Algorithm::Ins).unwrap().stats.passed_vertices;
        uis_total += session.answer(&gq.query, Algorithm::Uis).unwrap().stats.passed_vertices;
    }
    assert!(
        ins_total <= uis_total * 2,
        "INS passed {ins_total} vs UIS {uis_total}: pruning regressed badly"
    );
}

/// UIS runs the shared O(1) mask precheck before any `SCck`: a narrow-`L`
/// S3 query whose source has no out-label in `L` — exactly the queries
/// Auto routes to UIS — is proven false with zero `SCck` calls, while
/// `s = t` still decides by `SCck(s)`.
#[test]
fn uis_label_starved_source_skips_scck() {
    let engine = LscrEngine::new(small_lubm(23));
    let g = engine.graph();
    let narrow = kgreach_datagen::top_label_set(&g, 3);
    let starved =
        g.vertices().find(|&v| g.out_label_mask(v).intersection(narrow).is_empty()).unwrap();
    let target = g
        .vertices()
        .find(|&v| v != starved && !g.in_label_mask(v).intersection(narrow).is_empty())
        .unwrap();
    let q = LscrQuery::new(starved, target, narrow, s3());
    let mut session = engine.session();
    for alg in [Algorithm::Uis, Algorithm::Auto] {
        let out = session.answer(&q, alg).unwrap();
        assert_eq!(out.stats.algorithm, Some(Algorithm::Uis), "{alg}");
        assert!(!out.answer && !out.interrupted, "{alg}");
        assert_eq!(out.stats.scck_calls, 0, "{alg}: precheck must precede SCck(s)");
        assert_eq!(out.stats.negative_terminations, 1, "{alg}");
        assert_eq!(out.stats.edges_scanned, 0, "{alg}");
    }

    // s = t under an empty L (which starves every endpoint): the zero-edge
    // path is decided by SCck(s), never by the precheck.
    let vsg = engine.compile(&q).unwrap().constraint.satisfying_vertices_cached(&g);
    let sat = vsg[0];
    let unsat = g.vertices().find(|v| !vsg.contains(v)).unwrap();
    for (v, want) in [(sat, true), (unsat, false)] {
        let q = LscrQuery::new(v, v, kgreach_graph::LabelSet::EMPTY, s3());
        let out = session.answer(&q, Algorithm::Uis).unwrap();
        assert_eq!(out.answer, want, "s = t = {v}");
        assert_eq!(out.stats.scck_calls, 1, "s = t = {v}");
        assert_eq!(out.stats.negative_terminations, 0, "s = t = {v}");
    }
}
