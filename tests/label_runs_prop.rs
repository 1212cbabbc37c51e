//! Properties of the label-run expansion hot path: on arbitrary random
//! graphs and label constraints, `labeled_neighbors(v, L)` yields exactly
//! the edges the filtered full-slice scan yields (in the same order), the
//! incident-label masks agree with the adjacency, and the search-level
//! counters (`edges_skipped`, `scck_cache_hits`) observe the machinery
//! actually firing.

use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions, SearchScratch};
use kgreach_graph::{LabelSet, VertexId};
use kgreach_integration::{random_graph, random_typed_graph};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The tentpole equivalence: label-run iteration ≡ filtered scan, for
    /// every vertex of a random graph under a random constraint, in both
    /// directions.
    #[test]
    fn labeled_neighbors_equals_filtered_scan(
        seed in 0u64..10_000,
        n in 1usize..48,
        density in 1usize..5,
        labels in 1usize..12,
        label_bits in 0u64..4096,
    ) {
        let g = random_graph(n, n * density, labels, seed);
        let l = LabelSet::from_bits(label_bits).intersection(g.all_labels());
        for v in g.vertices() {
            // Candidate runs + the contract's caller-side label test.
            let out_runs: Vec<_> = g
                .labeled_out_neighbors(v, l)
                .flat_map(|run| run.iter().copied())
                .filter(|t| l.contains(t.label))
                .collect();
            let out_scan: Vec<_> =
                g.out_neighbors(v).iter().copied().filter(|t| l.contains(t.label)).collect();
            prop_assert_eq!(out_runs, out_scan, "out-edges of {} under {:?}", v, l);

            let in_runs: Vec<_> = g
                .labeled_in_neighbors(v, l)
                .flat_map(|run| run.iter().copied())
                .filter(|t| l.contains(t.label))
                .collect();
            let in_scan: Vec<_> =
                g.in_neighbors(v).iter().copied().filter(|t| l.contains(t.label)).collect();
            prop_assert_eq!(in_runs, in_scan, "in-edges of {} under {:?}", v, l);
        }
    }

    /// Structural invariants of the candidate runs: the incident-label
    /// mask is exactly the union of adjacency labels, the degree reported
    /// for skip accounting is the full degree, no edge is yielded twice,
    /// every matching edge is yielded exactly once, and a vertex with no
    /// usable label yields nothing at all.
    #[test]
    fn label_runs_structure(
        seed in 0u64..10_000,
        n in 1usize..32,
        density in 1usize..5,
        labels in 1usize..10,
        label_bits in 0u64..1024,
    ) {
        let g = random_graph(n, n * density, labels, seed);
        let l = LabelSet::from_bits(label_bits).intersection(g.all_labels());
        for v in g.vertices() {
            let expected_mask: LabelSet = g.out_neighbors(v).iter().map(|t| t.label).collect();
            prop_assert_eq!(g.out_label_mask(v), expected_mask);
            let runs = g.labeled_out_neighbors(v, l);
            prop_assert_eq!(runs.degree(), g.out_degree(v));
            let mut yielded = 0usize;
            let mut matched = 0usize;
            for run in g.labeled_out_neighbors(v, l) {
                prop_assert!(!run.is_empty());
                yielded += run.len();
                matched += run.iter().filter(|t| l.contains(t.label)).count();
            }
            prop_assert!(yielded <= g.out_degree(v), "an edge was yielded twice");
            let scan = g.out_neighbors(v).iter().filter(|t| l.contains(t.label)).count();
            prop_assert_eq!(matched, scan);
            if expected_mask.intersection(l).is_empty() {
                prop_assert_eq!(yielded, 0, "skippable vertex still yielded edges");
            }
        }
    }

    /// `edges_scanned + edges_skipped` never exceeds the total adjacency
    /// the search touched, and on narrow constraints over typed graphs
    /// (every vertex has an `rdf:type` edge the constraint excludes) a
    /// non-trivial search skips edges.
    #[test]
    fn search_stats_account_for_skipped_edges(
        seed in 0u64..5000,
        n in 8usize..40,
        density in 2usize..4,
        s_raw in 0u32..40,
        t_raw in 0u32..40,
    ) {
        let g = random_typed_graph(n, n * density, 4, 3, seed);
        let s = VertexId(s_raw % n as u32);
        let t = VertexId(t_raw % n as u32);
        // Only label l0: the rdf:type edges (and l1..l3) must be skipped.
        let l = g.label_set(&["l0"]);
        let c = kgreach::SubstructureConstraint::parse(
            "SELECT ?x WHERE { ?x <rdf:type> <C0> . }",
        ).unwrap();
        let q = LscrQuery::new(s, t, l, c);
        let cq = q.compile(&g).unwrap();
        let mut scratch = SearchScratch::new(g.num_vertices());
        let out = kgreach::uis::answer_with(&g, &cq, &mut scratch, &QueryOptions::default());
        // Every vertex carries an rdf:type out-edge the constraint
        // excludes, so as soon as one vertex is *expanded* at least one
        // edge is skipped; only the two zero-expansion shortcuts report
        // none: s = t with a satisfying s, and the mask precheck (s has
        // no l0 out-edge or t no l0 in-edge), which must then prove the
        // query false before any SCck or scan.
        if out.stats.negative_terminations > 0 {
            prop_assert!(!out.answer && s != t, "precheck fired wrongly: {:?}", out.stats);
            prop_assert_eq!(out.stats.scck_calls + out.stats.edges_scanned, 0);
        } else if !(s == t && out.answer) {
            prop_assert!(out.stats.edges_skipped > 0, "no edges skipped: {:?}", out.stats);
        }
        // Sanity: UIS with the cached SCck path still matches the oracle.
        prop_assert_eq!(out.answer, kgreach::oracle::answer(&g, &cq).answer);
    }
}

/// Repeated executions of queries sharing one compiled constraint hit the
/// SCck cache: the second run of the same query re-embeds nothing.
#[test]
fn scck_cache_hits_across_repeated_queries() {
    let g = random_typed_graph(40, 120, 4, 3, 7);
    let engine = LscrEngine::new(g);
    let g = engine.graph();
    let c =
        kgreach::SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <C1> . }").unwrap();
    let q = LscrQuery::new(VertexId(0), VertexId(17), g.all_labels(), c);
    let mut session = engine.session();
    let first = session.answer(&q, Algorithm::Uis).unwrap();
    let second = session.answer(&q, Algorithm::Uis).unwrap();
    assert_eq!(first.answer, second.answer);
    assert!(first.stats.scck_calls > 0);
    // Same constraint text → same plan-cache entry → the second run's SCck
    // calls are all cache hits.
    assert_eq!(
        second.stats.scck_cache_hits, second.stats.scck_calls,
        "second run should answer every SCck from the cache: {:?}",
        second.stats
    );
    // Concurrent sessions share the same cache through the engine.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let out = engine.answer(&q, Algorithm::Uis).unwrap();
                assert_eq!(out.answer, first.answer);
                assert_eq!(out.stats.scck_cache_hits, out.stats.scck_calls);
            });
        }
    });
}

/// The narrow-label regression the bench trajectory tracks: on a LUBM
/// workload with a 3-label constraint, UIS must report skipped edges and
/// agree with the oracle.
#[test]
fn narrow_label_lubm_queries_skip_edges() {
    let g = kgreach_integration::small_lubm(5);
    let engine = LscrEngine::new(g);
    let g = engine.graph();
    // Same definition of "narrow" the `-narrowL` bench groups use.
    let narrow = kgreach_datagen::top_label_set(&g, 3);
    let c = kgreach_datagen::constraints::s1();
    // Sources with real fan-out, so the search actually expands a region.
    let mut sources: Vec<VertexId> = g.vertices().collect();
    sources.sort_unstable_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
    let mut skipped_total = 0usize;
    let mut session = engine.session();
    for (&s, t) in sources.iter().take(4).zip([7u32, 950, 402, 88]) {
        let q = LscrQuery::new(s, VertexId(t), narrow, c.clone());
        let cq = engine.compile(&q).unwrap();
        let out = session.answer_compiled(&cq, Algorithm::Uis, &QueryOptions::default());
        assert_eq!(out.answer, kgreach::oracle::answer(&g, &cq).answer, "{s}->{t}");
        skipped_total += out.stats.edges_skipped;
    }
    assert!(skipped_total > 0, "narrow-label workload skipped no edges");
}
