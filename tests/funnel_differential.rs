//! Differential coverage for the bidirectional / negative-termination
//! query paths on the deterministic funnel fixtures.
//!
//! The funnel family (see `kgreach_datagen::funnel`) pairs a wide spray
//! region with a narrow gate chain, in both orientations. Over it we
//! check two things:
//!
//! 1. **Agreement** — every algorithm (including `Auto`'s planner
//!    choices) answers exactly like the brute-force oracle for *every*
//!    `(s, t)` pair under the canonical label sets, so the bidirectional
//!    race, its completion cleanups and the mask prechecks can't disagree
//!    with the classic semantics anywhere on the fixture.
//! 2. **Coverage** — the new `SearchStats` counters prove the intended
//!    paths actually ran: the true query walks the backward frontier
//!    (`backward_edges_scanned > 0`) and the label-starved queries die in
//!    the O(1) mask precheck (`negative_terminations > 0` with zero edges
//!    scanned), rather than silently falling back to forward-only search.

use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions, SubstructureConstraint};
use kgreach_datagen::funnel::{self, FunnelConfig};
use kgreach_graph::VertexId;

fn gate_constraint() -> SubstructureConstraint {
    SubstructureConstraint::parse(funnel::GATE_CONSTRAINT).unwrap()
}

fn engine_for(mirrored: bool, cfg: &FunnelConfig) -> LscrEngine {
    let g = funnel::generate(&FunnelConfig { mirrored, ..cfg.clone() }).unwrap();
    LscrEngine::new(g)
}

/// Every `(s, t)` pair × label set × algorithm agrees with the oracle,
/// on the forward and the mirrored fixture — under default options, with
/// the bidirectional candidate gate forced open (so the meet-in-the-middle
/// race, its cleanup loops and the prune arms are all swept
/// differentially) and with it forced shut (so the classic candidate
/// loop is swept too).
#[test]
fn all_algorithms_agree_with_oracle_on_both_orientations() {
    // Small enough that the full |V|² sweep against the oracle is cheap,
    // large enough that the spray region dwarfs the funnel.
    let cfg = FunnelConfig { fan: 5, leaves_per_fan: 2, depth: 3, mirrored: false };
    let c = gate_constraint();
    let defaults = QueryOptions::default();
    let forced_bidi = QueryOptions::default().with_bidi_min_candidates(0);
    let forced_classic = QueryOptions::default().with_bidi_min_candidates(usize::MAX);
    for mirrored in [false, true] {
        let engine = engine_for(mirrored, &cfg);
        let g = engine.graph();
        let label_sets = [
            g.label_set(&["spray", "needle"]),
            g.label_set(&["spray"]),
            g.label_set(&["needle"]),
            // Broad L is not mask-selective: expansion runs without the
            // incident-label mask skips.
            g.all_labels(),
        ];
        for s in 0..g.num_vertices() as u32 {
            for t in 0..g.num_vertices() as u32 {
                for labels in label_sets {
                    let q = LscrQuery::new(VertexId(s), VertexId(t), labels, c.clone());
                    let want = engine.answer(&q, Algorithm::Oracle).unwrap().answer;
                    for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto]
                    {
                        for opts in [&defaults, &forced_bidi, &forced_classic] {
                            let out = engine.answer_with_options(&q, alg, opts).unwrap();
                            assert_eq!(
                                out.answer, want,
                                "mirrored={mirrored} {alg:?} (bidi_min_candidates={:?}) \
                                 disagrees with oracle on ({s}, {t}, {labels:?})",
                                opts.bidi_min_candidates,
                            );
                            assert!(!out.interrupted, "unbudgeted search got interrupted");
                        }
                    }
                }
            }
        }
    }
}

/// The canonical true query actually runs the meet-in-the-middle race
/// *under default options* — the default fixture's gate chain exceeds
/// the candidate-count gate — and the backward frontier scans edges,
/// under the selective `{spray, needle}` and the broad all-labels `L`
/// alike.
#[test]
fn true_query_exercises_the_backward_frontier() {
    let cfg = FunnelConfig::default();
    let c = gate_constraint();
    for mirrored in [false, true] {
        let engine = engine_for(mirrored, &cfg);
        let g = engine.graph();
        let broad = g.all_labels();
        assert!(!g.expansion_selective(broad), "all labels must be a broad L");
        for labels in [g.label_set(&["spray", "needle"]), broad] {
            let q = LscrQuery::new(
                g.vertex_id("src").unwrap(),
                g.vertex_id("dst").unwrap(),
                labels,
                c.clone(),
            );
            for alg in [Algorithm::UisStar, Algorithm::Ins] {
                let out = engine.answer(&q, alg).unwrap();
                assert!(out.answer, "mirrored={mirrored} {alg:?} {labels:?}: src ⇝ dst must hold");
                assert!(
                    out.stats.backward_edges_scanned > 0,
                    "mirrored={mirrored} {alg:?} {labels:?}: bidirectional phase never ran \
                     (stats: {:?})",
                    out.stats
                );
            }
        }
    }
}

/// Label-starved queries die in the O(1) incident-mask precheck: proven
/// false, zero edges scanned, and *not* reported as interrupted.
#[test]
fn label_starved_queries_terminate_negatively_without_expansion() {
    let cfg = FunnelConfig::default();
    let c = gate_constraint();
    for mirrored in [false, true] {
        let engine = engine_for(mirrored, &cfg);
        let g = engine.graph();
        // On the forward fixture `{spray}` starves the target's in-mask
        // and `{needle}` the source's out-mask; mirroring swaps which
        // side trips, so both precheck arms get exercised either way.
        for starving in ["spray", "needle"] {
            let q = LscrQuery::new(
                g.vertex_id("src").unwrap(),
                g.vertex_id("dst").unwrap(),
                g.label_set(&[starving]),
                c.clone(),
            );
            for alg in [Algorithm::UisStar, Algorithm::Ins] {
                let out = engine.answer(&q, alg).unwrap();
                assert!(!out.answer, "mirrored={mirrored} {alg:?} {starving}: must be false");
                assert!(!out.interrupted, "proven negatives are answers, not timeouts");
                assert!(
                    out.stats.negative_terminations > 0,
                    "mirrored={mirrored} {alg:?} {starving}: precheck never fired \
                     (stats: {:?})",
                    out.stats
                );
                assert_eq!(
                    out.stats.edges_scanned, 0,
                    "mirrored={mirrored} {alg:?} {starving}: negative termination \
                     must precede any expansion"
                );
            }
        }
    }
}

/// The decoy candidate in the spray region never flips an answer: drop
/// the needle labels and the gates become unreachable, so the only
/// remaining candidate (`leaf0_0`) must be rejected by the cleanup arms.
#[test]
fn decoy_candidate_is_rejected_by_cleanup() {
    let cfg = FunnelConfig::default();
    let c = gate_constraint();
    for mirrored in [false, true] {
        let engine = engine_for(mirrored, &cfg);
        let g = engine.graph();
        // chaff ∪ spray reaches leaf0_0 from the wide side, while the
        // gate candidates stay unreachable without `needle`: the only
        // live candidate is the decoy itself, at an endpoint.
        let (s, t) = if mirrored { ("leaf0_0", "dst") } else { ("src", "leaf0_0") };
        let q = LscrQuery::new(
            g.vertex_id(s).unwrap(),
            g.vertex_id(t).unwrap(),
            g.label_set(&["spray", "chaff"]),
            c.clone(),
        );
        let want = engine.answer(&q, Algorithm::Oracle).unwrap().answer;
        assert!(want, "the decoy itself is a reachable candidate endpoint");
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert_eq!(engine.answer(&q, alg).unwrap().answer, want, "{alg:?}");
        }
    }
}
