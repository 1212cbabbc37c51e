//! UIS\* — the improved uninformed search (paper Algorithm 2).
//!
//! Instead of probing every visited vertex with `SCck`, UIS\* materializes
//! `V(S,G)` once (through the SPARQL engine) and reduces the LSCR query to
//! a sequence of label-constrained reachability checks
//! `s ⇝_L v` / `v ⇝_L t` for `v ∈ V(S,G)`, run by the shared function
//! `LCS(s*, t*, L, B)` over one **global stack** and one `close` map:
//!
//! * `B = F` invocations explore the still-unexplored (`N`) region
//!   reachable from `s` — across all invocations they amount to a single
//!   traversal (Theorem 4.1);
//! * `B = T` invocations re-explore from a satisfying vertex, upgrading
//!   `F` vertices to `T` — again each vertex is upgraded at most once.
//!
//! Total work is `O(|V| + |E|)` (Theorem 4.5) — but the paper's evaluation
//! shows the *order* in which `V(S,G)` is processed dominates real
//! performance (§6: UIS\* often loses to plain UIS because the set is
//! unordered and the search keeps "falling into bad directions"; INS fixes
//! exactly this). [`VsgOrder::Shuffled`] reproduces that unordered
//! behaviour.
//!
//! The control flow around `LCS` — the mask prechecks, the candidate loop
//! and the bidirectional phase (ARCHITECTURE.md, "Query lifecycle") — is
//! shared with INS and lives in `bidi.rs`; this module supplies the stack
//! frontier, its forward step and `LCS`.
//!
//! ```
//! use kgreach::{LscrQuery, QueryOptions, SearchScratch};
//! use kgreach::fixtures::{figure3, s0};
//!
//! let g = figure3();
//! let q = LscrQuery::new(
//!     g.vertex_id("v0").unwrap(),
//!     g.vertex_id("v4").unwrap(),
//!     g.label_set(&["likes", "follows"]),
//!     s0(),
//! );
//! let mut scratch = SearchScratch::new(g.num_vertices());
//! let opts = QueryOptions::default();
//! let out = kgreach::uis_star::answer_with(&g, &q.compile(&g).unwrap(), &mut scratch, &opts);
//! assert!(out.answer);
//! assert_eq!(out.stats.vsg_size, Some(2)); // V(S0, G0) = {v1, v2}
//! ```

use crate::bidi::{self, Kernel, Search};
use crate::close::CloseState;
use crate::query::{
    CompiledLscrQuery, QueryOptions, QueryOutcome, SearchClock, SearchStats, VsgOrder,
};
use crate::session::SearchScratch;
use kgreach_graph::{Graph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Answers `q` with session-owned scratch (reset here), materializing
/// `V(S,G)` in the order requested by [`QueryOptions::vsg_order`].
///
/// The reported time includes the `V(S,G)` materialization — UIS\* and
/// INS both pay the SPARQL engine, and comparing them against UIS is only
/// fair if that cost is on the clock. The set is obtained through the
/// compiled constraint's shared memo
/// ([`CompiledConstraint::satisfying_vertices_cached`](crate::constraint::CompiledConstraint::satisfying_vertices_cached)),
/// so repeated queries over one compiled plan materialize it once.
pub fn answer_with(
    g: &Graph,
    q: &CompiledLscrQuery,
    scratch: &mut SearchScratch,
    opts: &QueryOptions,
) -> QueryOutcome {
    let clock = SearchClock::start_now();
    let limits = clock.limits(opts);
    let vsg = q.constraint.satisfying_vertices_cached(g);
    let shuffled;
    let vsg: &[VertexId] = if let VsgOrder::Shuffled(seed) = opts.vsg_order {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut copy = vsg.to_vec();
        copy.shuffle(&mut rng);
        shuffled = copy;
        &shuffled
    } else {
        &vsg
    };
    let stats = SearchStats {
        vsg_size: Some(vsg.len()),
        algorithm: Some(crate::Algorithm::UisStar),
        ..Default::default()
    };
    let (mut st, stack, _) = Search::split(g, q, scratch, stats, limits);
    // Lines 1-2: global stack with s; close[s] ← F.
    stack.clear();
    stack.push(q.source);
    st.stats.pushes += 1;
    st.close.set(q.source, CloseState::F);
    bidi::run(UisStar { st, stack }, vsg, clock)
}

struct UisStar<'a> {
    st: Search<'a>,
    stack: &'a mut Vec<VertexId>,
}

impl<'a> Kernel<'a> for UisStar<'a> {
    type Candidates<'v> = std::slice::Iter<'v, VertexId>;

    fn search(&mut self) -> &mut Search<'a> {
        &mut self.st
    }

    fn frontier_len(&self) -> usize {
        self.stack.len()
    }

    fn frontier_is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// One B = F expansion step over the shared global stack — identical
    /// marking discipline to `lcs`, so later invocations resume this
    /// traversal (Theorem 4.1).
    fn forward_step(&mut self) -> bool {
        let Some(u) = self.stack.pop() else { return false };
        let st = &mut self.st;
        let exp = st.g.out_expansion(u, st.labels, st.selective);
        st.stats.edges_skipped += exp.degree;
        for e in exp.edges {
            if !st.labels.contains(e.label) {
                continue;
            }
            st.stats.edges_scanned += 1;
            st.stats.edges_skipped -= 1;
            let w = e.vertex;
            if st.close.is_n(w) {
                st.close.set(w, CloseState::F);
                self.stack.push(w);
                st.stats.pushes += 1;
                if st.note_forward(w) {
                    return true;
                }
            }
        }
        false
    }

    /// The paper's `LCS(s*, t*, L, B)` (Algorithm 2, lines 14-24),
    /// verifying `s* ⇝_L t*` over the shared stack/`close`.
    fn lcs(&mut self, s_star: VertexId, t_star: VertexId, b: bool) -> bool {
        let st = &mut self.st;
        st.stats.lcs_invocations += 1;
        if s_star == t_star {
            // Zero-edge path: for B = T, s* additionally becomes T.
            if b {
                st.close.set(s_star, CloseState::T);
            }
            return true;
        }
        // Lines 15-16.
        if b {
            st.close.set(s_star, CloseState::T);
            self.stack.push(s_star);
            st.stats.pushes += 1;
        }
        // Line 17: while (B=F ∧ S≠φ) or (B = close[S.first] = T).
        loop {
            if st.limits.exceeded(st.stats.edges_scanned) {
                st.interrupted = true;
                return false;
            }
            let u = match self.stack.last() {
                Some(&top) if !b || st.close.is_t(top) => {
                    self.stack.pop();
                    top
                }
                _ => break,
            };
            // Flat expansion: one slice scan; under a selective L the
            // incident-label mask skips the vertex outright (empty
            // slice), and the accounting keeps skipped = degree −
            // scanned exact either way.
            let exp = st.g.out_expansion(u, st.labels, st.selective);
            st.stats.edges_skipped += exp.degree;
            for e in exp.edges {
                if !st.labels.contains(e.label) {
                    continue;
                }
                st.stats.edges_scanned += 1;
                st.stats.edges_skipped -= 1;
                let w = e.vertex;
                // Line 20: case 1 (B=T ∧ close[w]≠T), case 2 (B=F ∧ close[w]=N).
                let explore = if b { !st.close.is_t(w) } else { st.close.is_n(w) };
                if explore && st.prune_to_back && st.back.is_n(w) {
                    // Cone pruning: the complete backward region proves w
                    // cannot reach t, so no path through w can serve any
                    // remaining candidate (all of them sit in R_t).
                    st.stats.frontier_prunes += 1;
                    continue;
                }
                if explore {
                    st.close.set(w, if b { CloseState::T } else { CloseState::F });
                    self.stack.push(w);
                    st.stats.pushes += 1;
                    if w == t_star {
                        // Correctness fix over the paper's literal Alg. 2:
                        // a B=F invocation returning mid-scan would lose
                        // u's remaining edges from the global traversal
                        // (Theorem 4.1 only covers *false* returns). Re-
                        // push u so later invocations resume its scan;
                        // already-explored neighbors are skipped by case 2.
                        if !b {
                            self.stack.push(u);
                            st.stats.pushes += 1;
                        }
                        return true;
                    }
                }
            }
        }
        // Line 24: pop the elements passed in this invocation (state T), so
        // the next B = F invocation resumes at the old F frontier.
        if b {
            while let Some(&x) = self.stack.last() {
                if st.close.is_t(x) {
                    self.stack.pop();
                } else {
                    break;
                }
            }
        }
        false
    }

    fn candidates<'v>(&mut self, vsg: &'v [VertexId]) -> Self::Candidates<'v> {
        vsg.iter()
    }

    fn next_candidate(&mut self, candidates: &mut Self::Candidates<'_>) -> Option<VertexId> {
        candidates.next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, s0};
    use crate::oracle;
    use crate::query::LscrQuery;

    const ALL: [&str; 5] = ["friendOf", "likes", "advisorOf", "follows", "hates"];

    fn run(g: &Graph, s: &str, t: &str, labels: &[&str]) -> QueryOutcome {
        let q = LscrQuery::new(
            g.vertex_id(s).unwrap(),
            g.vertex_id(t).unwrap(),
            g.label_set(labels),
            s0(),
        );
        let mut scratch = SearchScratch::new(g.num_vertices());
        answer_with(g, &q.compile(g).unwrap(), &mut scratch, &QueryOptions::default())
    }

    #[test]
    fn paper_examples() {
        let g = figure3();
        assert!(run(&g, "v0", "v4", &["likes", "follows"]).answer);
        assert!(!run(&g, "v0", "v3", &["likes", "follows"]).answer);
        assert!(run(&g, "v3", "v4", &["likes", "hates", "friendOf"]).answer);
    }

    #[test]
    fn section4_worked_example() {
        // §4: Q0 = (v3, v4, {likes, hates, friendOf}, S0) is answered by
        // verifying v3 ⇝_L v1 and v1 ⇝_L v4.
        let g = figure3();
        let out = run(&g, "v3", "v4", &["likes", "hates", "friendOf"]);
        assert!(out.answer);
        assert_eq!(out.stats.vsg_size, Some(2)); // V(S0,G0) = {v1, v2}
        assert!(out.stats.lcs_invocations >= 2);
    }

    #[test]
    fn substructure_only() {
        let g = figure3();
        assert!(run(&g, "v0", "v4", &ALL).answer);
        assert!(run(&g, "v0", "v3", &ALL).answer);
        assert!(!run(&g, "v4", "v0", &ALL).answer);
    }

    #[test]
    fn source_equals_target() {
        let g = figure3();
        assert!(run(&g, "v1", "v1", &ALL).answer);
        assert!(!run(&g, "v0", "v0", &ALL).answer);
        assert!(run(&g, "v4", "v4", &ALL).answer);
    }

    #[test]
    fn endpoint_in_vsg_shortcut() {
        // t = v1 ∈ V(S0,G0): answer is plain label reachability s ⇝_L t.
        let g = figure3();
        assert!(run(&g, "v0", "v1", &["friendOf"]).answer);
        assert!(!run(&g, "v3", "v1", &["likes"]).answer); // v3-likes->v4 only
        assert!(run(&g, "v3", "v1", &["likes", "hates"]).answer);
    }

    #[test]
    fn exhaustive_agreement_with_oracle_and_uis() {
        let g = figure3();
        let label_sets: Vec<Vec<&str>> = vec![
            ALL.to_vec(),
            vec!["likes", "follows"],
            vec!["likes", "hates", "friendOf"],
            vec!["friendOf", "likes"],
            vec!["hates"],
            vec![],
        ];
        let mut scratch = SearchScratch::new(g.num_vertices());
        let opts = QueryOptions::default();
        for s in ["v0", "v1", "v2", "v3", "v4"] {
            for t in ["v0", "v1", "v2", "v3", "v4"] {
                for ls in &label_sets {
                    let q = LscrQuery::new(
                        g.vertex_id(s).unwrap(),
                        g.vertex_id(t).unwrap(),
                        g.label_set(ls),
                        s0(),
                    );
                    let cq = q.compile(&g).unwrap();
                    let expected = oracle::answer(&g, &cq).answer;
                    assert_eq!(
                        answer_with(&g, &cq, &mut scratch, &opts).answer,
                        expected,
                        "uis* vs oracle on {s}->{t} {ls:?}"
                    );
                    assert_eq!(
                        crate::uis::answer_with(&g, &cq, &mut scratch, &opts).answer,
                        expected,
                        "uis vs oracle on {s}->{t} {ls:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_orders_agree() {
        // The V(S,G) processing order affects cost, never the answer.
        let g = figure3();
        let mut scratch = SearchScratch::new(g.num_vertices());
        let opts = QueryOptions::default();
        for s in ["v0", "v1", "v3", "v4"] {
            for t in ["v0", "v2", "v4"] {
                let q = LscrQuery::new(
                    g.vertex_id(s).unwrap(),
                    g.vertex_id(t).unwrap(),
                    g.label_set(&["likes", "hates", "friendOf"]),
                    s0(),
                );
                let cq = q.compile(&g).unwrap();
                let reference = answer_with(&g, &cq, &mut scratch, &opts).answer;
                for seed in 0..10 {
                    let shuffled = opts.clone().with_vsg_order(VsgOrder::Shuffled(seed));
                    assert_eq!(
                        answer_with(&g, &cq, &mut scratch, &shuffled).answer,
                        reference,
                        "seed {seed} changed the answer for {s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_budget_interrupts() {
        let g = figure3();
        let mut scratch = SearchScratch::new(g.num_vertices());
        let q = LscrQuery::new(
            g.vertex_id("v3").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["likes", "hates", "friendOf"]),
            s0(),
        );
        let cq = q.compile(&g).unwrap();
        let out = answer_with(&g, &cq, &mut scratch, &QueryOptions::default().with_step_budget(0));
        assert!(out.interrupted);
        assert!(!out.answer);
    }

    #[test]
    fn pushes_bounded_by_search_tree() {
        // Definition 3.2: ≤ 2 nodes per vertex, plus one s* push per LCS.
        let g = figure3();
        let out = run(&g, "v3", "v4", &ALL);
        let bound = 2 * g.num_vertices() + out.stats.lcs_invocations;
        assert!(out.stats.pushes <= bound, "{} > {bound}", out.stats.pushes);
    }

    #[test]
    fn empty_vsg_means_false() {
        let g = figure3();
        let c = crate::constraint::SubstructureConstraint::parse(
            "SELECT ?x WHERE { ?x <likes> <v0> . }", // nobody likes v0
        )
        .unwrap();
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.all_labels(),
            c,
        );
        let mut scratch = SearchScratch::new(g.num_vertices());
        let out = answer_with(&g, &q.compile(&g).unwrap(), &mut scratch, &QueryOptions::default());
        assert!(!out.answer);
        assert_eq!(out.stats.vsg_size, Some(0));
        assert_eq!(out.stats.lcs_invocations, 0);
    }
}
