//! The search skeleton shared by UIS\* and INS.
//!
//! The paper's INS (Algorithm 4) is UIS\* (Algorithm 2) with three
//! changes: an ordered candidate heap, a global priority queue in place
//! of the stack, and the landmark `Check`/`Cut`/`Push`. Everything else
//! — materialize `V(S,G)`, then chain `s ⇝_L v` / `v ⇝_L t` checks over
//! one shared `close` map — is the same control flow, and lives here
//! once:
//!
//! * the empty-`V(S,G)` and O(1) label-mask prechecks;
//! * the classic candidate loop (the `N`/`F`/`T` match of lines 3-12);
//! * the meet-in-the-middle phase with its backward step;
//! * the two cleanup loops that finish once one frontier is complete.
//!
//! Each kernel implements [`Kernel`] for what differs: the forward
//! frontier (stack or queue), one forward expansion step, `LCS`, and the
//! candidate order. Everything is monomorphised — the per-edge loops stay
//! in the kernel modules and run without dynamic dispatch.
//!
//! # Bidirectional phase and early negative termination
//!
//! When `V(S,G)` is large enough
//! ([`QueryOptions::bidi_min_candidates`](crate::QueryOptions)), whatever
//! the selectivity of `L`, the candidate loop is preceded by a
//! meet-in-the-middle phase: a backward
//! frontier over the reverse label-masked expansion view
//! ([`Graph::in_expansion`]) races the usual forward `B = F` frontier,
//! alternating by the smaller-frontier heuristic. The query is decided
//! the moment the frontiers intersect *at a `V(S,G)` candidate* (meeting
//! at a non-candidate proves nothing — the witness must pass through
//! `V(S,G)`). When one side exhausts first, its `close` map becomes an
//! O(1) oracle for that side's half of every remaining
//! `s ⇝_L v ⇝_L t` check:
//!
//! * backward exhausted with **no candidate in `R_t`** — early negative
//!   termination, no candidate loop at all;
//! * backward exhausted otherwise — `v ⇝_L t` is decided by `R_t`
//!   membership (no `B = T` invocation ever runs) and forward expansion
//!   prunes every push outside `R_t` (any useful intermediate `x` on a
//!   path to a candidate `v ∈ R_t` satisfies `x ⇝ v ⇝ t`, so `x ∈ R_t`);
//! * forward exhausted — `s ⇝_L v` is decided by `close ≠ N`, with the
//!   partial backward map kept as a positive-only shortcut.
//!
//! Two O(1) mask prechecks run even earlier ([`label_starved`], shared
//! with UIS): when `s` has no usable out-label or `t` no usable in-label
//! under `L`, no one-or-more-edge path can start or finish, and the
//! query falls to its zero-edge case. The phase is gated on candidate
//! count alone: the backward closure replaces up to `|V(S,G)|`
//! per-candidate `v ⇝ t` probes, so for small candidate sets the classic
//! chained probes win and the phase stays off. Selectivity
//! ([`Graph::expansion_selective`]) decides mask-guided expansion in
//! every forward and backward step.

use crate::close::{CloseMap, CloseState};
use crate::priority::GlobalQueue;
use crate::query::{CompiledLscrQuery, QueryOutcome, RunLimits, SearchClock, SearchStats};
use crate::session::SearchScratch;
use kgreach_graph::{Graph, LabelSet, VertexId};

/// The state UIS\* and INS share while answering one query.
pub(crate) struct Search<'a> {
    pub(crate) g: &'a Graph,
    pub(crate) source: VertexId,
    pub(crate) target: VertexId,
    pub(crate) labels: LabelSet,
    /// Whether mask-guided expansion pays for this query's `L`.
    pub(crate) selective: bool,
    pub(crate) close: &'a mut CloseMap,
    /// Backward `close`: marks `R_t`, the vertices proven to reach `t`
    /// under `L` (complete exactly when the bidirectional phase exhausted
    /// the backward frontier).
    pub(crate) back: &'a mut CloseMap,
    back_stack: &'a mut Vec<VertexId>,
    /// `V(S,G)` membership (`N` = not a candidate).
    pub(crate) cand: &'a mut CloseMap,
    /// When set (backward frontier completed), forward expansion skips
    /// every push outside `R_t` — cone pruning, sound because any useful
    /// intermediate `x` on a path to a candidate `v ∈ R_t` satisfies
    /// `x ⇝ v ⇝ t`.
    pub(crate) prune_to_back: bool,
    /// Candidates each frontier of the bidirectional phase has marked.
    fwd_cand_seen: usize,
    back_cand_seen: usize,
    pub(crate) stats: SearchStats,
    pub(crate) limits: RunLimits,
    pub(crate) interrupted: bool,
}

impl<'a> Search<'a> {
    /// Splits `scratch` into the shared search state (its forward `close`
    /// reset) and the two forward frontiers, of which each kernel keeps
    /// the one it uses.
    pub(crate) fn split(
        g: &'a Graph,
        q: &CompiledLscrQuery,
        scratch: &'a mut SearchScratch,
        stats: SearchStats,
        limits: RunLimits,
    ) -> (Search<'a>, &'a mut Vec<VertexId>, &'a mut GlobalQueue) {
        let SearchScratch { close, stack, queue, back, back_stack, cand } = scratch;
        close.reset();
        let search = Search {
            g,
            source: q.source,
            target: q.target,
            labels: q.label_constraint,
            // One strategy decision for every LCS invocation of this query.
            selective: g.expansion_selective(q.label_constraint),
            close,
            back,
            back_stack,
            cand,
            prune_to_back: false,
            fwd_cand_seen: 0,
            back_cand_seen: 0,
            stats,
            limits,
            interrupted: false,
        };
        (search, stack, queue)
    }

    /// Candidate/meet accounting for a vertex the forward side freshly
    /// marked `F` during the bidirectional phase: `true` when the
    /// frontiers meet at candidate `w`.
    #[inline]
    pub(crate) fn note_forward(&mut self, w: VertexId) -> bool {
        if self.cand.is_n(w) {
            return false;
        }
        self.fwd_cand_seen += 1;
        !self.back.is_n(w)
    }

    /// Adds `w` to the backward map as a proven `R_t` member (no-op when
    /// already there): `true` when the frontiers meet at candidate `w`.
    #[inline]
    pub(crate) fn note_backward(&mut self, w: VertexId) -> bool {
        if !self.back.is_n(w) {
            return false;
        }
        self.back.set(w, CloseState::F);
        self.back_stack.push(w);
        self.stats.pushes += 1;
        if self.cand.is_n(w) {
            return false;
        }
        self.back_cand_seen += 1;
        !self.close.is_n(w)
    }

    /// One backward expansion step: pop a proven `R_t` member and mark
    /// its usable in-neighbors. `true` when the frontiers meet at a
    /// candidate.
    fn backward_step(&mut self) -> bool {
        let x = self.back_stack.pop().expect("backward frontier non-empty");
        let exp = self.g.in_expansion(x, self.labels, self.selective);
        self.stats.edges_skipped += exp.degree;
        for e in exp.edges {
            if !self.labels.contains(e.label) {
                continue;
            }
            self.stats.edges_scanned += 1;
            self.stats.backward_edges_scanned += 1;
            self.stats.edges_skipped -= 1;
            if self.note_backward(e.vertex) {
                return true;
            }
        }
        false
    }

    /// Whether the search must stop now; records the interruption.
    #[inline]
    fn stop(&mut self) -> bool {
        if self.interrupted || self.limits.exceeded(self.stats.edges_scanned) {
            self.interrupted = true;
        }
        self.interrupted
    }
}

/// What a search kernel adds to the shared skeleton.
pub(crate) trait Kernel<'a> {
    /// The classic loop's candidate order: a slice walk for UIS\*, the
    /// priority heap `H` for INS.
    type Candidates<'v>;

    /// The shared search state.
    fn search(&mut self) -> &mut Search<'a>;

    /// Number of entries on the forward frontier.
    fn frontier_len(&self) -> usize;

    /// Whether the forward frontier is exhausted.
    fn frontier_is_empty(&self) -> bool;

    /// One forward `B = F` expansion step of the bidirectional phase
    /// (`t* = t`), reporting every fresh mark through
    /// [`Search::note_forward`]: `true` when the frontiers meet at a
    /// candidate.
    fn forward_step(&mut self) -> bool;

    /// The paper's `LCS(s*, t*, L, B)` over the shared frontier and
    /// `close` map.
    fn lcs(&mut self, s_star: VertexId, t_star: VertexId, b: bool) -> bool;

    /// Orders `vsg` for the classic candidate loop.
    fn candidates<'v>(&mut self, vsg: &'v [VertexId]) -> Self::Candidates<'v>;

    /// The next candidate to probe.
    fn next_candidate(&mut self, candidates: &mut Self::Candidates<'_>) -> Option<VertexId>;
}

/// Answers the query `kernel` was set up for over `vsg`, starting from
/// a seeded forward frontier (`close[s] = F`).
pub(crate) fn run<'a, K: Kernel<'a>>(
    mut kernel: K,
    vsg: &[VertexId],
    clock: SearchClock,
) -> QueryOutcome {
    let answer = decide(&mut kernel, vsg);
    let search = kernel.search();
    search.stats.passed_vertices = search.close.passed_vertices();
    let stats = std::mem::take(&mut search.stats);
    let mut out = QueryOutcome::finished(answer, stats, clock.elapsed());
    out.interrupted = search.interrupted;
    out
}

/// The O(1) mask precheck shared by every kernel: with no out-label of
/// `s` (or no in-label of `t`) usable under `labels`, no path with ≥ 1
/// edge can leave `s` (or enter `t`) — only the zero-edge `s = t`
/// witness remains, and `s ≠ t` rules it out. `true` proves the query
/// false.
pub(crate) fn label_starved(g: &Graph, s: VertexId, t: VertexId, labels: LabelSet) -> bool {
    s != t
        && (g.out_label_mask(s).intersection(labels).is_empty()
            || g.in_label_mask(t).intersection(labels).is_empty())
}

fn decide<'a, K: Kernel<'a>>(k: &mut K, vsg: &[VertexId]) -> bool {
    if vsg.is_empty() {
        return false;
    }
    let search = k.search();
    if label_starved(search.g, search.source, search.target, search.labels) {
        search.stats.negative_terminations += 1;
        return false;
    }
    // A large candidate set, whatever L's selectivity: meet-in-the-middle
    // phase. Small candidate sets stay on the classic chained probes —
    // one backward closure can only beat them when it replaces many
    // per-candidate `v ⇝ t` probes.
    if vsg.len() >= search.limits.bidi_min_candidates {
        return bidirectional(k, vsg);
    }
    classic(k, vsg)
}

/// The classic candidate loop (Algorithm 2 lines 3-12, Algorithm 4
/// lines 4-14).
fn classic<'a, K: Kernel<'a>>(k: &mut K, vsg: &[VertexId]) -> bool {
    let (s, t) = (k.search().source, k.search().target);
    let mut candidates = k.candidates(vsg);
    loop {
        if k.search().stop() {
            return false;
        }
        let Some(v) = k.next_candidate(&mut candidates) else { return false };
        match k.search().close.get(v) {
            CloseState::N => {
                if v == s || v == t {
                    // v ∈ V(S,G) coincides with an endpoint: plain
                    // label-reachability decides the whole query.
                    return k.lcs(s, t, false);
                }
                if k.lcs(s, v, false) && k.lcs(v, t, true) {
                    return true;
                }
            }
            CloseState::F => {
                if k.lcs(v, t, true) {
                    return true;
                }
            }
            // T: v's whole L-reachable region was already explored in a
            // previous B = T invocation and t was not in it.
            CloseState::T => {}
        }
    }
}

/// The meet-in-the-middle phase plus its cleanup loops; always returns
/// the final answer (setting `interrupted` on truncation).
fn bidirectional<'a, K: Kernel<'a>>(k: &mut K, vsg: &[VertexId]) -> bool {
    let search = k.search();
    let (s, t) = (search.source, search.target);
    search.back.reset();
    search.back_stack.clear();
    search.cand.reset();
    for &v in vsg {
        search.cand.set(v, CloseState::F);
    }
    search.fwd_cand_seen = usize::from(!search.cand.is_n(s));
    search.back_cand_seen = 0;
    // Seed the backward frontier at t; a candidate t already marked
    // forward is the zero-edge witness s = t ∈ V(S,G).
    if search.note_backward(t) {
        return true;
    }

    // Race the frontiers, expanding the smaller one each step, until they
    // meet at a candidate or one side exhausts.
    while !k.frontier_is_empty() && !k.search().back_stack.is_empty() {
        if k.search().stop() {
            return false;
        }
        let met = if k.search().back_stack.len() <= k.frontier_len() {
            k.search().backward_step()
        } else {
            k.forward_step()
        };
        if met {
            return true;
        }
    }

    let search = k.search();
    if search.back_stack.is_empty() {
        // R_t fully enumerated (INS Check-derived seeds only add known
        // R_t members, whose in-closures stay inside R_t).
        if search.back_cand_seen == 0 {
            // No candidate reaches t: early negative termination — the
            // candidate loop is skipped entirely.
            search.stats.negative_terminations += 1;
            return false;
        }
        search.prune_to_back = true;
        cleanup_back_complete(k, vsg)
    } else {
        // The forward region R_s is fully enumerated.
        if search.fwd_cand_seen == 0 {
            search.stats.negative_terminations += 1;
            return false;
        }
        cleanup_forward_complete(k, vsg)
    }
}

/// Candidate loop once `back` holds all of `R_t`: `v ⇝_L t` is a
/// membership probe (no `B = T` invocation runs), and `lcs(s, v, F)`
/// settles the forward half with pushes confined to `R_t`.
fn cleanup_back_complete<'a, K: Kernel<'a>>(k: &mut K, vsg: &[VertexId]) -> bool {
    let (s, t) = (k.search().source, k.search().target);
    for &v in vsg {
        let search = k.search();
        if search.stop() {
            return false;
        }
        match search.close.get(v) {
            CloseState::N => {
                if v == s || v == t {
                    // Endpoint ∈ V(S,G): the query reduces to plain
                    // s ⇝_L t, and R_t membership decides it.
                    return !search.back.is_n(s);
                }
                if search.back.is_n(v) {
                    continue; // v cannot reach t
                }
                if k.lcs(s, v, false) {
                    return true; // s ⇝ v and v ∈ R_t
                }
            }
            CloseState::F => {
                if !search.back.is_n(v) {
                    return true; // s ⇝ v already known
                }
            }
            CloseState::T => {}
        }
    }
    false
}

/// Candidate loop once the forward frontier exhausted: `close ≠ N`
/// decides `s ⇝_L v`, and the partial backward map doubles as a
/// positive-only `v ⇝_L t` shortcut before the classic `B = T` probe.
fn cleanup_forward_complete<'a, K: Kernel<'a>>(k: &mut K, vsg: &[VertexId]) -> bool {
    let (s, t) = (k.search().source, k.search().target);
    for &v in vsg {
        let search = k.search();
        if search.stop() {
            return false;
        }
        match search.close.get(v) {
            CloseState::N => {
                if v == t {
                    // t ∈ V(S,G) reduces the query to s ⇝_L t, and the
                    // complete forward region disproves it.
                    return false;
                }
                // s cannot reach v: skip without any LCS call.
            }
            CloseState::F => {
                if v == s || v == t {
                    // Endpoint ∈ V(S,G): reduces to s ⇝_L t.
                    return !search.close.is_n(t);
                }
                if !search.back.is_n(v) {
                    return true; // backward phase already proved v ⇝ t
                }
                if k.lcs(v, t, true) {
                    return true;
                }
            }
            CloseState::T => {}
        }
    }
    false
}
