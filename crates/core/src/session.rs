//! Per-thread query sessions — the mutable half of the split serving API.
//!
//! The reachability-indexing literature frames scalable serving as a split
//! between *build-once shared state* (graph, local index, compiled plans)
//! and *cheap per-query state* (the `close` surjection, traversal stacks,
//! priority structures). [`LscrEngine`] owns the
//! former behind `&self`; a [`Session`] owns the latter exclusively, so N
//! threads each holding a session answer queries against one shared
//! engine with **zero locking on the hot path** — the only synchronized
//! steps are per-query constant-time snapshots (plan-cache lookup, index
//! handle), never the search itself.
//!
//! ```
//! use kgreach::{Algorithm, LscrEngine, LscrQuery, SubstructureConstraint};
//! use kgreach::fixtures::{figure3, s0};
//!
//! let engine = LscrEngine::new(figure3());
//! let q = LscrQuery::new(
//!     engine.graph().vertex_id("v0").unwrap(),
//!     engine.graph().vertex_id("v4").unwrap(),
//!     engine.graph().label_set(&["likes", "follows"]),
//!     s0(),
//! );
//! let mut session = engine.session();
//! assert!(session.answer(&q, Algorithm::Auto).unwrap().answer);
//! ```

use crate::close::CloseMap;
use crate::engine::{Algorithm, LscrEngine};
use crate::local_index::LocalIndex;
use crate::priority::GlobalQueue;
use crate::query::{
    CompiledLscrQuery, LscrQuery, PreparedQuery, QueryError, QueryOptions, QueryOutcome,
    SearchStats,
};
use crate::witness::find_witness;
use crate::{ins, oracle, uis, uis_star};
use kgreach_graph::VertexId;
use std::sync::Arc;

/// The reusable mutable workspace of one search thread: the epoch-reset
/// [`CloseMap`], the UIS/UIS\* traversal stack, and INS's global priority
/// queue. One allocation set serves thousands of queries.
///
/// Most callers never touch this type directly — [`Session`] owns one —
/// but the algorithm modules ([`uis`], [`uis_star`], [`ins`]) accept it
/// explicitly for harnesses that drive them without an engine.
#[derive(Debug)]
pub struct SearchScratch {
    pub(crate) close: CloseMap,
    pub(crate) stack: Vec<VertexId>,
    pub(crate) queue: GlobalQueue,
    /// Backward-frontier `close` for the bidirectional phase (UIS\*/INS):
    /// marks the vertices known to reach `t` under `L`.
    pub(crate) back: CloseMap,
    pub(crate) back_stack: Vec<VertexId>,
    /// `V(S,G)` membership as an O(1)-resettable set (the `CloseMap`
    /// stamp machinery doubles as a bitmap; only `N`/non-`N` is used).
    pub(crate) cand: CloseMap,
}

impl SearchScratch {
    /// Creates scratch for graphs with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        SearchScratch {
            close: CloseMap::new(num_vertices),
            stack: Vec::with_capacity(64),
            queue: GlobalQueue::new(num_vertices),
            back: CloseMap::new(num_vertices),
            back_stack: Vec::with_capacity(64),
            cand: CloseMap::new(num_vertices),
        }
    }

    /// Number of vertices this scratch covers.
    pub fn num_vertices(&self) -> usize {
        self.close.len()
    }

    /// Grows the scratch to cover at least `n` vertices — dynamic graphs
    /// intern vertices between queries, and a pooled scratch may predate
    /// them. Never shrinks.
    pub fn ensure(&mut self, n: usize) {
        self.close.ensure_len(n);
        self.queue.ensure_len(n);
        self.back.ensure_len(n);
        self.cand.ensure_len(n);
    }
}

/// A per-thread handle for answering queries against a shared
/// [`LscrEngine`].
///
/// Sessions are cheap to create ([`LscrEngine::session`] recycles scratch
/// through a pool) and are `Send`, so they can be moved into
/// `std::thread::scope` workers. They are deliberately **not** `Sync`:
/// one session per thread is the concurrency model.
///
/// Every query pins one consistent `(graph, index)` snapshot from the
/// engine, so a concurrent
/// [`apply_update`](crate::LscrEngine::apply_update) never changes the
/// graph under a running search; the *next* query through the same
/// session sees the updated graph (and grows the scratch if `|V|` grew).
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e LscrEngine,
    /// `Some` until drop returns the scratch to the engine's pool.
    scratch: Option<SearchScratch>,
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e LscrEngine, scratch: SearchScratch) -> Self {
        Session { engine, scratch: Some(scratch) }
    }

    /// The engine this session answers against.
    pub fn engine(&self) -> &'e LscrEngine {
        self.engine
    }

    /// Compiles and answers `query` with `algorithm` (default options).
    pub fn answer(
        &mut self,
        query: &LscrQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        self.answer_with_options(query, algorithm, &QueryOptions::default())
    }

    /// Compiles and answers `query` with explicit [`QueryOptions`].
    /// Constraint compilation goes through the engine's plan cache.
    pub fn answer_with_options(
        &mut self,
        query: &LscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, QueryError> {
        let compiled = self.engine.compile(query)?;
        Ok(self.answer_compiled(&compiled, algorithm, opts))
    }

    /// Answers an already-compiled query.
    ///
    /// A compiled query is bound to the graph content epoch it was
    /// compiled at; if the engine's graph has been updated since, the
    /// plan is transparently recompiled from its retained SPARQL text
    /// (through the engine's plan cache) before the search runs.
    pub fn answer_compiled(
        &mut self,
        query: &CompiledLscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        let mut recompiled: Option<CompiledLscrQuery> = None;
        loop {
            let query = recompiled.as_ref().unwrap_or(query);
            // The constraint's V(S,G) memo is shared through the engine's
            // plan cache, so a repeated query plans from the *exact*
            // candidate count instead of the schema estimate.
            let resolved =
                self.resolve(query, algorithm, query.constraint.vsg_len_if_materialized());
            let (g, index) = self.pin(resolved);
            if query.constraint.graph_epoch() != g.epoch() {
                // Stale plan (caller-held query from before an update, or
                // an update raced the pin): rebind and retry.
                recompiled = Some(
                    self.engine
                        .recompile(query)
                        .expect("canonical SPARQL text recompiles against the updated graph"),
                );
                continue;
            }
            let outcome = self.dispatch(&g, &index, query, resolved, opts);
            return self.finalize(&g, query, resolved, outcome, opts);
        }
    }

    /// Executes a [`PreparedQuery`]: its compiled plan runs through
    /// [`answer_compiled`](Self::answer_compiled), so `V(S,G)` comes
    /// from the plan's shared memo (materialized on the first UIS\*/INS
    /// execution) and a plan that predates an engine
    /// [`apply_update`](crate::LscrEngine::apply_update) rebinds through
    /// the engine's plan cache.
    pub fn answer_prepared(
        &mut self,
        prepared: &PreparedQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        self.answer_compiled(prepared.compiled(), algorithm, opts)
    }

    /// Pins one consistent `(graph, index)` snapshot for a query, builds
    /// the index when the resolved algorithm needs one, and grows the
    /// scratch to the snapshot's `|V|`.
    fn pin(
        &mut self,
        algorithm: Algorithm,
    ) -> (Arc<kgreach_graph::Graph>, Option<Arc<LocalIndex>>) {
        let (g, index) = loop {
            let (g, index) = self.engine.state_snapshot();
            if algorithm != Algorithm::Ins || index.is_some() {
                break (g, index);
            }
            // Build installs the index for the *current* graph; retry the
            // snapshot so the pair is consistent.
            let _ = self.engine.local_index_arc();
        };
        self.scratch.as_mut().expect("scratch present until drop").ensure(g.num_vertices());
        (g, index)
    }

    /// Resolves `Auto` through the engine's planner; manual choices pass
    /// through.
    fn resolve(
        &self,
        query: &CompiledLscrQuery,
        algorithm: Algorithm,
        vsg_hint: Option<usize>,
    ) -> Algorithm {
        if algorithm == Algorithm::Auto {
            self.engine.plan_algorithm(query, vsg_hint)
        } else {
            algorithm
        }
    }

    fn dispatch(
        &mut self,
        g: &kgreach_graph::Graph,
        index: &Option<Arc<LocalIndex>>,
        query: &CompiledLscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        debug_assert!(algorithm != Algorithm::Auto, "Auto resolved before dispatch");
        let scratch = self.scratch.as_mut().expect("scratch present until drop");
        match algorithm {
            Algorithm::Uis => uis::answer_with(g, query, scratch, opts),
            Algorithm::UisStar => uis_star::answer_with(g, query, scratch, opts),
            Algorithm::Ins => {
                let index = index.as_ref().expect("index pinned for INS");
                ins::answer_with(g, query, index, scratch, opts)
            }
            Algorithm::Oracle | Algorithm::Auto => oracle::answer(g, query),
        }
    }

    fn finalize(
        &self,
        g: &kgreach_graph::Graph,
        query: &CompiledLscrQuery,
        resolved: Algorithm,
        mut outcome: QueryOutcome,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        outcome.stats.algorithm = Some(resolved);
        if opts.witness && outcome.answer {
            outcome.witness = find_witness(g, query);
        }
        if opts.skip_stats {
            outcome.stats = SearchStats { algorithm: Some(resolved), ..Default::default() };
        }
        outcome
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.engine.recycle_scratch(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, s0};

    fn q(g: &kgreach_graph::Graph, s: &str, t: &str, labels: &[&str]) -> LscrQuery {
        LscrQuery::new(g.vertex_id(s).unwrap(), g.vertex_id(t).unwrap(), g.label_set(labels), s0())
    }

    #[test]
    fn session_is_send_and_engine_is_sync() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<Session<'static>>();
        assert_send_sync::<LscrEngine>();
        assert_send_sync::<SearchScratch>();
        assert_send_sync::<PreparedQuery>();
    }

    #[test]
    fn all_algorithms_through_one_session() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let query = q(&g, "v0", "v4", &["likes", "follows"]);
        let mut session = engine.session();
        for alg in
            [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle, Algorithm::Auto]
        {
            let out = session.answer(&query, alg).unwrap();
            assert!(out.answer, "{alg} disagrees");
            assert!(out.stats.algorithm.is_some());
            assert_ne!(out.stats.algorithm, Some(Algorithm::Auto), "Auto must resolve");
        }
    }

    #[test]
    fn witness_option_attaches_path() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let query = q(&g, "v0", "v4", &["likes", "follows"]);
        let mut session = engine.session();
        let opts = QueryOptions::default().with_witness(true);
        let out = session.answer_with_options(&query, Algorithm::Uis, &opts).unwrap();
        assert!(out.answer);
        let w = out.witness.expect("witness requested for a true answer");
        assert_eq!(engine.graph().vertex_name(w.via), "v2");
        // False answers carry no witness.
        let query = q(&g, "v0", "v3", &["likes", "follows"]);
        let out = session.answer_with_options(&query, Algorithm::Uis, &opts).unwrap();
        assert!(!out.answer);
        assert!(out.witness.is_none());
    }

    #[test]
    fn skip_stats_zeroes_counters_but_keeps_choice() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let query = q(&g, "v0", "v4", &["likes", "follows"]);
        let mut session = engine.session();
        let opts = QueryOptions::default().with_skip_stats(true);
        let out = session.answer_with_options(&query, Algorithm::Uis, &opts).unwrap();
        assert!(out.answer);
        assert_eq!(out.stats.passed_vertices, 0);
        assert_eq!(out.stats.algorithm, Some(Algorithm::Uis));
    }

    #[test]
    fn prepared_queries_honor_shuffled_vsg_order() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let prepared = engine.prepare(&q(&g, "v3", "v4", &["likes", "hates", "friendOf"])).unwrap();
        let mut session = engine.session();
        let reference =
            session.answer_prepared(&prepared, Algorithm::UisStar, &QueryOptions::default());
        assert!(reference.answer);
        assert!(prepared.vsg_len_if_materialized().is_some(), "memoized on first run");
        for seed in 0..8 {
            let opts =
                QueryOptions::default().with_vsg_order(crate::query::VsgOrder::Shuffled(seed));
            let out = session.answer_prepared(&prepared, Algorithm::UisStar, &opts);
            assert_eq!(out.answer, reference.answer, "seed {seed} changed the answer");
            assert_eq!(out.stats.vsg_size, reference.stats.vsg_size);
        }
    }

    #[test]
    fn scratch_recycles_through_the_pool() {
        let engine = LscrEngine::new(figure3());
        assert_eq!(engine.pooled_scratch_count(), 0);
        {
            let _s1 = engine.session();
            let _s2 = engine.session();
            assert_eq!(engine.pooled_scratch_count(), 0);
        }
        assert_eq!(engine.pooled_scratch_count(), 2);
        {
            let _s3 = engine.session();
            assert_eq!(engine.pooled_scratch_count(), 1);
        }
        assert_eq!(engine.pooled_scratch_count(), 2);
    }
}
