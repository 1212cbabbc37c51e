//! The shared, concurrency-ready LSCR engine.
//!
//! [`LscrEngine`] owns the shared serving state — the graph behind an
//! [`Arc`], the lazily built [`LocalIndex`], a constraint-plan cache
//! keyed by SPARQL text — and exposes every query entry point through
//! `&self`, so one engine instance is shared across threads
//! (`LscrEngine: Send + Sync`). All mutable per-query state lives in
//! per-thread [`Session`]s; the engine only synchronizes constant-time
//! bookkeeping (plan-cache lookups, the scratch pool, the state
//! snapshot), never the searches themselves.
//!
//! # Dynamic graphs: epochs and invalidation
//!
//! The served graph is not frozen: [`LscrEngine::apply_update`] applies
//! an [`UpdateBatch`] as a delta overlay (see
//! [`kgreach_graph::delta`]), swaps the new graph in atomically, and
//! maintains the index incrementally. Every content-changing batch bumps
//! the graph **epoch**; compiled constraint plans, with their embedded
//! `SCck` and `V(S,G)` memos, record the epoch they bind to, and queries
//! holding a stale plan (including a [`PreparedQuery`]) rebind
//! transparently on mismatch. Queries pin one `(graph, index)` snapshot
//! per execution, so an update never changes the graph under a running
//! search — in-flight queries finish against the pre-update state,
//! subsequent ones see the new one.
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
//! let outcome = engine.answer(&q, Algorithm::Ins).unwrap();
//! assert!(outcome.answer);
//! // The adaptive planner picks UIS / UIS* / INS from cheap statistics:
//! let outcome = engine.answer(&q, Algorithm::Auto).unwrap();
//! assert!(outcome.answer);
//! ```

use crate::constraint::{CompiledConstraint, SubstructureConstraint};
use crate::local_index::{LocalIndex, LocalIndexConfig};
use crate::query::{
    CompiledLscrQuery, LscrQuery, PreparedQuery, QueryError, QueryOptions, QueryOutcome,
};
use crate::session::{SearchScratch, Session};
use kgreach_graph::fxhash::FxHashMap;
use kgreach_graph::snapshot::{self, ArtifactKind, PayloadBuf, PayloadCursor, SectionWriter};
use kgreach_graph::{Graph, UpdateBatch, UpdateSummary};
use kgreach_sync::{Arc, Mutex, RwLock};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// The LSCR algorithms implemented by this crate.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Algorithm {
    /// Algorithm 1 — uninformed stack search with per-vertex `SCck`.
    Uis,
    /// Algorithm 2 — `V(S,G)` + chained label-constrained searches.
    UisStar,
    /// Algorithm 4 — informed search over the local index.
    Ins,
    /// The brute-force three-pass reference (tests/diagnostics).
    Oracle,
    /// Adaptive: the engine picks UIS, UIS\* or INS per query from cheap
    /// statistics (constraint selectivity, `|L|` relative to `𝓛`, index
    /// availability). The choice is recorded in
    /// [`SearchStats::algorithm`](crate::SearchStats::algorithm).
    Auto,
}

impl Algorithm {
    /// The practical manual algorithms (excludes the oracle and the
    /// adaptive meta-choice).
    pub const ALL: [Algorithm; 3] = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Uis => "UIS",
            Algorithm::UisStar => "UIS*",
            Algorithm::Ins => "INS",
            Algorithm::Oracle => "oracle",
            Algorithm::Auto => "Auto",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scratch sets retained in the engine pool. Sessions beyond this many
/// concurrent ones still work — their scratch is simply dropped instead
/// of recycled.
const SCRATCH_POOL_CAP: usize = 64;

/// Tag of the engine snapshot's index-presence section, between the
/// graph sections (1–7) and the index sections (16–19).
const TAG_ENGINE_HAS_INDEX: u16 = 15;

/// Distinct constraint plans retained in the plan cache. Once full, new
/// constraint texts compile per-query instead of being cached, bounding
/// engine memory under workloads with unbounded distinct constraints
/// (e.g. per-entity generated patterns).
const PLAN_CACHE_CAP: usize = 4096;

/// An owned, thread-shareable LSCR query engine bound to one graph.
///
/// See the [module docs](self) for the shared/per-thread state split.
/// Entry points, roughly from convenient to fast:
///
/// * [`answer`](Self::answer) / [`answer_with_options`](Self::answer_with_options)
///   — one-shot, grabs pooled scratch per call;
/// * [`session`](Self::session) — a per-thread [`Session`] that reuses
///   one scratch set across many queries (the hot-loop API);
/// * [`prepare`](Self::prepare) — compile/validate once, reuse the
///   compiled constraint and the materialized `V(S,G)` across repeated
///   executions;
/// * [`answer_batch`](Self::answer_batch) — fan a slice of queries across
///   scoped threads.
#[derive(Debug)]
pub struct LscrEngine {
    /// The serving state both halves of a query snapshot together: the
    /// graph and the index built for exactly that graph. One lock, so a
    /// concurrent [`apply_update`](Self::apply_update) can never be
    /// observed half-swapped (a new graph with an index sized for the
    /// old `|V|` would read out of bounds).
    state: RwLock<EngineState>,
    index_config: LocalIndexConfig,
    plan_cache: RwLock<FxHashMap<String, Arc<CompiledConstraint>>>,
    scratch_pool: Mutex<Vec<SearchScratch>>,
    /// Serializes writers (updates, compaction, index builds) without
    /// blocking readers: heavy work happens under this lock while
    /// queries keep serving the previous state; only the final swap
    /// takes the state write lock.
    update_lock: Mutex<()>,
}

#[derive(Clone, Debug)]
struct EngineState {
    graph: Arc<Graph>,
    index: Option<Arc<LocalIndex>>,
}

/// What [`LscrEngine::apply_update`] did to the local index.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexMaintenance {
    /// No index was built yet, so there was nothing to maintain (the next
    /// INS query builds one against the updated graph).
    NotBuilt,
    /// Partition-local repair: the entries of this many partitions were
    /// recomputed; everything else was reused.
    Patched {
        /// Number of partitions whose `II`/`EIT`/`D` were recomputed.
        partitions_repaired: usize,
    },
    /// The batch exceeded the staleness budget (or compaction kicked in):
    /// the index was rebuilt from scratch, including fresh landmark
    /// selection and partitioning.
    Rebuilt,
}

/// The result of one [`LscrEngine::apply_update`] call.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct UpdateOutcome {
    /// What the batch changed in the graph.
    pub summary: UpdateSummary,
    /// How the local index was maintained.
    pub index: IndexMaintenance,
    /// The graph's content epoch after the batch.
    pub epoch: u64,
    /// Whether the engine compacted the overlay into a fresh CSR as part
    /// of this update (see [`DELTA_COMPACT_THRESHOLD`]).
    pub compacted: bool,
}

/// A point-in-time summary of an engine's served state, from
/// [`LscrEngine::info`]. Serving processes surface these fields on their
/// health/metrics endpoints.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EngineInfo {
    /// Vertices in the served graph.
    pub num_vertices: usize,
    /// Edges in the served graph (overlay-merged view).
    pub num_edges: usize,
    /// Distinct edge labels.
    pub num_labels: usize,
    /// Content epoch (bumped by updates and snapshot reloads).
    pub epoch: u64,
    /// Whether un-compacted delta overlay edits are live.
    pub has_overlay: bool,
    /// Heap footprint of the served graph, in bytes.
    pub graph_heap_bytes: usize,
    /// Whether the local index is built/installed.
    pub index_built: bool,
    /// Distinct constraint plans currently cached.
    pub cached_plans: usize,
}

/// When the overlay's changed-edge fraction
/// (`DeltaStats::delta_fraction`)
/// exceeds this threshold after an update, [`LscrEngine::apply_update`]
/// re-freezes the graph via [`Graph::compact`] and rebuilds the index so
/// the partition shape catches up with the drifted graph.
pub const DELTA_COMPACT_THRESHOLD: f64 = 0.5;

impl LscrEngine {
    /// Creates an engine with the default index configuration. The local
    /// index is built lazily on the first INS query (or eagerly via
    /// [`local_index`](Self::local_index)).
    ///
    /// Accepts an owned [`Graph`] or an `Arc<Graph>` — pass a clone of an
    /// existing `Arc` to keep using the graph outside the engine, or
    /// reach it through [`graph`](Self::graph).
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        Self::with_index_config(graph, LocalIndexConfig::default())
    }

    /// Creates an engine with a custom index configuration.
    pub fn with_index_config(graph: impl Into<Arc<Graph>>, config: LocalIndexConfig) -> Self {
        LscrEngine {
            state: RwLock::new(EngineState { graph: graph.into(), index: None }),
            index_config: config,
            plan_cache: RwLock::new(FxHashMap::default()),
            scratch_pool: Mutex::new(Vec::new()),
            update_lock: Mutex::new(()),
        }
    }

    /// The current graph, as a shared handle. Queries in flight keep the
    /// handle they started with, so a concurrent
    /// [`apply_update`](Self::apply_update) never changes the graph under
    /// a running search — it swaps a new one in for *subsequent* queries.
    pub fn graph(&self) -> Arc<Graph> {
        Arc::clone(&self.state.read().expect("state lock").graph)
    }

    /// A shared handle to the graph (alias of [`graph`](Self::graph),
    /// kept for source compatibility with the pre-dynamic API).
    pub fn shared_graph(&self) -> Arc<Graph> {
        self.graph()
    }

    /// The current graph's content epoch — bumped by every
    /// content-changing [`apply_update`](Self::apply_update).
    pub fn graph_epoch(&self) -> u64 {
        self.state.read().expect("state lock").graph.epoch()
    }

    /// One consistent `(graph, index)` pair for a query to run against.
    pub(crate) fn state_snapshot(&self) -> (Arc<Graph>, Option<Arc<LocalIndex>>) {
        let st = self.state.read().expect("state lock");
        (Arc::clone(&st.graph), st.index.clone())
    }

    /// Builds (or returns) the shared local index for the **current**
    /// graph. Builds are serialized on the update lock and run without
    /// blocking concurrent queries; if an update swaps the graph
    /// mid-build, the stale build is discarded and retried.
    pub fn local_index(&self) -> Arc<LocalIndex> {
        loop {
            let (graph, index) = self.state_snapshot();
            if let Some(index) = index {
                return index;
            }
            let _build = self.update_lock.lock().expect("update lock");
            // Re-check under the lock: a racing builder may have won, or
            // an update may have swapped the graph while we waited.
            let (current, index) = self.state_snapshot();
            if let Some(index) = index {
                return index;
            }
            if !Arc::ptr_eq(&current, &graph) {
                continue; // graph moved on; start over against the new one
            }
            let built = Arc::new(LocalIndex::build(&graph, &self.index_config));
            let mut st = self.state.write().expect("state lock");
            if Arc::ptr_eq(&st.graph, &graph) {
                st.index = Some(Arc::clone(&built));
                return built;
            }
            // An update cannot have happened (we hold the update lock),
            // but stay defensive: retry rather than install a mismatch.
        }
    }

    pub(crate) fn local_index_arc(&self) -> Arc<LocalIndex> {
        self.local_index()
    }

    /// The local index if some caller has already built or installed it —
    /// what the `Auto` planner consults (it never triggers a build).
    pub fn local_index_if_built(&self) -> Option<Arc<LocalIndex>> {
        self.state.read().expect("state lock").index.clone()
    }

    /// Installs a prebuilt index (e.g. shared across engines or loaded
    /// from a build step), replacing any current one.
    ///
    /// The index must have been built for this engine's graph: its
    /// [`graph_fingerprint`](LocalIndex::graph_fingerprint) is checked
    /// and a mismatch is rejected with [`QueryError::IndexGraphMismatch`]
    /// instead of being silently accepted (which would produce wrong
    /// answers).
    pub fn set_local_index(&self, index: impl Into<Arc<LocalIndex>>) -> Result<(), QueryError> {
        let index = index.into();
        let mut st = self.state.write().expect("state lock");
        let expected = st.graph.fingerprint();
        let found = index.graph_fingerprint();
        if expected != found {
            return Err(QueryError::IndexGraphMismatch { expected, found });
        }
        st.index = Some(index);
        Ok(())
    }

    /// Applies an [`UpdateBatch`] to the served graph: the overlay-merged
    /// graph is swapped in atomically, the content epoch advances, every
    /// content-derived cache (constraint-plan cache with its embedded
    /// `SCck` and `V(S,G)` memos, plans held by [`PreparedQuery`]s) is
    /// invalidated, and the local index — when one exists — is repaired
    /// partition-locally or rebuilt past the staleness budget (see
    /// [`LocalIndex::patched`]).
    ///
    /// Queries running concurrently finish against the pre-update state
    /// (crash-consistent snapshot semantics); queries started after this
    /// returns see the updated graph. Updates are serialized with each
    /// other, with compaction and with index builds, but never block
    /// readers while the heavy work runs.
    ///
    /// When the accumulated overlay exceeds [`DELTA_COMPACT_THRESHOLD`],
    /// the graph is re-frozen ([`Graph::compact`]) and the index rebuilt,
    /// so long-running update streams cannot degrade query performance
    /// unboundedly.
    ///
    /// ```
    /// use kgreach::{Algorithm, LscrEngine, LscrQuery};
    /// use kgreach::fixtures::{figure3, s0};
    /// use kgreach_graph::UpdateBatch;
    ///
    /// let engine = LscrEngine::new(figure3());
    /// let q = LscrQuery::new(
    ///     engine.graph().vertex_id("v0").unwrap(),
    ///     engine.graph().vertex_id("v4").unwrap(),
    ///     engine.graph().label_set(&["likes", "follows"]),
    ///     s0(),
    /// );
    /// assert!(engine.answer(&q, Algorithm::Auto).unwrap().answer);
    ///
    /// // Sever the v2 → v4 hop: the same query now answers false.
    /// let mut batch = UpdateBatch::new();
    /// batch.delete("v2", "follows", "v4");
    /// let outcome = engine.apply_update(&batch).unwrap();
    /// assert_eq!(outcome.summary.edges_deleted, 1);
    /// assert!(!engine.answer(&q, Algorithm::Auto).unwrap().answer);
    /// ```
    pub fn apply_update(&self, batch: &UpdateBatch) -> Result<UpdateOutcome, QueryError> {
        let _updates = self.update_lock.lock().expect("update lock");
        let (old_graph, old_index) = self.state_snapshot();
        // O(delta), not O(|V|+|E|): the clone shares the frozen base (CSR
        // pair, dict base layers, per-class schema lists) behind `Arc`s
        // and copies only overlay state and dict tails — see the `Graph`
        // type docs. In-flight queries keep reading `old_graph` untouched.
        let mut graph = (*old_graph).clone();
        let summary = graph.apply_update(batch)?;
        if !summary.changed() {
            return Ok(UpdateOutcome {
                summary,
                index: match old_index {
                    Some(_) => IndexMaintenance::Patched { partitions_repaired: 0 },
                    None => IndexMaintenance::NotBuilt,
                },
                epoch: graph.epoch(),
                compacted: false,
            });
        }
        let compacted = graph
            .delta_stats()
            .is_some_and(|d| d.delta_fraction(graph.num_edges()) > DELTA_COMPACT_THRESHOLD);
        if compacted {
            graph.compact();
        }
        let graph = Arc::new(graph);
        let budget = self.index_config.staleness_budget;
        let (index, maintenance) = match &old_index {
            None => (None, IndexMaintenance::NotBuilt),
            // Compaction means the partition shape is worth refreshing
            // too: rebuild instead of patching.
            Some(old) if !compacted => {
                match old.patched(&graph, &summary.touched_sources, budget) {
                    Some((patched, repaired)) => (
                        Some(Arc::new(patched)),
                        IndexMaintenance::Patched { partitions_repaired: repaired },
                    ),
                    None => (
                        Some(Arc::new(LocalIndex::build(&graph, &self.index_config))),
                        IndexMaintenance::Rebuilt,
                    ),
                }
            }
            Some(_) => (
                Some(Arc::new(LocalIndex::build(&graph, &self.index_config))),
                IndexMaintenance::Rebuilt,
            ),
        };
        let epoch = graph.epoch();
        {
            let mut st = self.state.write().expect("state lock");
            st.graph = graph;
            st.index = index;
        }
        // Compiled plans are bound to the old epoch (constants resolved
        // against old content); drop them so future compiles bind fresh.
        self.plan_cache.write().expect("plan cache lock").clear();
        Ok(UpdateOutcome { summary, index: maintenance, epoch, compacted })
    }

    /// Re-freezes the served graph's overlay into a clean CSR now (see
    /// [`Graph::compact`]); content, ids and epoch are unchanged, so the
    /// installed index and all caches stay valid. No-op when the graph is
    /// already compact.
    pub fn compact(&self) {
        let _updates = self.update_lock.lock().expect("update lock");
        let (graph, _) = self.state_snapshot();
        if !graph.has_overlay() {
            return;
        }
        let compacted = Arc::new(graph.compacted());
        let mut st = self.state.write().expect("state lock");
        st.graph = compacted;
    }

    /// Opens a per-thread [`Session`], recycling pooled scratch if
    /// available. Sessions observe graph updates: each query pins the
    /// engine's current `(graph, index)` snapshot and grows its scratch
    /// to the current `|V|` on demand.
    pub fn session(&self) -> Session<'_> {
        let scratch = self
            .scratch_pool
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_else(|| SearchScratch::new(self.graph().num_vertices()));
        Session::new(self, scratch)
    }

    pub(crate) fn recycle_scratch(&self, scratch: SearchScratch) {
        // Scratch sized for an older (smaller) graph is still recyclable:
        // sessions grow it on demand per query.
        let mut pool = self.scratch_pool.lock().expect("scratch pool lock");
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }

    #[cfg(test)]
    pub(crate) fn pooled_scratch_count(&self) -> usize {
        self.scratch_pool.lock().expect("scratch pool lock").len()
    }

    /// Validates `query` and compiles its constraint through the plan
    /// cache: constraints with identical SPARQL text share one compiled
    /// plan across queries, sessions and threads. Cache hits allocate
    /// nothing (the key is the constraint's precomputed canonical text);
    /// the cache holds at most 4096 plans — beyond that,
    /// new texts compile per-query without being retained.
    pub fn compile(&self, query: &LscrQuery) -> Result<CompiledLscrQuery, QueryError> {
        let graph = self.graph();
        graph.check_vertex(query.source)?;
        graph.check_vertex(query.target)?;
        let plan = self.cached_plan(&graph, query.constraint.sparql_text(), || {
            Ok(query.constraint.compile(&graph)?)
        })?;
        Ok(query.with_constraint(plan))
    }

    /// Rebinds a compiled query whose plan is bound to an older graph
    /// epoch. The plan comes from the plan cache under the canonical
    /// SPARQL text the stale plan retains; only a miss parses that text
    /// again. Sessions call this when a caller-held
    /// [`CompiledLscrQuery`] (or a [`PreparedQuery`]) outlives an
    /// [`apply_update`](Self::apply_update).
    pub(crate) fn recompile(
        &self,
        query: &CompiledLscrQuery,
    ) -> Result<CompiledLscrQuery, QueryError> {
        let graph = self.graph();
        graph.check_vertex(query.source)?;
        graph.check_vertex(query.target)?;
        let text = query.constraint.sparql_text();
        let constraint = self.cached_plan(&graph, text, || {
            Ok(SubstructureConstraint::parse(text)?.compile(&graph)?)
        })?;
        Ok(CompiledLscrQuery { constraint, ..query.clone() })
    }

    /// The plan for the canonical SPARQL `text` at `graph`'s epoch: a
    /// plan-cache hit, or `compile` run and cached.
    fn cached_plan(
        &self,
        graph: &Graph,
        text: &str,
        compile: impl FnOnce() -> Result<CompiledConstraint, QueryError>,
    ) -> Result<Arc<CompiledConstraint>, QueryError> {
        if let Some(cached) = self.plan_cache.read().expect("plan cache lock").get(text) {
            // Entries compiled before a graph update are purged by
            // `apply_update`, but a hit can still race the purge — guard
            // on the epoch the plan was bound to.
            if cached.graph_epoch() == graph.epoch() {
                return Ok(Arc::clone(cached));
            }
        }
        let compiled = Arc::new(compile()?);
        let mut cache = self.plan_cache.write().expect("plan cache lock");
        Ok(match cache.get(text) {
            // A racing compiler won; keep its plan (same-epoch only).
            Some(winner) if winner.graph_epoch() == compiled.graph_epoch() => Arc::clone(winner),
            Some(_) => {
                cache.insert(text.to_owned(), Arc::clone(&compiled));
                compiled
            }
            None if cache.len() < PLAN_CACHE_CAP => {
                cache.insert(text.to_owned(), Arc::clone(&compiled));
                compiled
            }
            None => compiled, // cache full: serve uncached
        })
    }

    /// Number of distinct constraint plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.read().expect("plan cache lock").len()
    }

    /// Compiles and validates `query` once for repeated execution; see
    /// [`PreparedQuery`].
    pub fn prepare(&self, query: &LscrQuery) -> Result<PreparedQuery, QueryError> {
        Ok(PreparedQuery::new(query.clone(), self.compile(query)?))
    }

    /// Compiles and answers `query` with `algorithm`, using pooled
    /// scratch. For query loops, prefer holding a [`session`](Self::session).
    pub fn answer(
        &self,
        query: &LscrQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        self.session().answer(query, algorithm)
    }

    /// [`answer`](Self::answer) with explicit [`QueryOptions`].
    pub fn answer_with_options(
        &self,
        query: &LscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, QueryError> {
        self.session().answer_with_options(query, algorithm, opts)
    }

    /// Answers an already-compiled query with pooled scratch.
    pub fn answer_compiled(&self, query: &CompiledLscrQuery, algorithm: Algorithm) -> QueryOutcome {
        self.session().answer_compiled(query, algorithm, &QueryOptions::default())
    }

    /// Executes a [`PreparedQuery`] with pooled scratch.
    pub fn answer_prepared(
        &self,
        prepared: &PreparedQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        self.session().answer_prepared(prepared, algorithm, opts)
    }

    /// Answers a batch of `(query, algorithm)` pairs, fanning them across
    /// `threads` scoped worker threads (one [`Session`] each). `0` uses
    /// [`std::thread::available_parallelism`]. Results keep the input
    /// order.
    pub fn answer_batch(
        &self,
        queries: &[(LscrQuery, Algorithm)],
        threads: usize,
    ) -> Vec<Result<QueryOutcome, QueryError>> {
        self.answer_batch_with_options(queries, threads, &QueryOptions::default())
    }

    /// [`answer_batch`](Self::answer_batch) with explicit options applied
    /// to every query.
    pub fn answer_batch_with_options(
        &self,
        queries: &[(LscrQuery, Algorithm)],
        threads: usize,
        opts: &QueryOptions,
    ) -> Vec<Result<QueryOutcome, QueryError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            t => t,
        }
        .min(queries.len());
        // Build the index up front when the batch needs it, so workers
        // don't serialize behind the build lock.
        if queries.iter().any(|(_, a)| *a == Algorithm::Ins) {
            let _ = self.local_index();
        }
        if threads <= 1 {
            let mut session = self.session();
            return queries
                .iter()
                .map(|(q, alg)| session.answer_with_options(q, *alg, opts))
                .collect();
        }
        let chunk = queries.len().div_ceil(threads);
        let mut results: Vec<Option<Result<QueryOutcome, QueryError>>> = Vec::new();
        results.resize_with(queries.len(), || None);
        std::thread::scope(|scope| {
            for (qs, rs) in queries.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    let mut session = self.session();
                    for ((query, alg), slot) in qs.iter().zip(rs) {
                        *slot = Some(session.answer_with_options(query, *alg, opts));
                    }
                });
            }
        });
        results.into_iter().map(|r| r.expect("every batch slot filled")).collect()
    }

    /// Writes an engine snapshot: the graph followed by the local index
    /// if one has been built or installed. Restoring with
    /// [`from_snapshot`](Self::from_snapshot) rebuilds *nothing* — both
    /// the adjacency and the landmark index come back exactly as saved,
    /// which is the cold-start path for serving processes (see the
    /// `cold_start` bench: snapshot load vs text parse + index rebuild).
    ///
    /// The plan cache and scratch pool are warm-up state, not data; they
    /// are intentionally not persisted.
    pub fn save_snapshot<W: Write>(&self, writer: W) -> Result<(), QueryError> {
        let (graph, index) = self.state_snapshot();
        let mut w = SectionWriter::new(BufWriter::new(writer), ArtifactKind::Engine)?;
        // A live graph is compacted on the fly by the encoder; the index
        // stays valid because compaction preserves the fingerprint.
        snapshot::write_graph_sections(&graph, &mut w)?;
        let mut flag = PayloadBuf::new();
        flag.put_u8(u8::from(index.is_some()));
        w.section(TAG_ENGINE_HAS_INDEX, flag.as_slice())?;
        if let Some(index) = index {
            index.write_sections(&mut w)?;
        }
        w.finish().map_err(QueryError::from)?;
        Ok(())
    }

    /// Restores an engine written by [`save_snapshot`](Self::save_snapshot):
    /// graph and (when present) local index, without rebuilding either.
    /// A snapshot whose embedded index does not match its own graph —
    /// impossible to write through this API, but representable in a
    /// corrupt file — is rejected through the
    /// [`set_local_index`](Self::set_local_index) fingerprint check
    /// ([`QueryError::IndexGraphMismatch`]). The restored engine uses the
    /// default [`LocalIndexConfig`] for any future lazy build.
    pub fn from_snapshot<R: Read>(mut reader: R) -> Result<LscrEngine, QueryError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).map_err(kgreach_graph::GraphError::from)?;
        Self::from_snapshot_bytes(&bytes)
    }

    /// [`from_snapshot`](Self::from_snapshot) over an in-memory buffer,
    /// borrowing section payloads instead of copying them — the bulk
    /// cold-start path for multi-million-edge engine snapshots.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<LscrEngine, QueryError> {
        let mut r = snapshot::SliceSectionReader::new(bytes).map_err(QueryError::from)?;
        r.expect_kind(ArtifactKind::Engine)?;
        let graph = snapshot::read_graph_sections_slice(&mut r)?;
        let has_index =
            Self::decode_index_flag(r.section(TAG_ENGINE_HAS_INDEX, "engine-index-flag")?)?;
        let index = if has_index { Some(LocalIndex::read_sections_slice(&mut r)?) } else { None };
        r.end().map_err(QueryError::from)?;
        Self::assemble_restored(graph, index)
    }

    fn decode_index_flag(payload: &[u8]) -> Result<bool, QueryError> {
        let mut flag = PayloadCursor::new(payload, "engine-index-flag");
        let has_index = match flag.get_u8()? {
            0 => false,
            1 => true,
            byte => return Err(flag.corrupt(format!("index flag byte is {byte}")).into()),
        };
        flag.finish()?;
        Ok(has_index)
    }

    fn assemble_restored(
        graph: Graph,
        index: Option<LocalIndex>,
    ) -> Result<LscrEngine, QueryError> {
        let engine = LscrEngine::new(graph);
        if let Some(index) = index {
            engine.set_local_index(index)?;
        }
        Ok(engine)
    }

    /// Hot-swaps the engine's served state with the graph (and index,
    /// when present) from an engine snapshot, without interrupting
    /// service: queries running concurrently finish against the old
    /// state, queries started after this returns see the new one — the
    /// same atomic-swap discipline as
    /// [`apply_update`](Self::apply_update).
    ///
    /// On any error (unreadable stream, corrupt snapshot, embedded index
    /// built for a different graph) the engine is left serving its
    /// current state untouched. The reloaded graph's content epoch is
    /// advanced strictly past the replaced graph's
    /// ([`Graph::advance_epoch_to`]), so every epoch-stamped cache bound
    /// to the old content — compiled plans, `SCck` memos, prepared
    /// `V(S,G)` sets held by callers — observes a mismatch and rebinds
    /// instead of serving answers computed against the old graph.
    ///
    /// Returns the fresh content epoch.
    pub fn reload_from_snapshot<R: Read>(&self, reader: R) -> Result<u64, QueryError> {
        // Decode fully before taking any lock: a corrupt snapshot must
        // not stall or damage serving.
        let staged = LscrEngine::from_snapshot(reader)?;
        let _updates = self.update_lock.lock().expect("update lock");
        let (graph, index) = staged.state_snapshot();
        let mut graph = (*graph).clone();
        let old_epoch = self.graph_epoch();
        graph.advance_epoch_to(old_epoch + 1);
        let epoch = graph.epoch();
        {
            let mut st = self.state.write().expect("state lock");
            st.graph = Arc::new(graph);
            st.index = index;
        }
        self.plan_cache.write().expect("plan cache lock").clear();
        Ok(epoch)
    }

    /// [`reload_from_snapshot`](Self::reload_from_snapshot) from a file
    /// path.
    pub fn reload_from_snapshot_file(&self, path: impl AsRef<Path>) -> Result<u64, QueryError> {
        let file = File::open(path).map_err(kgreach_graph::GraphError::from)?;
        self.reload_from_snapshot(file)
    }

    /// A point-in-time summary of the served state — the cheap
    /// observability hook behind a serving process's health and metrics
    /// endpoints (all counters are reads of existing state; nothing is
    /// built or locked beyond the state read lock).
    pub fn info(&self) -> EngineInfo {
        let (graph, index) = self.state_snapshot();
        EngineInfo {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            num_labels: graph.num_labels(),
            epoch: graph.epoch(),
            has_overlay: graph.has_overlay(),
            graph_heap_bytes: graph.heap_bytes(),
            index_built: index.is_some(),
            cached_plans: self.cached_plans(),
        }
    }

    /// Saves an engine snapshot to a file path.
    pub fn save_snapshot_file(&self, path: impl AsRef<Path>) -> Result<(), QueryError> {
        let file = File::create(path).map_err(kgreach_graph::GraphError::from)?;
        self.save_snapshot(file)
    }

    /// Restores an engine snapshot from a file path.
    ///
    /// Reads the whole file into memory and decodes sections from the
    /// borrowed buffer — one bulk read plus in-place validation.
    pub fn from_snapshot_file(path: impl AsRef<Path>) -> Result<LscrEngine, QueryError> {
        let bytes = std::fs::read(path).map_err(kgreach_graph::GraphError::from)?;
        Self::from_snapshot_bytes(&bytes)
    }

    /// The adaptive planner behind [`Algorithm::Auto`]: picks a concrete
    /// algorithm for `query` from cheap statistics — estimated constraint
    /// selectivity (schema class sizes, adjacency degrees, per-label edge
    /// counts; or the exact `|V(S,G)|` via `vsg_hint` when a prepared
    /// query already materialized it), the label-mask-derived expansion
    /// region (how many vertices have *any* out-edge usable under `L` —
    /// see [`Graph::label_vertex_counts`]), and whether the local index is
    /// already available (planning never triggers an index build).
    ///
    /// Heuristics follow the paper's §6 findings: INS dominates when
    /// `V(S,G)` is small and selective; UIS wins when the constraint is
    /// unselective (satisfying vertices are met early) or the label
    /// constraint confines the search to a small region; UIS\* handles
    /// the degenerate empty-`V(S,G)` case for free.
    pub fn plan_algorithm(&self, query: &CompiledLscrQuery, vsg_hint: Option<usize>) -> Algorithm {
        let (graph, index) = self.state_snapshot();
        let g: &Graph = &graph;
        let n = g.num_vertices().max(1);
        // Provably empty V(S,G): UIS* inspects the empty candidate list
        // and answers false immediately — no traversal at all.
        if query.constraint.is_unsatisfiable() {
            return Algorithm::UisStar;
        }
        let estimate = vsg_hint
            .unwrap_or_else(|| query.constraint.estimate_candidates(g, g.label_histogram()));
        if estimate == 0 {
            return Algorithm::UisStar;
        }
        // The source's incident-label mask misses L entirely: the
        // uninformed search inspects s and stops — nothing can beat that
        // (UIS*/INS would still pay the V(S,G) materialization).
        if g.out_label_mask(query.source).intersection(query.label_constraint).is_empty() {
            return Algorithm::Uis;
        }
        // Overlay drift discounts the index: updates applied since the
        // index was patched leave freshly interned vertices unassigned
        // and the partition shape stale, so past a drift threshold INS's
        // pruning surface is too thin to justify its V(S,G)-driven setup
        // — plan as if no index existed. (The entries themselves are
        // repaired and always *correct*; this is purely a cost call.)
        let index_ready = index.is_some()
            && g.delta_stats().map_or(true, |d| {
                d.delta_fraction(g.num_edges()) <= 0.3
                    && d.added_vertices * 10 <= g.num_vertices().max(10)
            });
        let selectivity = estimate as f64 / n as f64;
        // Expansion-region bound from the label-mask summary: a vertex can
        // only be *expanded* under L if some out-edge label is in L, so
        // the mask-derived region bounds the label-feasible region far
        // more sharply than the old |L| / |𝓛| alphabet fraction (a rare
        // label inflates |L| without enlarging the region).
        let region_frac = g.expandable_region(query.label_constraint) as f64 / n as f64;

        // Tiny candidate sets: the V(S,G)-driven informed search touches
        // almost nothing when the index can prune for it. The absolute
        // bound only applies when the candidates are also a minority of
        // the graph (on toy graphs "8 candidates" can be everything).
        if index_ready && (selectivity <= 0.02 || (estimate <= 8 && estimate * 2 <= n)) {
            return Algorithm::Ins;
        }
        // Unselective constraints: UIS meets a satisfying vertex early and
        // SCck is cheap relative to V(S,G) materialization (paper S3).
        if selectivity >= 0.05 {
            return Algorithm::Uis;
        }
        // Narrow label constraints confine the uninformed search to a
        // small label-feasible region, and the label-run expansion skips
        // the rest of each vertex's adjacency.
        if region_frac <= 0.25 {
            return Algorithm::Uis;
        }
        // Mid-selectivity, broad labels: informed search if possible,
        // otherwise the uninformed baseline (UIS* only wins its
        // degenerate cases, per §6).
        if index_ready {
            Algorithm::Ins
        } else {
            Algorithm::Uis
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, s0};
    use crate::query::LscrQuery;
    use crate::SubstructureConstraint;

    fn all_labels_query(g: &Graph, s: &str, t: &str) -> LscrQuery {
        LscrQuery::new(g.vertex_id(s).unwrap(), g.vertex_id(t).unwrap(), g.all_labels(), s0())
    }

    #[test]
    fn interrupted_searches_never_poison_caches() {
        // Regression guard: a budget-truncated *negative* answer must not
        // be remembered anywhere — not in the SCck cache (UIS), not in
        // the plan cache's shared V(S,G) memo (UIS*/INS). Truncate a
        // known-true query to a false/interrupted outcome, then re-answer
        // unbudgeted through the same engine and demand the truth back.
        let engine = LscrEngine::new(figure3());
        engine.local_index();
        let g = engine.graph();
        let q = LscrQuery::new(
            g.vertex_id("v3").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["likes", "hates", "friendOf"]),
            s0(),
        );
        let zero = QueryOptions::default().with_step_budget(0);
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            let truncated = engine.answer_with_options(&q, alg, &zero).unwrap();
            assert!(truncated.interrupted, "{alg}: budget 0 must interrupt");
            assert!(!truncated.answer, "{alg}: truncated searches answer false");
            let full = engine.answer(&q, alg).unwrap();
            assert!(full.answer, "{alg}: a truncated negative poisoned a cache");
            assert!(!full.interrupted);
        }
    }

    #[test]
    fn interrupted_prepared_queries_recover_the_truth() {
        // Same invariant through the prepared path: the V(S,G) memo a
        // truncated run leaves behind is content-derived (the SPARQL
        // evaluation never consults budgets), so the re-answer must
        // succeed — and reuse the memo rather than recompute around it.
        let engine = LscrEngine::new(figure3());
        engine.local_index();
        let g = engine.graph();
        let prepared = engine
            .prepare(&LscrQuery::new(
                g.vertex_id("v3").unwrap(),
                g.vertex_id("v4").unwrap(),
                g.label_set(&["likes", "hates", "friendOf"]),
                s0(),
            ))
            .unwrap();
        let zero = QueryOptions::default().with_step_budget(0);
        for alg in [Algorithm::UisStar, Algorithm::Ins] {
            let truncated = engine.answer_prepared(&prepared, alg, &zero);
            assert!(truncated.interrupted && !truncated.answer, "{alg}");
            let full = engine.answer_prepared(&prepared, alg, &QueryOptions::default());
            assert!(full.answer, "{alg}: truncated negative stuck in the prepared memo");
            assert!(!full.interrupted);
        }
    }

    #[test]
    fn proven_negatives_are_not_interrupted() {
        // The dual guard: an early *negative termination* is a proof, not
        // a truncation — it must come back `interrupted: false` (so
        // callers may cache it as definitive) with the counter visible.
        let engine = LscrEngine::new(figure3());
        engine.local_index();
        let g = engine.graph();
        // v0 has no out-edge labeled "hates": the O(1) mask precheck
        // proves false without scanning anything.
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["hates"]),
            s0(),
        );
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins] {
            let out = engine.answer(&q, alg).unwrap();
            assert!(!out.answer, "{alg}");
            assert!(!out.interrupted, "{alg}: a proven negative is not a truncation");
            assert!(out.stats.negative_terminations > 0, "{alg}: precheck must fire");
            assert_eq!(out.stats.edges_scanned, 0, "{alg}: terminated before any scan");
        }
    }

    #[test]
    fn all_algorithms_through_engine() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let q = LscrQuery::new(
            g.vertex_id("v3").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["likes", "hates", "friendOf"]),
            s0(),
        );
        for alg in
            [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle, Algorithm::Auto]
        {
            let out = engine.answer(&q, alg).unwrap();
            assert!(out.answer, "{alg} disagrees");
        }
    }

    #[test]
    fn engine_is_shareable_from_arc_graph() {
        let g = Arc::new(figure3());
        let engine = LscrEngine::new(Arc::clone(&g));
        assert_eq!(engine.graph().num_vertices(), g.num_vertices());
        assert_eq!(engine.shared_graph().num_edges(), g.num_edges());
        let q = all_labels_query(&g, "v0", "v4");
        assert!(engine.answer(&q, Algorithm::Uis).unwrap().answer);
    }

    #[test]
    fn engine_reuses_index() {
        let engine = LscrEngine::with_index_config(
            figure3(),
            LocalIndexConfig { num_landmarks: Some(2), seed: 4, ..Default::default() },
        );
        let first = engine.local_index();
        assert_eq!(first.stats().num_landmarks, 2);
        // Second access returns the same shared build.
        let again = engine.local_index();
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn set_prebuilt_index() {
        let g = Arc::new(figure3());
        let idx = LocalIndex::build(
            &g,
            &LocalIndexConfig { num_landmarks: Some(3), seed: 9, ..Default::default() },
        );
        let engine = LscrEngine::new(Arc::clone(&g));
        engine.set_local_index(idx).unwrap();
        assert_eq!(engine.local_index().stats().num_landmarks, 3);
    }

    #[test]
    fn mismatched_index_rejected() {
        // An index built for a *different* graph must not be accepted.
        let engine = LscrEngine::new(figure3());
        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("x", "p", "y");
        let other = b.build().unwrap();
        let foreign = LocalIndex::build(&other, &LocalIndexConfig::default());
        match engine.set_local_index(foreign) {
            Err(QueryError::IndexGraphMismatch { expected, found }) => {
                assert_ne!(expected, found);
                assert_eq!(expected, engine.graph().fingerprint());
            }
            other => panic!("expected IndexGraphMismatch, got {other:?}"),
        }
        // The engine still has no index installed.
        assert!(engine.local_index_if_built().is_none());
    }

    #[test]
    fn plan_cache_shares_compiled_constraints() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        assert_eq!(engine.cached_plans(), 0);
        let q1 = all_labels_query(&g, "v0", "v4");
        let q2 = all_labels_query(&g, "v3", "v4"); // same constraint text
        let c1 = engine.compile(&q1).unwrap();
        let c2 = engine.compile(&q2).unwrap();
        assert_eq!(engine.cached_plans(), 1);
        assert!(Arc::ptr_eq(&c1.constraint, &c2.constraint), "plans must be shared");
        // A different constraint gets its own cache slot.
        let q3 = LscrQuery::new(
            q1.source,
            q1.target,
            q1.label_constraint,
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> ?y . }").unwrap(),
        );
        engine.compile(&q3).unwrap();
        assert_eq!(engine.cached_plans(), 2);
    }

    #[test]
    fn prepared_query_memoizes_vsg() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let prepared = engine.prepare(&all_labels_query(&g, "v0", "v4")).unwrap();
        assert_eq!(prepared.vsg_len_if_materialized(), None);
        let out = engine.answer_prepared(&prepared, Algorithm::UisStar, &QueryOptions::default());
        assert!(out.answer);
        // First UIS* execution materialized V(S0,G0) = {v1, v2}.
        assert_eq!(prepared.vsg_len_if_materialized(), Some(2));
        let again = engine.answer_prepared(&prepared, Algorithm::Ins, &QueryOptions::default());
        assert!(again.answer);
        assert_eq!(again.stats.vsg_size, Some(2));
    }

    #[test]
    fn auto_planner_decisions() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();

        // Unsatisfiable constraint → UIS* (free false from empty V(S,G)).
        let unsat = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.all_labels(),
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> <ghost> . }").unwrap(),
        );
        let compiled = engine.compile(&unsat).unwrap();
        assert_eq!(engine.plan_algorithm(&compiled, None), Algorithm::UisStar);

        // No index built: the planner must not pick INS (and must not
        // trigger a build as a side effect).
        let q = engine.compile(&all_labels_query(&g, "v0", "v4")).unwrap();
        let chosen = engine.plan_algorithm(&q, None);
        assert_ne!(chosen, Algorithm::Ins);
        assert!(engine.local_index_if_built().is_none(), "planning must not build");

        // Index available + tiny V(S,G) (exact hint) → INS.
        let _ = engine.local_index();
        assert_eq!(engine.plan_algorithm(&q, Some(1)), Algorithm::Ins);

        // Huge V(S,G) → UIS regardless of index.
        assert_eq!(engine.plan_algorithm(&q, Some(g.num_vertices())), Algorithm::Uis);

        // Whatever Auto picks, the recorded choice is a concrete
        // algorithm and the answer matches the oracle.
        let out = engine.answer(&all_labels_query(&g, "v0", "v4"), Algorithm::Auto).unwrap();
        let expected = engine.answer(&all_labels_query(&g, "v0", "v4"), Algorithm::Oracle).unwrap();
        assert_eq!(out.answer, expected.answer);
        assert!(matches!(
            out.stats.algorithm,
            Some(Algorithm::Uis | Algorithm::UisStar | Algorithm::Ins)
        ));
    }

    #[test]
    fn engine_snapshot_roundtrip() {
        let engine = LscrEngine::with_index_config(
            figure3(),
            LocalIndexConfig { num_landmarks: Some(2), seed: 4, ..Default::default() },
        );
        let q = all_labels_query(&engine.graph(), "v0", "v4");

        // Without an index built: snapshot restores graph only.
        let mut bytes = Vec::new();
        engine.save_snapshot(&mut bytes).unwrap();
        let restored = LscrEngine::from_snapshot(&bytes[..]).unwrap();
        assert!(restored.local_index_if_built().is_none());
        assert_eq!(restored.graph().fingerprint(), engine.graph().fingerprint());
        assert!(restored.answer(&q, Algorithm::Uis).unwrap().answer);

        // With the index built: both come back, nothing is rebuilt.
        let built = engine.local_index();
        let mut bytes = Vec::new();
        engine.save_snapshot(&mut bytes).unwrap();
        let restored = LscrEngine::from_snapshot(&bytes[..]).unwrap();
        let idx = restored.local_index_if_built().expect("index restored from snapshot");
        assert_eq!(idx.stats().num_landmarks, built.stats().num_landmarks);
        assert_eq!(idx.graph_fingerprint(), built.graph_fingerprint());
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert_eq!(
                restored.answer(&q, alg).unwrap().answer,
                engine.answer(&q, alg).unwrap().answer,
                "{alg} disagrees after snapshot restore"
            );
        }
    }

    #[test]
    fn engine_snapshot_file_roundtrip() {
        let engine = LscrEngine::new(figure3());
        let _ = engine.local_index();
        let dir = std::env::temp_dir().join("kgreach_engine_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.kgsnap");
        engine.save_snapshot_file(&path).unwrap();
        let restored = LscrEngine::from_snapshot_file(&path).unwrap();
        assert_eq!(restored.graph().fingerprint(), engine.graph().fingerprint());
        assert!(restored.local_index_if_built().is_some());
        std::fs::remove_file(&path).ok();
        // Missing file surfaces as a typed graph/io error.
        assert!(matches!(
            LscrEngine::from_snapshot_file(dir.join("missing.kgsnap")),
            Err(QueryError::Graph(kgreach_graph::GraphError::Io(_)))
        ));
    }

    #[test]
    fn answer_batch_matches_sequential() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let mut queries = Vec::new();
        let algs = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto];
        let names = ["v0", "v1", "v2", "v3", "v4"];
        for (i, s) in names.iter().enumerate() {
            for t in names {
                queries.push((all_labels_query(&g, s, t), algs[i % algs.len()]));
            }
        }
        let sequential: Vec<bool> = queries
            .iter()
            .map(|(q, _)| engine.answer(q, Algorithm::Oracle).unwrap().answer)
            .collect();
        for threads in [0, 1, 2, 8] {
            let results = engine.answer_batch(&queries, threads);
            assert_eq!(results.len(), queries.len());
            for (i, r) in results.iter().enumerate() {
                assert_eq!(
                    r.as_ref().unwrap().answer,
                    sequential[i],
                    "threads={threads}, query {i}"
                );
            }
        }
        assert!(engine.answer_batch(&[], 4).is_empty());
    }

    #[test]
    fn invalid_query_errors() {
        let engine = LscrEngine::new(figure3());
        let q = LscrQuery::new(
            kgreach_graph::VertexId(99),
            engine.graph().vertex_id("v4").unwrap(),
            engine.graph().all_labels(),
            s0(),
        );
        assert!(engine.answer(&q, Algorithm::Uis).is_err());
        // Batch surfaces per-query errors without failing the batch.
        let ok = all_labels_query(&engine.graph(), "v0", "v4");
        let results = engine.answer_batch(&[(q, Algorithm::Uis), (ok, Algorithm::Uis)], 2);
        assert!(results[0].is_err());
        assert!(results[1].as_ref().unwrap().answer);
    }

    #[test]
    fn apply_update_changes_answers_and_invalidates_caches() {
        let engine = LscrEngine::new(figure3());
        let q = {
            let g = engine.graph();
            LscrQuery::new(
                g.vertex_id("v0").unwrap(),
                g.vertex_id("v4").unwrap(),
                g.label_set(&["likes", "follows"]),
                s0(),
            )
        };
        assert!(engine.answer(&q, Algorithm::Uis).unwrap().answer);
        assert_eq!(engine.graph_epoch(), 0);
        assert_eq!(engine.cached_plans(), 1);

        // Sever the only satisfying route under {likes, follows}.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v2", "follows", "v4");
        let out = engine.apply_update(&batch).unwrap();
        assert_eq!(out.summary.edges_deleted, 1);
        assert_eq!(out.epoch, 1);
        assert_eq!(out.index, IndexMaintenance::NotBuilt);
        assert_eq!(engine.graph_epoch(), 1);
        assert_eq!(engine.cached_plans(), 0, "plan cache invalidated");
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert!(!engine.answer(&q, alg).unwrap().answer, "{alg} must see the delete");
        }

        // Re-create a route through a brand-new vertex; old compiled
        // queries keep working (recompiled transparently).
        let compiled = engine.compile(&q).unwrap();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v2", "follows", "bridge").insert("bridge", "likes", "v4");
        let out = engine.apply_update(&batch).unwrap();
        assert_eq!(out.summary.vertices_added, 1);
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert!(engine.answer(&q, alg).unwrap().answer, "{alg} must see the insert");
        }
        // Stale compiled query (epoch 1) against epoch-2 graph.
        assert!(engine.answer_compiled(&compiled, Algorithm::Uis).answer);
    }

    #[test]
    fn apply_update_patches_or_rebuilds_the_index() {
        let engine = LscrEngine::with_index_config(
            figure3(),
            LocalIndexConfig { num_landmarks: Some(3), seed: 7, ..Default::default() },
        );
        let _ = engine.local_index();
        let fp_before = engine.local_index().graph_fingerprint();

        // A one-edge batch stays within the staleness budget → patched.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v4", "likes", "v0");
        let out = engine.apply_update(&batch).unwrap();
        assert!(
            matches!(out.index, IndexMaintenance::Patched { partitions_repaired: 0..=1 }),
            "one touched source repairs at most one partition, got {:?}",
            out.index
        );
        let idx = engine.local_index_if_built().expect("index maintained, not dropped");
        assert_eq!(idx.graph_fingerprint(), engine.graph().fingerprint());
        assert_ne!(idx.graph_fingerprint(), fp_before);

        // INS answers correctly against the maintained index.
        let g = engine.graph();
        let q = LscrQuery::new(
            g.vertex_id("v4").unwrap(),
            g.vertex_id("v2").unwrap(),
            g.label_set(&["likes"]),
            s0(),
        );
        let want = engine.answer(&q, Algorithm::Oracle).unwrap().answer;
        assert_eq!(engine.answer(&q, Algorithm::Ins).unwrap().answer, want);

        // A huge batch (relative to the graph) blows the delta threshold:
        // compaction + index rebuild.
        let mut big = kgreach_graph::UpdateBatch::new();
        for i in 0..20 {
            big.insert(&format!("bulk{i}"), "likes", &format!("bulk{}", i + 1));
        }
        let out = engine.apply_update(&big).unwrap();
        assert!(out.compacted, "20 edges on a 9-edge graph must trigger compaction");
        assert_eq!(out.index, IndexMaintenance::Rebuilt);
        assert!(!engine.graph().has_overlay());
        let idx = engine.local_index_if_built().unwrap();
        assert_eq!(idx.graph_fingerprint(), engine.graph().fingerprint());
    }

    #[test]
    fn noop_update_keeps_state() {
        let engine = LscrEngine::new(figure3());
        let g_before = engine.graph();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v0", "likes", "v2"); // already present
        let out = engine.apply_update(&batch).unwrap();
        assert!(!out.summary.changed());
        assert!(!out.compacted);
        assert_eq!(out.epoch, 0);
        assert!(Arc::ptr_eq(&g_before, &engine.graph()), "no-op update must not swap the graph");
    }

    #[test]
    fn failed_update_leaves_engine_untouched() {
        let engine = LscrEngine::new(figure3());
        let mut batch = kgreach_graph::UpdateBatch::new();
        for i in 0..kgreach_graph::MAX_LABELS {
            batch.insert("a", &format!("p{i}"), "b");
        }
        assert!(matches!(
            engine.apply_update(&batch),
            Err(QueryError::Graph(kgreach_graph::GraphError::TooManyLabels { .. }))
        ));
        assert_eq!(engine.graph_epoch(), 0);
        assert_eq!(engine.graph().num_edges(), 8);
    }

    #[test]
    fn explicit_compact_preserves_served_answers() {
        let engine = LscrEngine::new(figure3());
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v4", "likes", "v0").delete("v0", "likes", "v2");
        engine.apply_update(&batch).unwrap();
        assert!(engine.graph().has_overlay());
        let q = all_labels_query(&engine.graph(), "v3", "v0");
        let before = engine.answer(&q, Algorithm::Uis).unwrap().answer;
        let epoch = engine.graph_epoch();
        engine.compact();
        assert!(!engine.graph().has_overlay());
        assert_eq!(engine.graph_epoch(), epoch, "compaction is content-preserving");
        assert_eq!(engine.answer(&q, Algorithm::Uis).unwrap().answer, before);
        engine.compact(); // idempotent
    }

    #[test]
    fn prepared_queries_track_updates() {
        let engine = LscrEngine::new(figure3());
        engine.local_index();
        let q = {
            let g = engine.graph();
            LscrQuery::new(
                g.vertex_id("v0").unwrap(),
                g.vertex_id("v4").unwrap(),
                g.label_set(&["likes", "follows"]),
                s0(),
            )
        };
        let prepared = engine.prepare(&q).unwrap();
        let algorithms = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto];
        // A prepared run is the compiled run: same answer, same counters
        // (after a warm-up run, as both share the plan's SCck memo).
        let agree = |phase: &str| {
            let compiled = engine.compile(&q).unwrap();
            for alg in algorithms {
                let opts = QueryOptions::default();
                engine.answer_prepared(&prepared, alg, &opts);
                let p = engine.answer_prepared(&prepared, alg, &opts);
                let c = engine.session().answer_compiled(&compiled, alg, &opts);
                assert_eq!(p.answer, c.answer, "{phase} {alg}: answers differ");
                assert_eq!(p.stats, c.stats, "{phase} {alg}: stats differ");
            }
        };
        agree("before update");
        let out = engine.answer_prepared(&prepared, Algorithm::UisStar, &QueryOptions::default());
        assert!(out.answer);
        assert_eq!(out.stats.vsg_size, Some(2));

        // Delete one of the two satisfying vertices' qualifying edges:
        // V(S0,G) shrinks, the rebound plan re-materializes, answers
        // update.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v1", "friendOf", "v3");
        engine.apply_update(&batch).unwrap();
        let out = engine.answer_prepared(&prepared, Algorithm::UisStar, &QueryOptions::default());
        assert!(out.answer, "v2 still satisfies S0 and routes v0 to v4");
        assert_eq!(out.stats.vsg_size, Some(1));
        assert_eq!(
            engine.compile(&q).unwrap().constraint.vsg_len_if_materialized(),
            Some(1),
            "the stale handle rebound to the cached plan and filled its memo"
        );
        agree("after update");
    }

    #[test]
    fn prepared_runs_share_the_plan_vsg_memo() {
        // A prepared query and an ad-hoc query with the same SPARQL text
        // evaluate V(S,G) once between them: the prepared run fills the
        // memo of the plan the engine's plan cache hands out.
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let q = all_labels_query(&g, "v0", "v4");
        let prepared = engine.prepare(&q).unwrap();
        engine.answer_prepared(&prepared, Algorithm::UisStar, &QueryOptions::default());
        assert_eq!(engine.compile(&q).unwrap().constraint.vsg_len_if_materialized(), Some(2));
    }

    #[test]
    fn reload_from_snapshot_swaps_state_and_advances_epoch() {
        // Serving engine: figure3 with an index and a cached plan.
        let engine = LscrEngine::new(figure3());
        let _ = engine.local_index();
        let q = all_labels_query(&engine.graph(), "v0", "v4");
        assert!(engine.answer(&q, Algorithm::Ins).unwrap().answer);
        assert_eq!(engine.cached_plans(), 1);

        // Replacement snapshot: a different graph entirely.
        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("a", "likes", "b");
        b.add_triple("b", "likes", "c");
        let other = LscrEngine::new(b.build().unwrap());
        let _ = other.local_index();
        let mut bytes = Vec::new();
        other.save_snapshot(&mut bytes).unwrap();

        let epoch = engine.reload_from_snapshot(&bytes[..]).unwrap();
        assert_eq!(epoch, 1, "reload must advance past the replaced epoch 0");
        assert_eq!(engine.graph_epoch(), 1);
        assert_eq!(engine.cached_plans(), 0, "plan cache invalidated on reload");
        assert_eq!(engine.graph().fingerprint(), other.graph().fingerprint());
        let idx = engine.local_index_if_built().expect("index restored from snapshot");
        assert_eq!(idx.graph_fingerprint(), engine.graph().fingerprint());

        // Answers now follow the new content for every algorithm (the
        // constraint is re-resolved against the new graph: b satisfies
        // it and sits on the a → c path).
        let g = engine.graph();
        let q2 = LscrQuery::new(
            g.vertex_id("a").unwrap(),
            g.vertex_id("c").unwrap(),
            g.all_labels(),
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> <c> . }").unwrap(),
        );
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert!(engine.answer(&q2, alg).unwrap().answer, "{alg} after reload");
        }
    }

    #[test]
    fn failed_reload_leaves_engine_serving() {
        let engine = LscrEngine::new(figure3());
        let q = all_labels_query(&engine.graph(), "v0", "v4");
        let fp = engine.graph().fingerprint();
        // Not a snapshot at all.
        assert!(engine.reload_from_snapshot(&b"garbage"[..]).is_err());
        // Truncated snapshot.
        let mut bytes = Vec::new();
        engine.save_snapshot(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(engine.reload_from_snapshot(&bytes[..]).is_err());
        assert_eq!(engine.graph().fingerprint(), fp, "state untouched on failed reload");
        assert_eq!(engine.graph_epoch(), 0);
        assert!(engine.answer(&q, Algorithm::Uis).unwrap().answer);
    }

    #[test]
    fn engine_info_reports_served_state() {
        let engine = LscrEngine::new(figure3());
        let info = engine.info();
        assert_eq!(info.num_vertices, 5);
        assert_eq!(info.num_edges, 8);
        assert_eq!(info.epoch, 0);
        assert!(!info.index_built && !info.has_overlay);
        assert!(info.graph_heap_bytes > 0);
        let _ = engine.local_index();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v4", "likes", "v0");
        engine.apply_update(&batch).unwrap();
        let info = engine.info();
        assert_eq!(info.num_edges, 9);
        assert_eq!(info.epoch, 1);
        assert!(info.index_built && info.has_overlay);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Uis.name(), "UIS");
        assert_eq!(Algorithm::UisStar.to_string(), "UIS*");
        assert_eq!(Algorithm::Ins.to_string(), "INS");
        assert_eq!(Algorithm::Auto.to_string(), "Auto");
        assert_eq!(Algorithm::ALL.len(), 3);
        assert!(!Algorithm::ALL.contains(&Algorithm::Auto));
    }
}
