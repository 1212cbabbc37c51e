//! Failure injection and edge cases: oversized alphabets, out-of-range
//! ids, malformed SPARQL, unsatisfiable constraints, degenerate queries,
//! and the binary-snapshot corruption battery — truncations, bit flips,
//! wrong magic, future versions, mismatched artifacts. Every failure is
//! a typed error; none panics, none yields a silently wrong artifact.

use kgreach::{
    Algorithm, LocalIndex, LocalIndexConfig, LscrEngine, LscrQuery, QueryError,
    SubstructureConstraint,
};
use kgreach_graph::snapshot::{self, ArtifactKind, FORMAT_VERSION, MAGIC};
use kgreach_graph::{Graph, GraphBuilder, GraphError, LabelSet, VertexId, MAX_LABELS};
use kgreach_integration::{random_typed_graph, small_lubm};

#[test]
fn too_many_labels_is_a_typed_error() {
    let mut b = GraphBuilder::new();
    for i in 0..=MAX_LABELS {
        b.add_triple("a", &format!("p{i}"), "b");
    }
    match b.build() {
        Err(GraphError::TooManyLabels { requested, max }) => {
            assert_eq!(requested, MAX_LABELS + 1);
            assert_eq!(max, MAX_LABELS);
        }
        other => panic!("expected TooManyLabels, got {other:?}"),
    }
}

#[test]
fn out_of_range_vertices_rejected_at_compile() {
    let engine = LscrEngine::new(small_lubm(31));
    let c =
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }").unwrap();
    let q = LscrQuery::new(VertexId(u32::MAX - 1), VertexId(0), engine.graph().all_labels(), c);
    match engine.answer(&q, Algorithm::Uis) {
        Err(QueryError::Graph(GraphError::VertexOutOfRange { .. })) => {}
        other => panic!("expected VertexOutOfRange, got {other:?}"),
    }
}

#[test]
fn malformed_sparql_is_rejected() {
    for text in [
        "",
        "SELECT",
        "SELECT ?x",
        "SELECT ?x WHERE",
        "SELECT ?x WHERE { }",
        "SELECT ?x WHERE { ?x <p> }",
        "SELECT ?x WHERE { ?x <p ?y }",
        "WHERE { ?x <p> ?y }",
        "SELECT ?missing WHERE { ?x <p> ?y }",
        "SELECT ?x ?y WHERE { ?x <p> ?y }", // two projections: not a constraint
    ] {
        assert!(
            SubstructureConstraint::parse(text).is_err(),
            "accepted malformed constraint: {text:?}"
        );
    }
}

#[test]
fn unsatisfiable_constraint_answers_false_everywhere() {
    let engine = LscrEngine::new(small_lubm(32));
    let c = SubstructureConstraint::parse(
        "SELECT ?x WHERE { ?x <no:such:predicate> <no:such:vertex> . }",
    )
    .unwrap();
    let q = LscrQuery::new(VertexId(0), VertexId(1), engine.graph().all_labels(), c);
    for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle] {
        let out = engine.answer(&q, alg).unwrap();
        assert!(!out.answer, "{alg} claimed an unsatisfiable constraint holds");
    }
}

#[test]
fn source_equals_target_is_consistent_across_algorithms() {
    let engine = LscrEngine::new(small_lubm(33));
    let g = engine.graph();
    let c = SubstructureConstraint::parse(
        "SELECT ?x WHERE { ?x <rdf:type> <ub:UndergraduateStudent> . }",
    )
    .unwrap();
    for raw in [0u32, 7, 100, 500] {
        let v = VertexId(raw % g.num_vertices() as u32);
        let q = LscrQuery::new(v, v, g.all_labels(), c.clone());
        let expected = engine.answer(&q, Algorithm::Oracle).unwrap().answer;
        for alg in Algorithm::ALL {
            assert_eq!(
                engine.answer(&q, alg).unwrap().answer,
                expected,
                "{alg} inconsistent on s = t = {v}"
            );
        }
    }
}

#[test]
fn empty_label_constraint_only_trivial_paths() {
    let engine = LscrEngine::new(small_lubm(34));
    let g = engine.graph();
    let c = SubstructureConstraint::parse(
        "SELECT ?x WHERE { ?x <rdf:type> <ub:UndergraduateStudent> . }",
    )
    .unwrap();
    // Distinct endpoints, empty L: no path exists.
    let q = LscrQuery::new(VertexId(0), VertexId(1), LabelSet::EMPTY, c.clone());
    for alg in Algorithm::ALL {
        assert!(!engine.answer(&q, alg).unwrap().answer, "{alg}");
    }
    // s = t where s satisfies S: the zero-edge path answers true.
    let ug = g.vertex_id("UndergraduateStudent0.Department0.University0").unwrap();
    let q = LscrQuery::new(ug, ug, LabelSet::EMPTY, c);
    for alg in Algorithm::ALL {
        assert!(engine.answer(&q, alg).unwrap().answer, "{alg}");
    }
}

#[test]
fn graph_with_no_edges() {
    let mut b = GraphBuilder::new();
    b.intern_vertex("lonely1");
    b.intern_vertex("lonely2");
    b.intern_label("p");
    let engine = LscrEngine::new(b.build().unwrap());
    let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <p> ?y . }").unwrap();
    let q = LscrQuery::new(VertexId(0), VertexId(1), engine.graph().all_labels(), c);
    for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle] {
        assert!(!engine.answer(&q, alg).unwrap().answer, "{alg}");
    }
}

#[test]
fn triple_parser_rejects_garbage() {
    use kgreach_graph::triples::parse_line;
    for (line, text) in
        [(1usize, "<a> <b>"), (2, "<unterminated"), (3, "\"unterminated"), (4, "<a> <b> <c> <d>")]
    {
        let err = parse_line(text, line).unwrap_err();
        match err {
            GraphError::Parse { line: l, .. } => assert_eq!(l, line),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}

/// A small graph whose engine snapshot (graph + index) is a few KiB, so
/// exhaustive per-byte corruption sweeps stay fast.
fn snapshot_fixture() -> (Graph, Vec<u8>) {
    let g = random_typed_graph(14, 30, 3, 2, 0xBAD);
    let engine = LscrEngine::with_index_config(
        g,
        LocalIndexConfig { num_landmarks: Some(3), seed: 0xBAD, ..Default::default() },
    );
    let _ = engine.local_index();
    let mut bytes = Vec::new();
    engine.save_snapshot(&mut bytes).unwrap();
    (engine.shared_graph().as_ref().clone(), bytes)
}

#[test]
fn snapshot_wrong_magic_is_typed() {
    let (_, mut bytes) = snapshot_fixture();
    bytes[..8].copy_from_slice(b"NOTSNAP!");
    assert!(matches!(
        LscrEngine::from_snapshot(&bytes[..]),
        Err(QueryError::Graph(GraphError::SnapshotBadMagic))
    ));
    // An arbitrary non-snapshot file is bad magic too, even a tiny one.
    assert!(matches!(
        snapshot::read_graph_snapshot(&b"<a> <p> <b> .\n"[..]),
        Err(GraphError::SnapshotBadMagic)
    ));
    assert!(matches!(snapshot::read_graph_snapshot(&b"KG"[..]), Err(GraphError::SnapshotBadMagic)));
}

#[test]
fn snapshot_future_version_is_typed() {
    let (_, mut bytes) = snapshot_fixture();
    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[8..10].copy_from_slice(&future);
    match LscrEngine::from_snapshot(&bytes[..]) {
        Err(QueryError::Graph(GraphError::SnapshotVersion { found, supported })) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected SnapshotVersion, got {other:?}"),
    }
}

#[test]
fn snapshot_artifact_kind_mismatch_is_typed() {
    let (g, engine_bytes) = snapshot_fixture();
    // A graph snapshot fed to the engine loader, and vice versa.
    let mut graph_bytes = Vec::new();
    snapshot::write_graph_snapshot(&g, &mut graph_bytes).unwrap();
    assert!(matches!(
        LscrEngine::from_snapshot(&graph_bytes[..]),
        Err(QueryError::Graph(GraphError::SnapshotKind { .. }))
    ));
    assert!(matches!(
        snapshot::read_graph_snapshot(&engine_bytes[..]),
        Err(GraphError::SnapshotKind { expected, found })
            if expected == ArtifactKind::Graph as u8 && found == ArtifactKind::Engine as u8
    ));
    assert!(matches!(LocalIndex::load(&engine_bytes[..]), Err(GraphError::SnapshotKind { .. })));
}

#[test]
fn snapshot_every_truncation_is_typed() {
    let (_, bytes) = snapshot_fixture();
    assert_eq!(&bytes[..8], &MAGIC, "fixture sanity");
    for len in 0..bytes.len() {
        match LscrEngine::from_snapshot(&bytes[..len]) {
            Err(QueryError::Graph(
                GraphError::SnapshotBadMagic
                | GraphError::SnapshotCorrupt { .. }
                | GraphError::SnapshotVersion { .. },
            )) => {}
            other => panic!("truncation to {len} bytes: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn snapshot_every_bit_flip_is_typed() {
    let (_, bytes) = snapshot_fixture();
    // Flip every bit of every byte past the 12-byte header (header flips
    // are covered by the magic/version/kind tests above). Checksums must
    // catch each one; no panic, no silent acceptance.
    for i in 12..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            assert!(
                LscrEngine::from_snapshot(&mutated[..]).is_err(),
                "flip of bit {bit} in byte {i} went undetected"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The bulk (borrowed-slice) snapshot load entry points —
// `from_snapshot_bytes`, `read_graph_snapshot_bytes`,
// `LocalIndex::load_bytes`, and the file loaders built on them — must
// uphold exactly the same corruption contract as the `Read` entry points
// above: every truncation, bit flip and splice is a typed error, never a
// panic, never silent acceptance.
// ---------------------------------------------------------------------------

#[test]
fn bulk_load_header_errors_are_typed() {
    let (g, mut bytes) = snapshot_fixture();
    let pristine = bytes.clone();
    bytes[..8].copy_from_slice(b"NOTSNAP!");
    assert!(matches!(
        LscrEngine::from_snapshot_bytes(&bytes),
        Err(QueryError::Graph(GraphError::SnapshotBadMagic))
    ));
    assert!(matches!(
        snapshot::read_graph_snapshot_bytes(b"<a> <p> <b> .\n"),
        Err(GraphError::SnapshotBadMagic)
    ));
    assert!(matches!(
        snapshot::read_graph_snapshot_bytes(b"KG"),
        Err(GraphError::SnapshotBadMagic)
    ));

    let mut future = pristine.clone();
    future[8..10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match LscrEngine::from_snapshot_bytes(&future) {
        Err(QueryError::Graph(GraphError::SnapshotVersion { found, supported })) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected SnapshotVersion, got {other:?}"),
    }

    // Kind mismatches, all three loaders.
    let mut graph_bytes = Vec::new();
    snapshot::write_graph_snapshot(&g, &mut graph_bytes).unwrap();
    assert!(matches!(
        LscrEngine::from_snapshot_bytes(&graph_bytes),
        Err(QueryError::Graph(GraphError::SnapshotKind { .. }))
    ));
    assert!(matches!(
        snapshot::read_graph_snapshot_bytes(&pristine),
        Err(GraphError::SnapshotKind { expected, found })
            if expected == ArtifactKind::Graph as u8 && found == ArtifactKind::Engine as u8
    ));
    assert!(matches!(LocalIndex::load_bytes(&pristine), Err(GraphError::SnapshotKind { .. })));
}

#[test]
fn bulk_load_every_truncation_is_typed() {
    let (_, bytes) = snapshot_fixture();
    for len in 0..bytes.len() {
        match LscrEngine::from_snapshot_bytes(&bytes[..len]) {
            Err(QueryError::Graph(
                GraphError::SnapshotBadMagic
                | GraphError::SnapshotCorrupt { .. }
                | GraphError::SnapshotVersion { .. },
            )) => {}
            other => panic!("truncation to {len} bytes: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn bulk_load_every_bit_flip_is_typed_and_matches_stream_reader() {
    let (_, bytes) = snapshot_fixture();
    for i in 12..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            let bulk = LscrEngine::from_snapshot_bytes(&mutated);
            assert!(bulk.is_err(), "flip of bit {bit} in byte {i} went undetected (bulk path)");
            // The `Read` entry point buffers the stream and must report
            // the very same typed error.
            let stream = LscrEngine::from_snapshot(&mutated[..]);
            assert_eq!(
                format!("{:?}", stream.err()),
                format!("{:?}", bulk.err()),
                "Read and bytes entry points disagree (byte {i} bit {bit})"
            );
        }
    }
}

/// Byte ranges of each section frame in a snapshot container, walked
/// from the raw framing (mirrors the codec-level helper in
/// `crates/kg/src/snapshot.rs`).
fn frame_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut pos = 12; // header
    let mut out = Vec::new();
    while pos < bytes.len() {
        let tag = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
        let len = u64::from_le_bytes(bytes[pos + 2..pos + 10].try_into().unwrap()) as usize;
        let end = pos + 10 + len + 8;
        out.push(pos..end);
        pos = end;
        if tag == 0 {
            break;
        }
    }
    out
}

#[test]
fn bulk_load_rejects_spliced_sections() {
    // Transplant each intact section frame from a second engine snapshot
    // (same shape, different seed) into the fixture: the checksum chain
    // must reject every chimera on the bulk path too.
    let (_, bytes_a) = snapshot_fixture();
    let g = random_typed_graph(14, 30, 3, 2, 0xBEEF);
    let engine = LscrEngine::with_index_config(
        g,
        LocalIndexConfig { num_landmarks: Some(3), seed: 0xBEEF, ..Default::default() },
    );
    let _ = engine.local_index();
    let mut bytes_b = Vec::new();
    engine.save_snapshot(&mut bytes_b).unwrap();

    let frames_a = frame_ranges(&bytes_a);
    let frames_b = frame_ranges(&bytes_b);
    assert_eq!(frames_a.len(), frames_b.len(), "fixture snapshots frame identically");
    for (idx, (fa, fb)) in frames_a.iter().zip(&frames_b).enumerate() {
        let mut chimera = Vec::with_capacity(bytes_a.len());
        chimera.extend_from_slice(&bytes_a[..fa.start]);
        chimera.extend_from_slice(&bytes_b[fb.clone()]);
        chimera.extend_from_slice(&bytes_a[fa.end..]);
        assert!(
            LscrEngine::from_snapshot_bytes(&chimera).is_err(),
            "section {idx} spliced from another snapshot was accepted (bulk path)"
        );
    }
}

#[test]
fn bulk_file_loaders_report_missing_files_as_io() {
    let missing = std::env::temp_dir().join("kgfail-no-such-snapshot.kgsnap");
    assert!(matches!(snapshot::load_graph_snapshot(&missing), Err(GraphError::Io(_))));
    assert!(matches!(LocalIndex::load_file(&missing), Err(GraphError::Io(_))));
    assert!(matches!(
        LscrEngine::from_snapshot_file(&missing),
        Err(QueryError::Graph(GraphError::Io(_)))
    ));
}

#[test]
fn index_snapshot_from_different_graph_is_rejected() {
    // Persist an index for graph A, restart against graph B: the embedded
    // fingerprint must trip the existing IndexGraphMismatch path.
    let a = random_typed_graph(14, 30, 3, 2, 0xA);
    let index_a = LocalIndex::build(
        &a,
        &LocalIndexConfig { num_landmarks: Some(3), seed: 1, ..Default::default() },
    );
    let mut bytes = Vec::new();
    index_a.save(&mut bytes).unwrap();
    let loaded = LocalIndex::load(&bytes[..]).unwrap();

    let b = random_typed_graph(14, 30, 3, 2, 0xB);
    let engine_b = LscrEngine::new(b);
    match engine_b.set_local_index(loaded) {
        Err(QueryError::IndexGraphMismatch { expected, found }) => {
            assert_eq!(expected, engine_b.graph().fingerprint());
            assert_eq!(found, index_a.graph_fingerprint());
        }
        other => panic!("expected IndexGraphMismatch, got {other:?}"),
    }
    assert!(engine_b.local_index_if_built().is_none(), "foreign index must not be installed");

    // The same index loads fine against its own graph.
    let engine_a = LscrEngine::new(a);
    engine_a.set_local_index(LocalIndex::load(&bytes[..]).unwrap()).unwrap();
    assert!(engine_a.local_index_if_built().is_some());
}

#[test]
fn budget_exceeded_surfaces_progress() {
    use kgreach_lcr::{Budget, FullTransitiveClosure};
    let g = small_lubm(35);
    let err = FullTransitiveClosure::build(&g, Budget::with_limit(std::time::Duration::ZERO))
        .unwrap_err();
    assert!(err.to_string().contains("budget"));
}

// ---------------------------------------------------------------------------
// Write-ahead-log recovery battery. The file-level frame sweeps live next to
// the codec (`crates/kg/src/wal.rs`); these tests drive the same damage
// through the *recovery path* (`DurableEngine::open` over a real data
// directory) and hold it to the durability contract: every corruption mode
// is a typed error or a clean torn-tail truncation, recovered state is
// byte-for-byte the acknowledged state, and replaying a log twice (the
// checkpoint/rotation crash window) changes nothing.
// ---------------------------------------------------------------------------

use kgreach::durable::WAL_FILE;
use kgreach::{DurableEngine, FsyncPolicy, GraphFingerprint, UpdateBatch, WalConfig};
use kgreach_datagen::updates::{update_workload, UpdateWorkloadConfig};
use kgreach_graph::Triple;
use std::path::PathBuf;

/// Fixed WAL file-header size (`crates/kg/src/wal.rs`):
/// magic (8) | version u16 (2) | reserved (6) | base_seq u64 (8).
const WAL_HEADER: usize = 24;

fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgfail-wal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_config() -> WalConfig {
    // Fsync policy is irrelevant to these tests (the process exits
    // cleanly; only *power* loss distinguishes policies) and `Off` keeps
    // the sweeps fast. Auto-checkpointing is disabled so the log under
    // test never rotates out from under the sweep.
    WalConfig { fsync: FsyncPolicy::Off, checkpoint_bytes: u64::MAX }
}

fn wal_init_graph() -> Graph {
    random_typed_graph(10, 18, 3, 2, 0x3a1)
}

/// One guaranteed-fresh insert per call: record `i + 1` in the log is
/// exactly `fresh_insert(i)`, so log prefixes map to batch prefixes.
fn fresh_insert(i: usize) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    b.insert(&format!("wal-v{i}"), "wal-edge", &format!("wal-v{}", i + 1));
    b
}

/// Fingerprint of the init graph plus the first `k` fresh inserts,
/// applied directly (no durability layer). Interning is deterministic,
/// so a correctly recovered engine fingerprints identically.
fn prefix_fingerprint(k: usize) -> GraphFingerprint {
    let e = LscrEngine::new(wal_init_graph());
    for i in 0..k {
        e.apply_update(&fresh_insert(i)).expect("apply");
    }
    e.graph().fingerprint()
}

/// Builds a data directory holding checkpoint-0 plus a log of `records`
/// fresh inserts, "crashes" (drops without checkpoint or shutdown), and
/// returns the directory with the raw log bytes.
fn wal_fixture(name: &str, records: usize) -> (PathBuf, Vec<u8>) {
    let dir = wal_dir(name);
    let (d, _) = DurableEngine::open(&dir, wal_config(), || Ok(LscrEngine::new(wal_init_graph())))
        .expect("init");
    for i in 0..records {
        let out = d.apply_update(&fresh_insert(i)).expect("apply");
        assert_eq!(out.seq, Some(i as u64 + 1), "fresh inserts log densely");
    }
    drop(d);
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("read log");
    (dir, bytes)
}

/// End offsets of each complete record frame (record layout:
/// seq u64 | len u32 | head_crc u32 | payload | body_crc u64).
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = WAL_HEADER;
    while off + 16 <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes")) as usize;
        off += 16 + len + 8;
        assert!(off <= bytes.len(), "fixture log must not end mid-frame");
        ends.push(off);
    }
    ends
}

/// Cutting the log at *every* byte offset either recovers exactly the
/// longest clean record prefix (reporting the torn bytes) or — when the
/// file header itself is torn — fails with a typed error. The recovered
/// engine keeps accepting updates, numbered from the surviving prefix.
#[test]
fn wal_every_torn_tail_recovers_the_longest_clean_prefix() {
    const RECORDS: usize = 5;
    let (dir, bytes) = wal_fixture("torn", RECORDS);
    let ends = record_ends(&bytes);
    assert_eq!(ends.len(), RECORDS);
    let expected: Vec<GraphFingerprint> = (0..=RECORDS).map(prefix_fingerprint).collect();

    for cut in 0..bytes.len() {
        std::fs::write(dir.join(WAL_FILE), &bytes[..cut]).expect("write cut");
        if cut < WAL_HEADER {
            match DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")) {
                Err(QueryError::Graph(GraphError::WalCorrupt { .. } | GraphError::WalBadMagic)) => {
                }
                other => panic!("cut {cut}: torn header must be typed, got {other:?}"),
            }
            continue;
        }
        let complete = ends.iter().filter(|&&e| e <= cut).count();
        let clean_end = if complete == 0 { WAL_HEADER } else { ends[complete - 1] };
        let (d, report) = DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun"))
            .unwrap_or_else(|e| panic!("cut {cut}: torn tail must recover, got {e}"));
        assert_eq!(report.replayed, complete as u64, "cut {cut}");
        assert_eq!(report.truncated_bytes, (cut - clean_end) as u64, "cut {cut}");
        assert_eq!(d.engine().graph().fingerprint(), expected[complete], "cut {cut}");
        // The log was physically truncated to the clean prefix and keeps
        // accepting appends where it left off.
        let out = d.apply_update(&fresh_insert(RECORDS + 8 + cut)).expect("post-recovery apply");
        assert_eq!(out.seq, Some(complete as u64 + 1), "cut {cut}");
        drop(d);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Flipping a bit anywhere in the log either trips a typed check (magic,
/// version, or the record checksum chain) or — only in the header's six
/// reserved bytes, which carry no content — recovers the full log
/// unchanged. No flip panics; no flip silently alters recovered state.
#[test]
fn wal_every_bit_flip_is_typed_or_content_preserving() {
    const RECORDS: usize = 3;
    let (dir, bytes) = wal_fixture("flip", RECORDS);
    let full = prefix_fingerprint(RECORDS);

    for pos in 0..bytes.len() {
        let bit = pos % 8; // rotate the flipped bit so every byte is covered cheaply
        let mut mutated = bytes.clone();
        mutated[pos] ^= 1 << bit;
        std::fs::write(dir.join(WAL_FILE), &mutated).expect("write mutation");
        match DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")) {
            Err(QueryError::Graph(
                GraphError::WalBadMagic
                | GraphError::WalVersion { .. }
                | GraphError::WalCorrupt { .. },
            )) => {}
            Ok((d, report)) => {
                assert!(
                    (8..16).contains(&pos),
                    "flip at byte {pos} bit {bit} must not pass undetected"
                );
                assert_eq!(report.replayed, RECORDS as u64, "byte {pos}");
                assert_eq!(d.engine().graph().fingerprint(), full, "byte {pos}");
                drop(d);
            }
            Err(other) => panic!("flip at byte {pos}: untyped error {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A byte-for-byte duplicate of the last record spliced onto the log is
/// corruption, not a replayable record: its header checksum was chained
/// off the *previous* record, so the scan reports the splice offset.
#[test]
fn wal_spliced_duplicate_record_is_typed_corruption() {
    let (dir, bytes) = wal_fixture("splice", 3);
    let ends = record_ends(&bytes);
    let mut spliced = bytes.clone();
    spliced.extend_from_slice(&bytes[ends[1]..ends[2]]);
    std::fs::write(dir.join(WAL_FILE), &spliced).expect("write splice");
    match DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")) {
        Err(QueryError::Graph(GraphError::WalCorrupt { offset, .. })) => {
            assert_eq!(offset, ends[2] as u64, "corruption reported at the splice");
        }
        other => panic!("expected WalCorrupt at the splice, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint/rotation crash window: a checkpoint lands but the old
/// log (now entirely covered by it) survives. Replaying those duplicate
/// records is a sequence-number no-op — recovered state and subsequent
/// numbering are exactly as if the rotation had completed.
#[test]
fn wal_checkpoint_overlap_replay_is_idempotent() {
    let dir = wal_dir("overlap");
    let (d, _) = DurableEngine::open(&dir, wal_config(), || Ok(LscrEngine::new(wal_init_graph())))
        .expect("init");
    for i in 0..4 {
        d.apply_update(&fresh_insert(i)).expect("apply");
    }
    let pre_rotation_log = std::fs::read(dir.join(WAL_FILE)).expect("read log");
    d.checkpoint().expect("checkpoint").expect("non-empty log yields a report");
    drop(d);
    // Un-rotate: put the pre-checkpoint log (records 1..=4, all now
    // covered by the checkpoint) back in place.
    std::fs::write(dir.join(WAL_FILE), &pre_rotation_log).expect("restore old log");

    let (d, report) =
        DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")).expect("recover");
    assert_eq!(report.skipped, 4, "covered records are skipped, not re-applied");
    assert_eq!(report.replayed, 0);
    assert_eq!(d.engine().graph().fingerprint(), prefix_fingerprint(4));
    let out = d.apply_update(&fresh_insert(4)).expect("apply");
    assert_eq!(out.seq, Some(5), "numbering continues past the duplicates");
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end recovery differential: a realistic insert/delete/churn
/// stream is applied through the durability layer, the process "crashes"
/// (no checkpoint, no shutdown), and the recovered engine must hold
/// exactly the final triple set and answer like an engine rebuilt from
/// it — on all four algorithms, judged against the oracle.
#[test]
fn wal_recovery_matches_rebuilt_engine_on_every_algorithm() {
    let final_graph = small_lubm(17);
    let final_triples: Vec<Triple> = final_graph.to_triples().collect();
    let w = update_workload(
        &final_triples,
        &UpdateWorkloadConfig {
            holdout_fraction: 0.08,
            batch_size: 30,
            churn_per_batch: 2,
            seed: 0xd1ff,
        },
    );

    let dir = wal_dir("differential");
    let base = w.base.clone();
    let (d, _) = DurableEngine::open(&dir, wal_config(), move || {
        let mut b = GraphBuilder::new();
        for t in &base {
            b.add(t);
        }
        Ok(LscrEngine::new(b.build()?))
    })
    .expect("init");
    for batch in &w.batches {
        d.apply_update(batch).expect("apply");
    }
    let logged = d.stats().last_seq;
    assert!(logged > 0, "workload must log something");
    drop(d); // crash

    let (d, report) =
        DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")).expect("recover");
    assert_eq!(report.replayed, logged);
    assert_eq!(report.skipped, 0);
    let recovered = d.engine();

    // The workload contract says base + every batch reproduces the final
    // triple set exactly; recovery must land on precisely that state.
    let key = |t: &Triple| (t.subject.clone(), t.predicate.clone(), t.object.clone());
    let mut got: Vec<Triple> = recovered.graph().to_triples().collect();
    let mut want = final_triples.clone();
    got.sort_by_key(key);
    want.sort_by_key(key);
    assert_eq!(got, want, "recovered triple set differs from the acknowledged one");

    // Vertex/label ids differ (replay interns incrementally, the rebuild
    // interns in triple order), so queries translate by name.
    let rebuilt = LscrEngine::new(final_graph);
    let rg = rebuilt.graph();
    let kg = recovered.graph();
    let constraint =
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }").unwrap();
    let vertices: Vec<VertexId> = rg.vertices().collect();
    let step = (vertices.len() / 9).max(1);
    for &s in vertices.iter().step_by(step) {
        for &t in vertices.iter().step_by(step) {
            let ks = kg.vertex_id(rg.vertex_name(s)).expect("same vertex set");
            let kt = kg.vertex_id(rg.vertex_name(t)).expect("same vertex set");
            let rq = LscrQuery::new(s, t, rg.all_labels(), constraint.clone());
            let kq = LscrQuery::new(ks, kt, kg.all_labels(), constraint.clone());
            let expected = rebuilt.answer(&rq, Algorithm::Oracle).unwrap().answer;
            for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
                assert_eq!(
                    recovered.answer(&kq, alg).unwrap().answer,
                    expected,
                    "recovered {alg:?} disagrees with the rebuilt oracle on {} -> {}",
                    rg.vertex_name(s),
                    rg.vertex_name(t),
                );
            }
        }
    }
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}
