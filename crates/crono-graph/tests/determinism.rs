//! Determinism and golden-snapshot tests for the five synthetic
//! generators.
//!
//! The suite's reproducibility promise is that a (generator, parameters,
//! seed) triple is a *permanent* name for a graph: same seed ⇒
//! byte-identical edge list, in the same process, across processes, and
//! regardless of how many threads the host machine runs. The golden
//! snapshots below pin vertex counts, edge counts, degree histograms, and
//! an FNV-1a fingerprint of the full weighted edge list, so any change to
//! the PRNG or the generators' draw order fails loudly instead of
//! silently invalidating every recorded benchmark result.

use crono_graph::gen::{
    preferential_attachment, rmat, road_network, tsp_cities, uniform_random, RmatParams,
};
use crono_graph::shard::{Partition, ShardedGraph};
use crono_graph::stream::{build_sharded, mirror, RmatStream, StreamConfig, UniformStream};
use crono_graph::{view_fingerprint, AdjacencyView, CompressedCsr, CsrGraph, Packable};

/// FNV-1a over the CSR's directed edge stream `(src, dst, weight)`.
fn fingerprint(g: &CsrGraph) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for v in 0..g.num_vertices() as u32 {
        for (u, w) in g.neighbors(v) {
            mix(v as u64);
            mix(u as u64);
            mix(w as u64);
        }
    }
    h
}

/// Vertex count per degree, indexed by degree (len = max degree + 1).
fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in 0..g.num_vertices() as u32 {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Asserts that `make` yields the same graph twice in-process and once
/// per thread across 4 concurrently spawned threads.
fn assert_deterministic(make: impl Fn() -> CsrGraph + Sync) {
    let once = make();
    assert_eq!(once, make(), "same seed must reproduce in-process");
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(&make)).collect();
        for h in handles {
            assert_eq!(
                once,
                h.join().expect("generator thread panicked"),
                "same seed must reproduce across threads"
            );
        }
    });
}

#[test]
fn uniform_is_deterministic_across_calls_and_threads() {
    assert_deterministic(|| uniform_random(64, 256, 8, 42));
}

#[test]
fn road_is_deterministic_across_calls_and_threads() {
    assert_deterministic(|| road_network(12, 12, 8, 0.2, 0.05, 42));
}

#[test]
fn rmat_is_deterministic_across_calls_and_threads() {
    assert_deterministic(|| rmat(7, 256, 8, RmatParams::default(), 42));
}

#[test]
fn preferential_is_deterministic_across_calls_and_threads() {
    assert_deterministic(|| preferential_attachment(100, 3, 8, 42));
}

#[test]
fn cities_is_deterministic_across_calls_and_threads() {
    let once = tsp_cities(12, 42);
    assert_eq!(once, tsp_cities(12, 42));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| tsp_cities(12, 42))).collect();
        for h in handles {
            assert_eq!(once, h.join().expect("generator thread panicked"));
        }
    });
}

#[test]
fn golden_uniform_snapshot() {
    let g = uniform_random(64, 256, 8, 42);
    assert_eq!(g.num_vertices(), 64);
    assert_eq!(g.num_directed_edges(), 512);
    assert_eq!(degree_histogram(&g), GOLDEN_UNIFORM_HIST);
    assert_eq!(fingerprint(&g), GOLDEN_UNIFORM_FP);
}

#[test]
fn golden_road_snapshot() {
    let g = road_network(12, 12, 8, 0.2, 0.05, 42);
    assert_eq!(g.num_vertices(), 144);
    assert_eq!(g.num_directed_edges(), GOLDEN_ROAD_EDGES);
    assert_eq!(degree_histogram(&g), GOLDEN_ROAD_HIST);
    assert_eq!(fingerprint(&g), GOLDEN_ROAD_FP);
}

#[test]
fn golden_rmat_snapshot() {
    let g = rmat(7, 256, 8, RmatParams::default(), 42);
    assert_eq!(g.num_vertices(), 128);
    assert_eq!(g.num_directed_edges(), GOLDEN_RMAT_EDGES);
    assert_eq!(degree_histogram(&g), GOLDEN_RMAT_HIST);
    assert_eq!(fingerprint(&g), GOLDEN_RMAT_FP);
}

#[test]
fn golden_preferential_snapshot() {
    let g = preferential_attachment(100, 3, 8, 42);
    assert_eq!(g.num_vertices(), 100);
    assert_eq!(g.num_directed_edges(), 2 * (6 + 96 * 3));
    assert_eq!(degree_histogram(&g), GOLDEN_PREF_HIST);
    assert_eq!(fingerprint(&g), GOLDEN_PREF_FP);
}

#[test]
fn golden_cities_snapshot() {
    let inst = tsp_cities(12, 42);
    assert_eq!(inst.num_cities(), 12);
    // The distance matrix is integral, so hashing it is exact.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &d in inst.distance_matrix() {
        for byte in (d as u64).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    assert_eq!(h, GOLDEN_CITIES_FP);
}

/// FNV-1a over an edge sequence in stream order: pins the order of
/// the edges as well as the set.
fn sequence_fingerprint(edges: impl Iterator<Item = (u32, u32, u32)>) -> (u64, u64) {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut count = 0;
    for (s, d, w) in edges {
        for v in [s, d, w] {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        count += 1;
    }
    (count, h)
}

/// Spans several generation blocks, with an unaligned tail.
fn rmat_stream() -> RmatStream {
    RmatStream::new(10, 100_003, 8, RmatParams::default(), 42).expect("valid R-MAT")
}

/// Spans several of the uniform stream's larger blocks.
fn uniform_stream() -> UniformStream {
    UniformStream::new(1_000, 600_007, 8, 7).expect("valid uniform stream")
}

/// Fingerprints of every shard, in shard order, of the mirrored R-MAT
/// stream built through a sort buffer of `budget` edges, and the
/// number of runs it spilled.
fn built<G: Packable + AdjacencyView>(
    tag: &str,
    shards: usize,
    budget: usize,
) -> (Vec<u64>, usize) {
    let stream = rmat_stream();
    let dir = std::env::temp_dir().join(format!("crono-determinism-{}-{tag}", std::process::id()));
    let cfg = StreamConfig::new(&dir).with_sort_buffer_edges(budget);
    let partition = Partition::one_d(stream.num_vertices(), shards);
    let (g, stats): (ShardedGraph<G>, _) =
        build_sharded(partition, mirror(stream.edges()), &cfg).expect("build succeeds");
    let _ = std::fs::remove_dir_all(&dir);
    (
        g.shards().iter().map(view_fingerprint).collect(),
        stats.runs_spilled,
    )
}

/// [`built`] through a sort buffer small enough to spill many runs.
fn spilled_build<G: Packable + AdjacencyView>(tag: &str, shards: usize) -> Vec<u64> {
    let (fingerprints, runs) = built::<G>(tag, shards, 5_000);
    assert!(runs > shards, "runs: {runs}");
    fingerprints
}

#[test]
fn golden_rmat_stream_snapshot() {
    assert_eq!(
        sequence_fingerprint(rmat_stream().edges()),
        GOLDEN_RMAT_STREAM
    );
}

#[test]
fn golden_uniform_stream_snapshot() {
    assert_eq!(
        sequence_fingerprint(uniform_stream().edges()),
        GOLDEN_UNIFORM_STREAM
    );
}

#[test]
fn golden_spilled_build_snapshot() {
    assert_eq!(spilled_build::<CsrGraph>("flat", 1), GOLDEN_SPILLED_FLAT);
    assert_eq!(
        spilled_build::<CompressedCsr>("compressed", 4),
        GOLDEN_SPILLED_COMPRESSED
    );
}

#[test]
fn sort_buffer_size_does_not_change_the_graph() {
    // 150 000 spills a run large enough to sort in parallel parts, then
    // a small tail run; 1 Mi sorts everything in RAM, in parts.
    assert_eq!(
        built::<CsrGraph>("two-runs", 1, 150_000),
        (GOLDEN_SPILLED_FLAT.to_vec(), 2)
    );
    assert_eq!(
        built::<CsrGraph>("in-ram", 1, 1 << 20),
        (GOLDEN_SPILLED_FLAT.to_vec(), 0)
    );
}

#[test]
fn print_golden_values_for_refresh() {
    // `cargo test -p crono-graph --test determinism -- --nocapture
    // print_golden` regenerates the constants below after an intentional
    // generator change.
    let u = uniform_random(64, 256, 8, 42);
    let r = road_network(12, 12, 8, 0.2, 0.05, 42);
    let m = rmat(7, 256, 8, RmatParams::default(), 42);
    let p = preferential_attachment(100, 3, 8, 42);
    let c = tsp_cities(12, 42);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &d in c.distance_matrix() {
        for byte in (d as u64).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    println!("UNIFORM fp={:#018X} hist={:?}", fingerprint(&u), degree_histogram(&u));
    println!(
        "ROAD edges={} fp={:#018X} hist={:?}",
        r.num_directed_edges(),
        fingerprint(&r),
        degree_histogram(&r)
    );
    println!(
        "RMAT edges={} fp={:#018X} hist={:?}",
        m.num_directed_edges(),
        fingerprint(&m),
        degree_histogram(&m)
    );
    println!("PREF fp={:#018X} hist={:?}", fingerprint(&p), degree_histogram(&p));
    println!("CITIES fp={h:#018X}");
    let (count, fp) = sequence_fingerprint(rmat_stream().edges());
    println!("RMAT_STREAM edges={count} fp={fp:#018X}");
    let (count, fp) = sequence_fingerprint(uniform_stream().edges());
    println!("UNIFORM_STREAM edges={count} fp={fp:#018X}");
    println!(
        "SPILLED_FLAT {:#018X?}",
        spilled_build::<CsrGraph>("print-flat", 1)
    );
    println!(
        "SPILLED_COMPRESSED {:#018X?}",
        spilled_build::<CompressedCsr>("print-compressed", 4)
    );
}

// ---- Golden values (regenerate with `print_golden_values_for_refresh`) ----

const GOLDEN_UNIFORM_FP: u64 = 0xB370_811C_EA9B_3825;
const GOLDEN_UNIFORM_HIST: &[usize] = &[0, 0, 0, 1, 5, 6, 6, 9, 10, 9, 9, 3, 4, 0, 2];
const GOLDEN_ROAD_EDGES: usize = 454;
const GOLDEN_ROAD_FP: u64 = 0x7F61_562C_D763_BB65;
const GOLDEN_ROAD_HIST: &[usize] = &[0, 1, 27, 69, 43, 4];
const GOLDEN_RMAT_EDGES: usize = 422;
const GOLDEN_RMAT_FP: u64 = 0xF2F0_5565_330D_DBE5;
const GOLDEN_RMAT_HIST: &[usize] = &[
    34, 30, 15, 13, 8, 6, 6, 2, 2, 1, 3, 0, 0, 0, 1, 1, 1, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
];
const GOLDEN_PREF_FP: u64 = 0x417F_B3FF_DF83_1245;
const GOLDEN_PREF_HIST: &[usize] = &[
    0, 0, 0, 35, 22, 13, 7, 6, 2, 1, 2, 0, 0, 4, 1, 1, 2, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 1,
];
const GOLDEN_CITIES_FP: u64 = 0x2862_1765_54F6_60D9;
const GOLDEN_RMAT_STREAM: (u64, u64) = (99_181, 0xD453_814B_D145_FF1B);
const GOLDEN_UNIFORM_STREAM: (u64, u64) = (599_406, 0x8A31_FAA8_DF5A_F298);
const GOLDEN_SPILLED_FLAT: &[u64] = &[0xBFC7_4617_F327_53A1];
const GOLDEN_SPILLED_COMPRESSED: &[u64] = &[
    0x045C_2561_AD59_3247,
    0xE442_C1ED_6BEA_E04A,
    0xC335_17CB_062E_F647,
    0xFAAC_CF6F_511F_A03A,
];
