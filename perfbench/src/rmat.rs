//! `rmat-native`: an R-MAT graph streamed through the out-of-core
//! builder into a flat CSR and into compressed shards, then the
//! paper-default native kernels and the sharded scale-track kernels.
//!
//! One operation is one graph build, one pack, or one kernel run; its
//! work is the edges it streamed or traversed.

use std::path::Path;
use std::time::Instant;

use crono_algos::{bfs, connected, pagerank, scale, sssp, triangle};
use crono_graph::gen::RmatParams;
use crono_graph::shard::{Partition, ShardedGraph};
use crono_graph::stream::{build_sharded, mirror, BuildStats, RmatStream, StreamConfig};
use crono_graph::{view_fingerprint, CompressedCsr, CsrGraph, Packable};
use crono_runtime::NativeMachine;

use crate::metrics::jn;
use crate::{oracle, stats, steal, Bench, Measured};

/// R-MAT scale: 2^18 vertices.
const SCALE: u32 = 18;
/// R-MAT draws per vertex; mirrored, so twice as many directed edges.
const DRAWS_PER_VERTEX: u64 = 8;
/// Compressed shards of the 1-D partition.
const SHARDS: usize = 4;
/// Sort buffer of the out-of-core build, small enough that it spills.
const SORT_BUFFER_EDGES: usize = 1 << 20;
/// PageRank iterations (native and sharded).
const PR_ITERS: u32 = 5;
/// BFS/SSSP source: R-MAT's densest corner.
const SOURCE: u32 = 0;

/// Latency is that of the compressed pack of the whole graph: its work
/// is every edge whatever the seed, while a BFS or CC run depends on
/// the seed's graph shape, and percentiles over the mix of operations
/// (0.04-3 s each) jump between operation kinds. p75 needs 40 packs.
const TAIL_PCT: f64 = 75.0;
/// Index of the latency operation in [`OPS`].
const LATENCY_OP: usize = 1;

/// The operations of one pass, in run order.
const OPS: [&str; 10] = [
    "build",
    "pack",
    "bfs",
    "sssp",
    "pagerank",
    "cc",
    "tricnt",
    "sharded_bfs",
    "sharded_sssp",
    "sharded_pagerank",
];

/// Runs of each operation per pass: the 40-100 ms kernels repeat so
/// that each operation takes about 0.3 s or more of a ~13 s pass, and
/// the pack runs 45 times, so that one pass gives the latency
/// percentiles their 40 samples even when a few runs are not clean.
const REPS: [usize; 10] = [1, 45, 8, 5, 1, 6, 1, 4, 3, 2];

/// The operations of one pass, in run order: the build its sharded
/// kernels use first, then every operation's runs spread evenly over
/// the pass, so that each operation's samples span the pass and a
/// burst of host noise does not land on all runs of one operation.
/// Runs go on from pass to pass; a run may stop inside a pass, since
/// every statistic is per operation.
fn pass_order() -> Vec<usize> {
    let mut runs: Vec<(f64, usize)> = (1..OPS.len())
        .flat_map(|op| (0..REPS[op]).map(move |k| ((k as f64 + 0.5) / REPS[op] as f64, op)))
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    std::iter::repeat_n(0, REPS[0])
        .chain(runs.into_iter().map(|(_, op)| op))
        .collect()
}

/// Median rate of one operation's runs: its clean runs, or its least
/// stolen half.
fn op_median(runs: &[(f64, f64)]) -> f64 {
    stats::median(&steal::kept(runs, runs.len().div_ceil(2)))
}

/// Streams the seeded R-MAT graph, mirrored, into `partition`.
fn build<G: Packable>(
    seed: u64,
    partition: Partition,
    spill: &Path,
) -> (ShardedGraph<G>, BuildStats) {
    let stream = RmatStream::new(
        SCALE,
        DRAWS_PER_VERTEX << SCALE,
        8,
        RmatParams::default(),
        seed,
    )
    .expect("valid R-MAT parameters");
    let cfg = StreamConfig::new(spill).with_sort_buffer_edges(SORT_BUFFER_EDGES);
    build_sharded::<G, _>(partition, mirror(stream.edges()), &cfg)
        .expect("spill directory is writable")
}

struct References {
    fingerprint: u64,
    bfs: Vec<u32>,
    dist: Vec<u32>,
    sssp: Vec<u32>,
    ranks_push: Vec<f64>,
    ranks_pull: Vec<f64>,
    labels: Vec<u32>,
    triangles: u64,
}

struct State {
    flat: CsrGraph,
    sharded: Option<ShardedGraph<CompressedCsr>>,
    refs: References,
    machine: NativeMachine,
    spill: std::path::PathBuf,
    /// Per operation: edges per second of each run in the phase, with
    /// the share stolen while it ran.
    rates: [Vec<(f64, f64)>; OPS.len()],
    /// Per operation: traced-phase times in ms.
    traced_ms: [Vec<f64>; OPS.len()],
    last_build: BuildStats,
}

/// Runs `f` inside a span; returns its output and wall time.
fn timed<T>(
    b: &mut Bench,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, steal::Sample) {
    let timer = steal::Timer::start();
    let out = b.spans.time(layer, name, None, f);
    (out, timer.stop())
}

impl State {
    /// Runs operation `op`; returns (edges, wall time, output correct).
    /// The output check is not timed.
    fn op(&mut self, b: &mut Bench, seed: u64, op: usize) -> (f64, steal::Sample, bool) {
        let (g, m, r) = (&self.flat, &self.machine, &self.refs);
        let edges = g.num_directed_edges() as f64;
        let pr_edges = edges * f64::from(PR_ITERS);
        match OPS[op] {
            "build" => {
                self.sharded = None;
                let partition = Partition::one_d(g.num_vertices(), SHARDS);
                let ((s, st), t) = timed(b, "graph", "build_sharded", || {
                    build::<CompressedCsr>(seed, partition, &self.spill)
                });
                let ok = s.num_directed_edges() == g.num_directed_edges();
                let work = st.edges_packed as f64;
                self.sharded = Some(s);
                self.last_build = st;
                (work, t, ok)
            }
            "pack" => {
                let (c, t) = timed(b, "graph", "pack", || CompressedCsr::from_csr(g));
                (edges, t, view_fingerprint(&c) == r.fingerprint)
            }
            "bfs" => {
                let (o, t) = timed(b, "algos", "bfs", || bfs::parallel(m, g, SOURCE));
                (edges, t, o.output.level == r.bfs)
            }
            "sssp" => {
                let (o, t) = timed(b, "algos", "sssp", || sssp::parallel(m, g, SOURCE));
                (edges, t, o.output.dist == r.sssp)
            }
            "pagerank" => {
                let (o, t) = timed(b, "algos", "pagerank", || {
                    pagerank::parallel(m, g, PR_ITERS)
                });
                (
                    pr_edges,
                    t,
                    oracle::ranks_close(&o.output.ranks, &r.ranks_push, 1e-9),
                )
            }
            "cc" => {
                let (o, t) = timed(b, "algos", "cc", || connected::parallel(m, g));
                (edges, t, o.output.labels == r.labels)
            }
            "tricnt" => {
                let (o, t) = timed(b, "algos", "tricnt", || triangle::parallel(m, g));
                (edges, t, o.output.total == r.triangles)
            }
            name => {
                let s = self
                    .sharded
                    .as_ref()
                    .expect("a pass builds before its sharded kernels");
                match name {
                    "sharded_bfs" => {
                        let (o, t) = timed(b, "algos", "sharded_bfs", || {
                            scale::sharded_bfs(m, s, SOURCE)
                        });
                        (edges, t, o.output == r.bfs)
                    }
                    "sharded_sssp" => {
                        let (o, t) = timed(b, "algos", "sharded_sssp", || {
                            scale::sharded_sssp(m, s, SOURCE)
                        });
                        (edges, t, o.output == r.dist)
                    }
                    _ => {
                        let (o, t) = timed(b, "algos", "sharded_pagerank", || {
                            scale::sharded_pagerank(m, s, PR_ITERS as usize)
                        });
                        (pr_edges, t, oracle::ranks_bitwise(&o.output, &r.ranks_pull))
                    }
                }
            }
        }
    }
}

/// Runs the workload.
pub fn run(b: &mut Bench) -> Measured {
    let seed = b.seed;
    let spill = Bench::out_dir().join(format!("spill-{}", std::process::id()));
    let flat = b.setup(|b| {
        let (g, _) = b.spans.time("graph", "build_flat", None, || {
            build::<CsrGraph>(seed, Partition::one_d(1 << SCALE, 1), &spill)
        });
        g.shard(0).clone()
    });
    b.set_layer("graph.gen_ms", stats::median(&b.setup_samples()) * 1e3);
    let refs = References {
        fingerprint: view_fingerprint(&flat),
        bfs: oracle::bfs_levels(&flat, SOURCE),
        sssp: oracle::dijkstra(&flat, SOURCE, sssp::UNREACHABLE),
        dist: oracle::dijkstra(&flat, SOURCE, scale::UNREACHED),
        ranks_push: pagerank::reference(&flat, PR_ITERS),
        ranks_pull: scale::pagerank_pull(&flat, PR_ITERS as usize),
        labels: oracle::component_labels(&flat),
        // The sequential reference of the kernel itself: R-MAT keeps
        // parallel edges, which the brute-force `triangle::reference`
        // counts differently (and its hubs make it cubic).
        triangles: triangle::sequential(&NativeMachine::new(1), &flat)
            .output
            .total,
    };
    b.meta("rmat_vertices", flat.num_vertices().to_string());
    b.meta("rmat_directed_edges", flat.num_directed_edges().to_string());
    let mut st = State {
        flat,
        sharded: None,
        refs,
        machine: NativeMachine::new(b.threads),
        spill: spill.clone(),
        rates: Default::default(),
        traced_ms: Default::default(),
        last_build: BuildStats::default(),
    };
    let mut clean = (0, 0);
    let m = b.measure(&mut st, |b, st, seconds| {
        st.rates = Default::default();
        let mut latencies_ms = Vec::new();
        let t = Instant::now();
        // At least one whole pass, so every operation has a run.
        let (pass, mut next) = (pass_order(), 0);
        while next < pass.len()
            || !b.done(
                t,
                seconds,
                (steal::clean_count(&latencies_ms), latencies_ms.len()),
                TAIL_PCT,
            )
        {
            let op = pass[next % pass.len()];
            next += 1;
            let (work, s, ok) = st.op(b, seed, op);
            b.tally.check(ok, || format!("{}: wrong output", OPS[op]));
            if op == LATENCY_OP {
                latencies_ms.push((s.wall_s * 1e3, s.stolen));
            }
            st.rates[op].push((work / s.wall_s, s.stolen));
            if b.spans.on() {
                st.traced_ms[op].push(s.wall_s * 1e3);
            }
        }
        clean = (steal::clean_count(&latencies_ms), latencies_ms.len());
        // Median rate per operation, so a burst of host noise in one run
        // does not move it; geomean, so each operation weighs the same.
        let throughput = stats::geomean(st.rates.iter().map(|r| op_median(r)));
        // The clean packs when there are enough for the tail, else the
        // least stolen.
        let min = stats::min_samples(TAIL_PCT);
        Measured {
            throughput,
            latency: stats::summarize_at(&steal::kept(&latencies_ms, min), Some(TAIL_PCT)),
        }
    });
    let _ = std::fs::remove_dir_all(&spill);

    b.meta("clean_packs", clean.0.to_string());
    b.meta("packs", clean.1.to_string());
    let meps: Vec<f64> = st.rates.iter().map(|r| op_median(r) / 1e6).collect();
    b.meta("build_meps", jn(meps[0]));
    b.meta(
        "native_mteps",
        jn(stats::geomean(meps[2..].iter().copied())),
    );
    b.meta("rmat_threads", b.threads.to_string());
    b.meta(
        "op_meps",
        crate::metrics::obj(OPS.iter().zip(meps.iter().map(|&m| jn(m)))),
    );
    if b.spans.on() {
        let med = |i: usize| stats::median(&st.traced_ms[i]);
        let edges = st.flat.num_directed_edges() as f64;
        let build = st.last_build.clone();
        b.set_layer(
            "graph.stream_edges_per_s",
            build.edges_packed as f64 / (med(0) / 1e3),
        );
        b.set_layer("graph.pack_ns_per_edge", med(1) * 1e6 / edges);
        b.set_layer("graph.spill_bytes", build.spill_bytes as f64);
        let bpe = st.sharded.as_ref().map_or(f64::NAN, |s| s.bytes_per_edge());
        b.set_layer("graph.bytes_per_edge", bpe);
        for (i, name) in OPS.iter().enumerate().skip(2) {
            b.set_layer(&format!("algos.{name}_ms"), med(i));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_builds_first_and_runs_every_operation_its_reps() {
        let order = pass_order();
        assert_eq!(order[0], 0);
        for (op, reps) in REPS.iter().enumerate() {
            assert_eq!(order.iter().filter(|&&o| o == op).count(), *reps);
        }
        // Runs are spread: an operation that runs twice or more runs in
        // both halves of the pass.
        let half = order.len() / 2;
        for op in (0..OPS.len()).filter(|&op| REPS[op] > 1) {
            assert!(order[..half].contains(&op) && order[half..].contains(&op));
        }
    }
}
