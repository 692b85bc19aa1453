//! Layer probes for the traced run.
//!
//! Every traced run reports every per-layer metric. A workload measures
//! the layers its own loop drives; these probes measure the rest on
//! small seeded inputs, each call inside a span. The runtime
//! primitives are only measured here: they are timed from outside, in
//! isolation, inside one native parallel region.

use std::time::Instant;

use crono_algos::{bfs, connected, pagerank, scale, sssp, triangle, Benchmark};
use crono_graph::gen::RmatParams;
use crono_graph::shard::{Partition, ShardedGraph};
use crono_graph::stream::{build_sharded, mirror, RmatStream, StreamConfig};
use crono_graph::{CompressedCsr, CsrGraph};
use crono_runtime::{
    Machine, NativeCtx, NativeMachine, RunOptions, SlidingQueue, Steal, ThreadCtx, WorkDeque,
};
use crono_suite::{Scale, Workload};

use crate::{oracle, serve, sim, stats, Bench};

/// Repetitions of each probe measurement; the median is reported.
const REPEATS: usize = 5;

fn missing(b: &Bench, prefix: &str) -> bool {
    crate::metrics::PER_LAYER
        .iter()
        .any(|(n, _)| n.starts_with(prefix) && !b.layer.contains_key(*n))
}

/// Runs every probe whose layer still lacks a metric.
pub fn fill(b: &mut Bench) {
    b.spans.set_on(true);
    if missing(b, "engine.") {
        serve::probe(b);
    }
    runtime(b);
    if missing(b, "sim.") {
        sim_probe(b);
    }
    if missing(b, "algos.") {
        algos(b);
    }
    if missing(b, "graph.") {
        graph(b);
    }
}

/// Median nanoseconds per call of `op` over `calls` calls, timed on one
/// native thread; `prepare` runs untimed before each repetition.
fn per_call_ns<C: ThreadCtx>(
    ctx: &mut C,
    calls: usize,
    mut prepare: impl FnMut(&mut C),
    mut op: impl FnMut(&mut C),
) -> f64 {
    let samples: Vec<f64> = (0..REPEATS * 4)
        .map(|_| {
            prepare(ctx);
            let t = Instant::now();
            for _ in 0..calls {
                op(ctx);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&samples)
}

/// Runtime primitives: parallel-region start-up, barrier, deque
/// pop/steal/steal-half, sliding-queue chunk push.
fn runtime(b: &mut Bench) {
    let machine = NativeMachine::new(b.threads);
    let region_us: Vec<f64> = b.spans.time("runtime", "region", None, || {
        (0..200)
            .map(|_| {
                let t = Instant::now();
                machine.run(|_| ());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    });
    b.set_layer("runtime.region_us", stats::median(&region_us));

    const BARRIERS: usize = 20_000;
    let barrier_ns: Vec<f64> = b.spans.time("runtime", "barrier", None, || {
        (0..REPEATS)
            .map(|_| {
                let out = machine.run(|ctx| {
                    ctx.barrier();
                    let t = Instant::now();
                    for _ in 0..BARRIERS {
                        ctx.barrier();
                    }
                    t.elapsed().as_nanos() as f64 / BARRIERS as f64
                });
                out.per_thread[0]
            })
            .collect()
    });
    b.set_layer("runtime.barrier_ns", stats::median(&barrier_ns));

    const TASKS: usize = 4096;
    let one = NativeMachine::new(1);
    let [pop, steal, half, chunk] = b.spans.time("runtime", "deque_and_queue", None, || {
        one.run(|ctx| {
            let victim = WorkDeque::new(TASKS);
            let dest = WorkDeque::new(TASKS);
            let fill = |ctx: &mut NativeCtx, d: &WorkDeque, n: usize| {
                while d.pop(ctx).is_some() {}
                for t in 0..n as u64 {
                    d.push(ctx, t);
                }
            };
            let pop = per_call_ns(
                ctx,
                TASKS,
                |c| fill(c, &victim, TASKS),
                |c| {
                    assert!(victim.pop(c).is_some(), "filled above");
                },
            );
            let steal = per_call_ns(
                ctx,
                TASKS,
                |c| fill(c, &victim, TASKS),
                |c| {
                    assert!(matches!(victim.steal(c), Steal::Taken(_)), "filled above");
                },
            );
            // One steal-half from a 64-task backlog per call.
            let half = per_call_ns(
                ctx,
                1,
                |c| {
                    fill(c, &victim, 64);
                    while dest.pop(c).is_some() {}
                },
                |c| {
                    assert!(
                        matches!(victim.steal_half(c, &dest), Steal::Taken(_)),
                        "filled above"
                    );
                },
            );
            let queue = SlidingQueue::new(64 * TASKS);
            let items: Vec<u32> = (0..64).collect();
            let chunk = per_call_ns(
                ctx,
                TASKS,
                |c| queue.reset(c),
                |c| queue.push_chunk(c, &items),
            );
            [pop, steal, half, chunk]
        })
        .per_thread[0]
    });
    b.set_layer("runtime.deque_pop_ns", pop);
    b.set_layer("runtime.deque_steal_ns", steal);
    b.set_layer("runtime.steal_half_ns", half);
    b.set_layer("runtime.sliding_queue_push_chunk_ns", chunk);
}

/// Simulator host cost: BFS on the seeded `test` input at 1, 16 and 64
/// simulated threads; counts are summed over the three runs.
fn sim_probe(b: &mut Bench) {
    let w = Workload::synthetic(&Scale {
        seed: b.seed,
        ..Scale::test()
    });
    let refs = sim::References::new(&w);
    let mut totals = [0u64; 8];
    for threads in [1, 16, 64] {
        let m = sim::machine(threads);
        let t = Instant::now();
        let (report, ok) = b.spans.time("sim", "BFS", None, || {
            sim::run_checked(Benchmark::Bfs, &m, &w, &refs)
        });
        let ns = t.elapsed().as_nanos() as f64;
        b.tally.check(ok, || {
            format!("probe BFS at {threads} simulated threads: wrong output")
        });
        let c = oracle::sim_counters(&report);
        for (t, x) in totals.iter_mut().zip(c) {
            *t += x;
        }
        b.set_layer(
            &format!("sim.host_ns_per_l1d_access.t{threads}"),
            ns / c[2] as f64,
        );
    }
    sim::record_counts(b, &totals);
}

/// Median ms of `REPEATS` runs of `f`, each inside a span; `check`
/// judges every output.
fn time_kernel<T>(
    b: &mut Bench,
    name: &'static str,
    mut f: impl FnMut() -> T,
    check: impl Fn(&T) -> bool,
) -> f64 {
    let mut ms = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        let out = b.spans.time("algos", name, None, &mut f);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        b.tally
            .check(check(&out), || format!("probe {name}: wrong output"));
    }
    stats::median(&ms)
}

/// Native kernels on the seeded serve graph (`small` scale) at the
/// benchmark's thread count, plus the engine's PageRank snapshot
/// builder.
fn algos(b: &mut Bench) {
    let g: CsrGraph = serve::serve_graph(b.seed, 0);
    let m = NativeMachine::new(b.threads);
    let iters = crono_suite::engine::EngineOptions::default().pagerank_iters;
    let levels = oracle::bfs_levels(&g, 0);
    let dist = oracle::dijkstra(&g, 0, sssp::UNREACHABLE);
    let raw_dist = oracle::dijkstra(&g, 0, scale::UNREACHED);
    let push = pagerank::reference(&g, 5);
    let pull = scale::pagerank_pull(&g, 5);
    let snapshot = pagerank::reference(&g, iters);
    let labels = oracle::component_labels(&g);
    let triangles = triangle::reference(&g);
    let sharded: ShardedGraph<CompressedCsr> =
        ShardedGraph::from_csr(&g, Partition::one_d(g.num_vertices(), 4)).expect("partition fits");

    let v = time_kernel(
        b,
        "bfs",
        || bfs::parallel(&m, &g, 0),
        |o| o.output.level == levels,
    );
    b.set_layer("algos.bfs_ms", v);
    let v = time_kernel(
        b,
        "sssp",
        || sssp::parallel(&m, &g, 0),
        |o| o.output.dist == dist,
    );
    b.set_layer("algos.sssp_ms", v);
    let v = time_kernel(
        b,
        "pagerank",
        || pagerank::parallel(&m, &g, 5),
        |o| oracle::ranks_close(&o.output.ranks, &push, 1e-9),
    );
    b.set_layer("algos.pagerank_ms", v);
    let v = time_kernel(
        b,
        "cc",
        || connected::parallel(&m, &g),
        |o| o.output.labels == labels,
    );
    b.set_layer("algos.cc_ms", v);
    let v = time_kernel(
        b,
        "tricnt",
        || triangle::parallel(&m, &g),
        |o| o.output.total == triangles,
    );
    b.set_layer("algos.tricnt_ms", v);
    let v = time_kernel(
        b,
        "sharded_bfs",
        || scale::sharded_bfs(&m, &sharded, 0),
        |o| o.output == levels,
    );
    b.set_layer("algos.sharded_bfs_ms", v);
    let v = time_kernel(
        b,
        "sharded_sssp",
        || scale::sharded_sssp(&m, &sharded, 0),
        |o| o.output == raw_dist,
    );
    b.set_layer("algos.sharded_sssp_ms", v);
    let v = time_kernel(
        b,
        "sharded_pagerank",
        || scale::sharded_pagerank(&m, &sharded, 5),
        |o| oracle::ranks_bitwise(&o.output, &pull),
    );
    b.set_layer("algos.sharded_pagerank_ms", v);
    let opts = RunOptions::default();
    let v = time_kernel(
        b,
        "pagerank_pull",
        || pagerank::try_parallel_pull(&m, &opts, &g, iters).map_err(|e| e.to_string()),
        |o| {
            o.as_ref()
                .is_ok_and(|o| oracle::ranks_bitwise(&o.output.ranks, &snapshot))
        },
    );
    b.set_layer("algos.pagerank_pull_ms", v);
}

/// Graph build: a scale-14 R-MAT stream through the out-of-core builder
/// with a sort buffer small enough to spill, then a flat-CSR pack.
fn graph(b: &mut Bench) {
    let spill = Bench::out_dir().join(format!("probe-spill-{}", std::process::id()));
    let stream =
        RmatStream::new(14, 8 << 14, 8, RmatParams::default(), b.seed).expect("valid R-MAT");
    let cfg = StreamConfig::new(&spill).with_sort_buffer_edges(1 << 16);
    let n = stream.num_vertices();
    let t = Instant::now();
    let built = b.spans.time("graph", "build_sharded", None, || {
        build_sharded::<CompressedCsr, _>(Partition::one_d(n, 4), mirror(stream.edges()), &cfg)
    });
    let secs = t.elapsed().as_secs_f64();
    let (sharded, st) = built.expect("spill directory is writable");
    b.set_layer("graph.stream_edges_per_s", st.edges_packed as f64 / secs);
    b.set_layer("graph.spill_bytes", st.spill_bytes as f64);
    b.set_layer("graph.bytes_per_edge", sharded.bytes_per_edge());
    let flat = build_sharded::<CsrGraph, _>(Partition::one_d(n, 1), mirror(stream.edges()), &cfg)
        .expect("spill directory is writable")
        .0;
    let _ = std::fs::remove_dir_all(&spill);
    let flat = flat.shard(0);
    let fingerprint = crono_graph::view_fingerprint(flat);
    let mut ns = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        let packed = b
            .spans
            .time("graph", "pack", None, || CompressedCsr::from_csr(flat));
        ns.push(t.elapsed().as_nanos() as f64 / flat.num_directed_edges() as f64);
        b.tally.check(
            crono_graph::view_fingerprint(&packed) == fingerprint,
            || "probe pack: edge set changed".to_string(),
        );
    }
    b.set_layer("graph.pack_ns_per_edge", stats::median(&ns));
}
