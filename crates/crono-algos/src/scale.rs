//! Scale-track kernels: representation-generic sequential references
//! and shard-aware parallel drivers on the work-stealing [`TaskPool`].
//!
//! Everything here is written against [`AdjacencyView`], so the same
//! code runs on the flat [`crono_graph::CsrGraph`] and the varint
//! [`crono_graph::CompressedCsr`] — the equivalence tests pin their
//! outputs bit-identical. The sharded drivers execute one
//! [`crono_graph::shard::ShardedGraph`] with an owner-computes update
//! discipline:
//!
//! * **Scan phase** — one task per edge shard walks its slice of the
//!   frontier's adjacency and deposits candidate updates into
//!   per-`(shard, destination-block)` *inbox lanes*. Each lane has
//!   exactly one writer (its shard's task), so lane contents are
//!   deterministic regardless of which thread stole the task.
//! * **Claim phase** — one task per vertex block owns all state writes
//!   for its vertices, draining its lanes in fixed shard order.
//!
//! BFS claims are order-independent, SSSP claims are a commutative
//! `min`, and PageRank pulls partial sums in ascending shard order —
//! so results are bit-identical across shard counts (for PageRank,
//! under [`Placement::Block`], which preserves the global neighbor
//! order; see [`sharded_pagerank`]).
//!
//! Per-shard cost is attributed by deltas of
//! [`ThreadCtx::instructions`] around each task body: the body charges
//! the same modeled operations wherever it runs, so per-shard cycle
//! counts — and the MTEPS derived from them at the suite's 1 GHz
//! convention — are deterministic on the *native* backend too, unlike
//! wall-clock. Work-stealing retry backoff is deliberately excluded
//! from the attribution (it is scheduling-dependent).
//!
//! [`Placement::Block`]: crono_graph::shard::Placement::Block

use std::collections::{BinaryHeap, VecDeque};

use crate::costs;
use crono_graph::shard::ShardedGraph;
use crono_graph::{AdjacencyView, VertexId};
use crono_runtime::{
    Machine, Mutex, ReadArray, RunReport, SharedF64s, SharedU32s, SharedU64s, TaskPool, ThreadCtx,
};

/// Level label for unreached vertices in BFS output.
pub const UNVISITED: u32 = u32::MAX;

/// Distance label for unreached vertices in SSSP output.
pub const UNREACHED: u32 = u32::MAX;

/// PageRank damping, matching [`crate::pagerank`]: `0.15 + 0.85 * sum`.
const DAMPING: f64 = 0.15;

/// Steal-order seed for the scale drivers' pools.
const STEAL_SEED: u64 = 0x5CA1_E000;

// ---------------------------------------------------------------------
// Sequential references (host-side, representation-generic)
// ---------------------------------------------------------------------

/// Sequential BFS levels from `source`; `UNVISITED` where unreached.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_levels<V: AdjacencyView>(g: &V, source: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let mut level = vec![UNVISITED; n];
    level[source as usize] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let next = level[v as usize] + 1;
        for (u, _) in g.neighbors_of(v) {
            if level[u as usize] == UNVISITED {
                level[u as usize] = next;
                queue.push_back(u);
            }
        }
    }
    level
}

/// Sequential Dijkstra distances from `source`; `UNREACHED` where
/// unreached. Shortest-path distances are unique, so this oracle agrees
/// with the round-based relaxation in [`sharded_sssp`] exactly.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn sssp_distances<V: AdjacencyView>(g: &V, source: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let mut dist = vec![UNREACHED; n];
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::from([std::cmp::Reverse((0u32, source))]);
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (u, w) in g.neighbors_of(v) {
            let nd = d.saturating_add(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(std::cmp::Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Sequential pull-model PageRank, `iterations` fixed sweeps in
/// canonical adjacency order — the bit-exact oracle for
/// [`sharded_pagerank`]. Dangling vertices contribute zero.
pub fn pagerank_pull<V: AdjacencyView>(g: &V, iterations: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let mut rank = vec![1.0 / n.max(1) as f64; n];
    let mut contrib = vec![0.0f64; n];
    for _ in 0..iterations {
        for v in 0..n {
            let deg = g.degree(v as VertexId);
            contrib[v] = if deg > 0 { rank[v] / deg as f64 } else { 0.0 };
        }
        for v in 0..n as VertexId {
            let mut sum = 0.0f64;
            for (u, _) in g.neighbors_of(v) {
                sum += contrib[u as usize];
            }
            rank[v as usize] = DAMPING + (1.0 - DAMPING) * sum;
        }
    }
    rank
}

// ---------------------------------------------------------------------
// Sharded drivers
// ---------------------------------------------------------------------

/// Deterministic modeled cost of one shard across a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard id (for PageRank: the source-block id).
    pub shard: usize,
    /// Edges this shard's scan tasks traversed.
    pub edges: u64,
    /// Modeled cycles attributed to this shard's task bodies.
    pub cycles: u64,
}

impl ShardStats {
    /// Millions of traversed edges per second at the suite's 1 GHz
    /// modeled clock (`edges * 1e3 / cycles`).
    pub fn mteps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.edges as f64 * 1e3 / self.cycles as f64
        }
    }
}

/// Result of a sharded driver run.
#[derive(Debug)]
pub struct ScaleOutcome<T> {
    /// The kernel output (levels, distances, or ranks).
    pub output: T,
    /// Per-shard scan-side cost, indexed by shard (PageRank: by block).
    pub shards: Vec<ShardStats>,
    /// Modeled cycles spent in claim/apply task bodies (owner-side
    /// work not attributable to a single scanning shard).
    pub claim_cycles: u64,
    /// The backend's run report.
    pub report: RunReport,
}

impl<T> ScaleOutcome<T> {
    /// Total edges traversed across all shards.
    pub fn total_edges(&self) -> u64 {
        self.shards.iter().map(|s| s.edges).sum()
    }

    /// Total modeled cycles across scan and claim task bodies.
    pub fn total_cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.cycles).sum::<u64>() + self.claim_cycles
    }

    /// Aggregate modeled MTEPS assuming the task cycles spread
    /// perfectly over `threads` cores at 1 GHz — the deterministic
    /// throughput figure `results/scale.tsv` reports.
    pub fn total_mteps(&self, threads: usize) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.total_edges() as f64 * 1e3 * threads as f64 / cycles as f64
        }
    }
}

/// Pushes task ids `tid, tid + T, ...` below `count` to the caller's
/// own deque.
fn push_own_tasks<C: ThreadCtx>(ctx: &mut C, pool: &TaskPool, count: usize) {
    let mut k = ctx.thread_id();
    while k < count {
        let pushed = pool.push(ctx, k as u64);
        debug_assert!(pushed, "scale pools are sized to hold every task");
        k += ctx.num_threads();
    }
}

/// Drains a pool with stealing, exponential backoff while starved.
fn drain_pool<C: ThreadCtx>(ctx: &mut C, pool: &TaskPool, mut body: impl FnMut(&mut C, usize)) {
    let mut backoff = 32u32;
    loop {
        match pool.try_take(ctx) {
            Some(task) => {
                backoff = 32;
                body(ctx, task as usize);
                pool.complete(ctx);
            }
            None => {
                if pool.pending_total(ctx) == 0 {
                    break;
                }
                // Scheduling-dependent; never counted in shard stats.
                ctx.compute(backoff);
                backoff = (backoff * 2).min(4096);
            }
        }
    }
}

/// Candidate buffers indexed `[source shard][destination block]`: a
/// shard's scan appends to them and the block's claim drains them.
type Lanes<T> = Vec<Vec<Mutex<Vec<T>>>>;

fn new_lanes<T>(s_count: usize, b_count: usize) -> Lanes<T> {
    (0..s_count)
        .map(|_| (0..b_count).map(|_| Mutex::new(Vec::new())).collect())
        .collect()
}

/// Per-deque capacity so every task of a phase fits without overflow.
fn pool_capacity(tasks: usize, threads: usize) -> usize {
    tasks.div_ceil(threads.max(1)).max(4)
}

/// Level-synchronous sharded BFS from `source`.
///
/// Works on 1-D and 2-D partitions and either placement; output is
/// bit-identical to [`bfs_levels`] on the unsharded graph for every
/// combination (level claims are order-independent).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn sharded_bfs<M: Machine, G: AdjacencyView + Sync>(
    machine: &M,
    graph: &ShardedGraph<G>,
    source: VertexId,
) -> ScaleOutcome<Vec<u32>> {
    let p = *graph.partition();
    let n = p.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let s_count = p.num_shards();
    let b_count = p.blocks();
    let threads = machine.num_threads();

    let level = SharedU32s::filled(n, UNVISITED);
    level.set_plain(source as usize, 0);
    let frontiers: Vec<Mutex<Vec<VertexId>>> = (0..b_count)
        .map(|b| {
            Mutex::new(if b == p.block_of(source) {
                vec![source]
            } else {
                Vec::new()
            })
        })
        .collect();
    let lanes: Lanes<VertexId> = new_lanes(s_count, b_count);
    let scan_cycles = SharedU64s::new(s_count);
    let scan_edges = SharedU64s::new(s_count);
    let claim_cycles = SharedU64s::new(b_count);
    let next_total = SharedU64s::new(1);
    let scan_pool = TaskPool::new(threads, pool_capacity(s_count, threads), STEAL_SEED);
    let claim_pool = TaskPool::new(threads, pool_capacity(b_count, threads), STEAL_SEED ^ 1);

    let outcome = machine.run(|ctx| {
        let mut depth = 0u32;
        loop {
            push_own_tasks(ctx, &scan_pool, s_count);
            ctx.barrier();
            drain_pool(ctx, &scan_pool, |ctx, s| {
                let t0 = ctx.instructions();
                let frontier = frontiers[p.shard_src_block(s)].lock();
                if frontier.is_empty() {
                    return;
                }
                let shard = graph.shard(s);
                let mut local: Vec<Vec<VertexId>> = vec![Vec::new(); b_count];
                let mut edges = 0u64;
                for &v in frontier.iter() {
                    ctx.compute(costs::VISIT);
                    for (u, _) in shard.neighbors_of(v) {
                        edges += 1;
                        ctx.compute(costs::RELAX);
                        if level.get(ctx, u as usize) == UNVISITED {
                            local[p.block_of(u)].push(u);
                        }
                    }
                }
                drop(frontier);
                for (b, candidates) in local.into_iter().enumerate() {
                    if !candidates.is_empty() {
                        lanes[s][b].lock().extend(candidates);
                    }
                }
                let dt = ctx.instructions() - t0;
                scan_cycles.fetch_add(ctx, s, dt);
                scan_edges.fetch_add(ctx, s, edges);
            });
            ctx.barrier();

            push_own_tasks(ctx, &claim_pool, b_count);
            ctx.barrier();
            drain_pool(ctx, &claim_pool, |ctx, b| {
                let t0 = ctx.instructions();
                let mut new_front = Vec::new();
                for shard_lanes in lanes.iter() {
                    let mut lane = shard_lanes[b].lock();
                    for &u in lane.iter() {
                        ctx.compute(costs::VISIT);
                        if level.get(ctx, u as usize) == UNVISITED {
                            level.set(ctx, u as usize, depth + 1);
                            new_front.push(u);
                        }
                    }
                    lane.clear();
                }
                if !new_front.is_empty() {
                    next_total.fetch_add(ctx, 0, new_front.len() as u64);
                }
                *frontiers[b].lock() = new_front;
                let dt = ctx.instructions() - t0;
                claim_cycles.fetch_add(ctx, b, dt);
            });
            ctx.barrier();

            // Read the frontier size, then barrier BEFORE thread 0
            // resets the counter: a reset racing with slower readers
            // would let some threads observe 0 and exit early.
            let total = next_total.get(ctx, 0);
            ctx.barrier();
            if total == 0 {
                break;
            }
            if ctx.thread_id() == 0 {
                next_total.set(ctx, 0, 0);
            }
            depth += 1;
            ctx.barrier();
        }
    });

    ScaleOutcome {
        output: (0..n).map(|v| level.get_plain(v)).collect(),
        shards: (0..s_count)
            .map(|s| ShardStats {
                shard: s,
                edges: scan_edges.get_plain(s),
                cycles: scan_cycles.get_plain(s),
            })
            .collect(),
        claim_cycles: (0..b_count).map(|b| claim_cycles.get_plain(b)).sum(),
        report: outcome.report,
    }
}

/// Round-based sharded SSSP (level-synchronous Bellman–Ford) from
/// `source`. Claims are a commutative `min`, so distances are
/// bit-identical to [`sssp_distances`] across shard counts, partitions,
/// and placements.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn sharded_sssp<M: Machine, G: AdjacencyView + Sync>(
    machine: &M,
    graph: &ShardedGraph<G>,
    source: VertexId,
) -> ScaleOutcome<Vec<u32>> {
    let p = *graph.partition();
    let n = p.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let s_count = p.num_shards();
    let b_count = p.blocks();
    let threads = machine.num_threads();

    let dist = SharedU32s::filled(n, UNREACHED);
    dist.set_plain(source as usize, 0);
    let frontiers: Vec<Mutex<Vec<VertexId>>> = (0..b_count)
        .map(|b| {
            Mutex::new(if b == p.block_of(source) {
                vec![source]
            } else {
                Vec::new()
            })
        })
        .collect();
    let lanes: Lanes<(VertexId, u32)> = new_lanes(s_count, b_count);
    let scan_cycles = SharedU64s::new(s_count);
    let scan_edges = SharedU64s::new(s_count);
    let claim_cycles = SharedU64s::new(b_count);
    let next_total = SharedU64s::new(1);
    let scan_pool = TaskPool::new(threads, pool_capacity(s_count, threads), STEAL_SEED ^ 2);
    let claim_pool = TaskPool::new(threads, pool_capacity(b_count, threads), STEAL_SEED ^ 3);

    let outcome = machine.run(|ctx| {
        loop {
            push_own_tasks(ctx, &scan_pool, s_count);
            ctx.barrier();
            drain_pool(ctx, &scan_pool, |ctx, s| {
                let t0 = ctx.instructions();
                let frontier = frontiers[p.shard_src_block(s)].lock();
                if frontier.is_empty() {
                    return;
                }
                let shard = graph.shard(s);
                let mut local: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); b_count];
                let mut edges = 0u64;
                for &v in frontier.iter() {
                    ctx.compute(costs::VISIT);
                    let dv = dist.get(ctx, v as usize);
                    for (u, w) in shard.neighbors_of(v) {
                        edges += 1;
                        ctx.compute(costs::RELAX);
                        let nd = dv.saturating_add(w);
                        if nd < dist.get(ctx, u as usize) {
                            local[p.block_of(u)].push((u, nd));
                        }
                    }
                }
                drop(frontier);
                for (b, candidates) in local.into_iter().enumerate() {
                    if !candidates.is_empty() {
                        lanes[s][b].lock().extend(candidates);
                    }
                }
                let dt = ctx.instructions() - t0;
                scan_cycles.fetch_add(ctx, s, dt);
                scan_edges.fetch_add(ctx, s, edges);
            });
            ctx.barrier();

            push_own_tasks(ctx, &claim_pool, b_count);
            ctx.barrier();
            drain_pool(ctx, &claim_pool, |ctx, b| {
                let t0 = ctx.instructions();
                let mut improved = Vec::new();
                for shard_lanes in lanes.iter() {
                    let mut lane = shard_lanes[b].lock();
                    for &(u, nd) in lane.iter() {
                        ctx.compute(costs::RELAX);
                        if nd < dist.get(ctx, u as usize) {
                            dist.set(ctx, u as usize, nd);
                            improved.push(u);
                        }
                    }
                    lane.clear();
                }
                // A vertex can improve more than once in a round;
                // sort + dedup keeps the next frontier canonical.
                improved.sort_unstable();
                improved.dedup();
                if !improved.is_empty() {
                    next_total.fetch_add(ctx, 0, improved.len() as u64);
                }
                *frontiers[b].lock() = improved;
                let dt = ctx.instructions() - t0;
                claim_cycles.fetch_add(ctx, b, dt);
            });
            ctx.barrier();

            // Same read-then-barrier-then-reset dance as sharded_bfs:
            // resetting before every thread has read races the exit test.
            let total = next_total.get(ctx, 0);
            ctx.barrier();
            if total == 0 {
                break;
            }
            if ctx.thread_id() == 0 {
                next_total.set(ctx, 0, 0);
            }
            ctx.barrier();
        }
    });

    ScaleOutcome {
        output: (0..n).map(|v| dist.get_plain(v)).collect(),
        shards: (0..s_count)
            .map(|s| ShardStats {
                shard: s,
                edges: scan_edges.get_plain(s),
                cycles: scan_cycles.get_plain(s),
            })
            .collect(),
        claim_cycles: (0..b_count).map(|b| claim_cycles.get_plain(b)).sum(),
        report: outcome.report,
    }
}

/// Pull-model sharded PageRank, `iterations` fixed sweeps.
///
/// Each source block is one task that pulls its row's shards in
/// ascending shard order; under [`Placement::Block`] that visits every
/// vertex's neighbors in the same global ascending order as
/// [`pagerank_pull`], so ranks are bit-identical across shard counts
/// and partitions. Under [`Placement::Hashed`] the summation order
/// changes and ranks agree only to floating-point reassociation — the
/// hashed variant exists for the sim locality comparison, not for
/// golden-gated output.
///
/// `ShardStats.shard` is the *source block* id here (for 1-D, block id
/// and shard id coincide).
///
/// [`Placement::Block`]: crono_graph::shard::Placement::Block
/// [`Placement::Hashed`]: crono_graph::shard::Placement::Hashed
pub fn sharded_pagerank<M: Machine, G: AdjacencyView + Sync>(
    machine: &M,
    graph: &ShardedGraph<G>,
    iterations: usize,
) -> ScaleOutcome<Vec<f64>> {
    let p = *graph.partition();
    let n = p.num_vertices();
    let b_count = p.blocks();
    let threads = machine.num_threads();

    // Global degrees: each vertex's full adjacency lives in its source
    // block's row of shards.
    let mut degrees = vec![0u32; n];
    let members: Vec<Vec<VertexId>> = (0..b_count).map(|b| p.block_members(b)).collect();
    let row_shards: Vec<Vec<usize>> = (0..b_count)
        .map(|b| {
            if p.is_two_d() {
                (0..b_count).map(|j| b * b_count + j).collect()
            } else {
                vec![b]
            }
        })
        .collect();
    for b in 0..b_count {
        for &s in &row_shards[b] {
            let shard = graph.shard(s);
            for &v in &members[b] {
                degrees[v as usize] += shard.degree(v) as u32;
            }
        }
    }
    let degree_arr = ReadArray::new(&degrees);

    let ranks = SharedF64s::filled(n, 1.0 / n.max(1) as f64);
    let contrib = SharedF64s::filled(n, 0.0);
    let block_cycles = SharedU64s::new(b_count);
    let block_edges = SharedU64s::new(b_count);
    let contrib_pool = TaskPool::new(threads, pool_capacity(b_count, threads), STEAL_SEED ^ 4);
    let pull_pool = TaskPool::new(threads, pool_capacity(b_count, threads), STEAL_SEED ^ 5);

    let outcome = machine.run(|ctx| {
        for _ in 0..iterations {
            push_own_tasks(ctx, &contrib_pool, b_count);
            ctx.barrier();
            drain_pool(ctx, &contrib_pool, |ctx, b| {
                let t0 = ctx.instructions();
                for &v in &members[b] {
                    ctx.compute(costs::RANK_UPDATE);
                    let deg = degree_arr.get(ctx, v as usize);
                    let c = if deg > 0 {
                        ranks.get(ctx, v as usize) / deg as f64
                    } else {
                        0.0
                    };
                    contrib.set(ctx, v as usize, c);
                }
                let dt = ctx.instructions() - t0;
                block_cycles.fetch_add(ctx, b, dt);
            });
            ctx.barrier();

            push_own_tasks(ctx, &pull_pool, b_count);
            ctx.barrier();
            drain_pool(ctx, &pull_pool, |ctx, b| {
                let t0 = ctx.instructions();
                let mut edges = 0u64;
                for &v in &members[b] {
                    let mut sum = 0.0f64;
                    for &s in &row_shards[b] {
                        for (u, _) in graph.shard(s).neighbors_of(v) {
                            edges += 1;
                            ctx.compute(costs::RANK_UPDATE);
                            sum += contrib.get(ctx, u as usize);
                        }
                    }
                    ranks.set(ctx, v as usize, DAMPING + (1.0 - DAMPING) * sum);
                }
                let dt = ctx.instructions() - t0;
                block_cycles.fetch_add(ctx, b, dt);
                block_edges.fetch_add(ctx, b, edges);
            });
            ctx.barrier();
        }
    });

    ScaleOutcome {
        output: (0..n).map(|v| ranks.get_plain(v)).collect(),
        shards: (0..b_count)
            .map(|b| ShardStats {
                shard: b,
                edges: block_edges.get_plain(b),
                cycles: block_cycles.get_plain(b),
            })
            .collect(),
        claim_cycles: 0,
        report: outcome.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_graph::gen::{rmat, RmatParams};
    use crono_graph::shard::Partition;
    use crono_graph::CsrGraph;
    use crono_runtime::NativeMachine;

    fn graph() -> CsrGraph {
        rmat(7, 256, 8, RmatParams::default(), 42)
    }

    #[test]
    fn reference_bfs_matches_existing_kernel() {
        let g = graph();
        let machine = NativeMachine::new(1);
        let existing = machine
            .run(|ctx| crate::bfs::run_seq(ctx, &crate::SharedGraph::new(&g), 0))
            .per_thread
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(bfs_levels(&g, 0), existing);
    }

    #[test]
    fn sharded_bfs_matches_reference() {
        let g = graph();
        let n = g.num_vertices();
        let reference = bfs_levels(&g, 0);
        let machine = NativeMachine::new(4);
        for blocks in [1, 2, 4, 7] {
            let sharded =
                ShardedGraph::<CsrGraph>::from_csr(&g, Partition::one_d(n, blocks)).unwrap();
            let out = sharded_bfs(&machine, &sharded, 0);
            assert_eq!(out.output, reference, "1-D blocks={blocks}");
            assert!(out.total_edges() > 0);
        }
        let sharded = ShardedGraph::<CsrGraph>::from_csr(&g, Partition::two_d(n, 3)).unwrap();
        assert_eq!(sharded_bfs(&machine, &sharded, 0).output, reference, "2-D");
    }

    #[test]
    fn sharded_sssp_matches_dijkstra() {
        let g = graph();
        let n = g.num_vertices();
        let reference = sssp_distances(&g, 0);
        let machine = NativeMachine::new(4);
        for blocks in [1, 4] {
            let sharded =
                ShardedGraph::<CsrGraph>::from_csr(&g, Partition::one_d(n, blocks)).unwrap();
            assert_eq!(sharded_sssp(&machine, &sharded, 0).output, reference);
        }
    }

    #[test]
    fn sharded_pagerank_is_bit_identical_to_pull_reference() {
        let g = graph();
        let n = g.num_vertices();
        let reference = pagerank_pull(&g, 5);
        let machine = NativeMachine::new(4);
        for partition in [
            Partition::one_d(n, 1),
            Partition::one_d(n, 4),
            Partition::two_d(n, 2),
        ] {
            let sharded = ShardedGraph::<CsrGraph>::from_csr(&g, partition).unwrap();
            let out = sharded_pagerank(&machine, &sharded, 5);
            // Bitwise equality, not tolerance: same f64 operation order.
            assert!(out
                .output
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn shard_stats_are_deterministic_across_runs() {
        let g = graph();
        let n = g.num_vertices();
        let sharded = ShardedGraph::<CsrGraph>::from_csr(&g, Partition::one_d(n, 4)).unwrap();
        let machine = NativeMachine::new(4);
        let a = sharded_bfs(&machine, &sharded, 0);
        let b = sharded_bfs(&machine, &sharded, 0);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.claim_cycles, b.claim_cycles);
    }
}
