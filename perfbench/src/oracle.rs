//! Output oracles. Every checked output is one attempted operation; a
//! wrong output is a failed one, never a silent abort.

use crono_algos::{bfs, sssp};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::RunReport;
use crono_suite::engine::{checksum, Answer};

/// Attempted and failed operations, with the first few failures named.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation; `what` names it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Order-dependent 64-bit digest (FNV-1a over little-endian words).
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The simulated counters a run's digest covers, in digest order.
pub fn sim_counters(r: &RunReport) -> [u64; 8] {
    [
        r.threads.iter().map(|t| t.instructions).sum(),
        r.completion,
        r.misses.l1d_accesses,
        r.misses.l1d_misses(),
        r.misses.l2_misses,
        r.energy.router_flit_hops,
        r.energy.directory_accesses,
        r.energy.dram_accesses,
    ]
}

/// Hop levels from `source` by sequential BFS (`bfs::UNVISITED` for
/// unreached vertices). Written here, over the raw CSR arrays, so the
/// oracle shares no code with the kernels it checks.
pub fn bfs_levels(g: &CsrGraph, source: VertexId) -> Vec<u32> {
    let (off, nbr) = (g.offset_slice(), g.neighbor_slice());
    let mut level = vec![bfs::UNVISITED; g.num_vertices()];
    level[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let next = level[v as usize] + 1;
        for &u in &nbr[off[v as usize] as usize..off[v as usize + 1] as usize] {
            if level[u as usize] == bfs::UNVISITED {
                level[u as usize] = next;
                queue.push_back(u);
            }
        }
    }
    level
}

/// Distances from `source` by sequential Dijkstra over a bucket queue
/// (Dial's algorithm: weights are small integers, so bucket `d mod
/// (max weight + 1)` holds exactly the vertices at distance `d` while
/// `d` is current), with `unreached` for vertices no path reaches.
pub fn dijkstra(g: &CsrGraph, source: VertexId, unreached: u32) -> Vec<u32> {
    let (off, nbr, wgt) = (g.offset_slice(), g.neighbor_slice(), g.weight_slice());
    let span = wgt.iter().copied().max().unwrap_or(0) as usize + 1;
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); span];
    let mut dist = vec![u64::MAX; g.num_vertices()];
    dist[source as usize] = 0;
    buckets[0].push(source);
    let (mut pending, mut cur) = (1usize, 0u64);
    while pending > 0 {
        let slot = (cur % span as u64) as usize;
        while let Some(v) = buckets[slot].pop() {
            pending -= 1;
            if dist[v as usize] != cur {
                continue; // a stale entry: `v` settled closer already
            }
            for e in off[v as usize] as usize..off[v as usize + 1] as usize {
                let (u, nd) = (nbr[e], cur + u64::from(wgt[e]));
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    buckets[(nd % span as u64) as usize].push(u);
                    pending += 1;
                }
            }
        }
        cur += 1;
    }
    dist.into_iter()
        .map(|d| {
            if d == u64::MAX {
                unreached
            } else {
                u32::try_from(d).expect("distance fits u32")
            }
        })
        .collect()
}

/// Smallest vertex id of each vertex's component (sequential BFS
/// labelling in ascending id order).
pub fn component_labels(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut stack = Vec::new();
    for root in 0..n as u32 {
        if label[root as usize] != u32::MAX {
            continue;
        }
        label[root as usize] = root;
        stack.push(root);
        while let Some(v) = stack.pop() {
            for (u, _) in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = root;
                    stack.push(u);
                }
            }
        }
    }
    label
}

/// Whether two rank vectors agree to within `tol` per vertex.
pub fn ranks_close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

/// Whether two rank vectors are bitwise equal.
pub fn ranks_bitwise(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The answer the engine must give for a BFS query, from the reference
/// levels.
pub fn bfs_answer(levels: &[u32]) -> Answer {
    let reached = levels.iter().filter(|&&l| l != bfs::UNVISITED);
    Answer::Bfs {
        reachable: reached.clone().count(),
        levels: reached.max().copied().unwrap_or(0) + 1,
        checksum: checksum(levels),
    }
}

/// The answer the engine must give for an SSSP query, from the
/// reference distances.
pub fn sssp_answer(dist: &[u32]) -> Answer {
    let reached = dist.iter().filter(|&&d| d != sssp::UNREACHABLE);
    Answer::Sssp {
        reached: reached.clone().count(),
        max_dist: reached.max().copied().unwrap_or(0),
        checksum: checksum(dist),
    }
}

/// Whether a PageRank answer is bitwise the reference rank of `v`.
pub fn pagerank_answer_ok(answer: &Answer, reference: &[f64], iters: u32, v: VertexId) -> bool {
    matches!(answer, Answer::PageRank { rank, iterations }
        if *iterations == iters && rank.to_bits() == reference[v as usize].to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crono_algos::pagerank;
    use crono_graph::gen::uniform_random;
    use crono_runtime::NativeMachine;
    use crono_suite::engine::{EngineOptions, Query, QueryKind, ServeEngine};

    fn graph() -> CsrGraph {
        uniform_random(300, 1200, 16, 5)
    }

    #[test]
    fn engine_answers_match_the_oracle() {
        let g = graph();
        let mut engine =
            ServeEngine::new(NativeMachine::new(2), g.clone(), EngineOptions::default());
        for v in [0, 17, 299] {
            engine.submit(Query::new(QueryKind::Bfs, v)).unwrap();
            engine.submit(Query::new(QueryKind::Sssp, v)).unwrap();
            engine.submit(Query::new(QueryKind::PageRank, v)).unwrap();
        }
        let ranks = pagerank::reference(&g, EngineOptions::default().pagerank_iters);
        for (q, out) in engine.run_batch().outcomes {
            let a = out.unwrap().answer;
            match q.kind {
                QueryKind::Bfs => assert_eq!(a, bfs_answer(&bfs_levels(&g, q.vertex))),
                QueryKind::Sssp => {
                    assert_eq!(a, sssp_answer(&dijkstra(&g, q.vertex, sssp::UNREACHABLE)))
                }
                _ => assert!(pagerank_answer_ok(&a, &ranks, 20, q.vertex)),
            }
        }
    }

    #[test]
    fn oracle_rejects_a_corrupted_answer() {
        let g = graph();
        let good = sssp_answer(&dijkstra(&g, 3, sssp::UNREACHABLE));
        let Answer::Sssp {
            reached,
            max_dist,
            checksum,
        } = good.clone()
        else {
            unreachable!()
        };
        let bad = Answer::Sssp {
            reached,
            max_dist,
            checksum: checksum ^ 1,
        };
        let mut tally = Tally::default();
        tally.check(
            good == sssp_answer(&dijkstra(&g, 3, sssp::UNREACHABLE)),
            || "good".into(),
        );
        tally.check(bad == good, || "corrupted sssp answer".into());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.notes, vec!["corrupted sssp answer".to_string()]);

        let ranks = pagerank::reference(&g, 20);
        let off = Answer::PageRank {
            rank: f64::from_bits(ranks[4].to_bits() ^ 1),
            iterations: 20,
        };
        assert!(!pagerank_answer_ok(&off, &ranks, 20, 4));
    }

    #[test]
    fn traversal_oracles_agree_with_the_scale_track_references() {
        use crono_algos::scale;
        let g = graph();
        for s in [0, 150] {
            assert_eq!(bfs_levels(&g, s), scale::bfs_levels(&g, s));
            assert_eq!(
                dijkstra(&g, s, scale::UNREACHED),
                scale::sssp_distances(&g, s)
            );
        }
    }

    #[test]
    fn component_labels_are_min_ids() {
        let g = CsrGraph::from_edges(
            6,
            vec![
                (1, 4, 1),
                (4, 1, 1),
                (4, 5, 1),
                (5, 4, 1),
                (2, 3, 1),
                (3, 2, 1),
            ],
        );
        assert_eq!(component_labels(&g), vec![0, 1, 2, 2, 1, 1]);
    }

    #[test]
    fn digest_is_order_dependent() {
        assert_ne!(digest([1, 2]), digest([2, 1]));
        assert_eq!(digest([1, 2]), digest(vec![1, 2]));
    }
}
