//! `serve-hot` and `serve-churn`: a closed loop of in-process clients
//! against a native `ServeEngine`.
//!
//! The benchmark process is the load generator: each of [`CLIENTS`]
//! clients keeps one query in flight, and a batch is run once all of
//! them wait, so a slower engine receives less load. A query's latency
//! runs from its `submit` to the return of the `run_batch` that
//! answered it.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crono_algos::{pagerank, sssp};
use crono_graph::gen::catalog::DEFAULT_MAX_WEIGHT;
use crono_graph::gen::uniform_random;
use crono_graph::rng::{splitmix64, SmallRng};
use crono_graph::{CsrGraph, VertexId};
use crono_runtime::NativeMachine;
use crono_suite::engine::{Answer, EngineOptions, Query, QueryKind, ServeEngine};

use crate::metrics::jn;
use crate::{oracle, stats, steal, Bench, Measured};

/// Closed-loop clients.
const CLIENTS: usize = 32;
/// Vertices a hot query draws from.
const HOT_SET: usize = 8;
/// Latency tail reported: p90, so a run holds at least 100 batches.
const TAIL_PCT: f64 = 90.0;
/// Batches run before timing starts (snapshot build, cache fill).
const WARMUP_BATCHES: usize = 4;

/// One serving workload.
pub struct Spec {
    /// Percent of BFS queries.
    bfs_pct: u32,
    /// Percent of SSSP queries; the rest are PageRank.
    sssp_pct: u32,
    /// Whether a quarter of the queries go to an 8-vertex hot set.
    hot: bool,
    /// Install the other graph every this many batches.
    install_every: Option<u64>,
}

/// Reads with reuse: cache, dedup and multi-source BFS do the work.
pub const HOT: Spec = Spec {
    bfs_pct: 40,
    sssp_pct: 30,
    hot: true,
    install_every: None,
};

/// Writes beside reads: every epoch bump drops the cache and rebuilds
/// the PageRank snapshot, and uniform SSSP misses batch into
/// multi-source delta-stepping.
pub const CHURN: Spec = Spec {
    bfs_pct: 20,
    sssp_pct: 60,
    hot: false,
    install_every: Some(8),
};

/// The `small` synthetic graph (`Scale::small()` sizes) for seed `k`.
pub fn serve_graph(seed: u64, k: u64) -> CsrGraph {
    let scale = crono_suite::Scale::small();
    let mut s = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    uniform_random(
        scale.sparse_vertices,
        scale.sparse_edges,
        DEFAULT_MAX_WEIGHT,
        splitmix64(&mut s),
    )
}

type Key = (usize, QueryKind, VertexId);

/// Counters of the traced phase.
#[derive(Default)]
struct LayerCounts {
    submit_ns: Vec<f64>,
    batch_ms: Vec<f64>,
    install_us: Vec<f64>,
    answered: u64,
    cached: u64,
    misses: u64,
    batched: u64,
}

struct State<'s> {
    spec: &'s Spec,
    engine: ServeEngine<NativeMachine>,
    graphs: Vec<CsrGraph>,
    current: usize,
    rng: SmallRng,
    hot: Vec<VertexId>,
    next_query: u64,
    batches: u64,
    answers: HashMap<Key, Vec<Answer>>,
    counts: LayerCounts,
}

impl State<'_> {
    fn draw(&mut self) -> Query {
        let n = self.graphs[self.current].num_vertices() as u32;
        let pct = self.rng.random_range(0..100u32);
        let kind = if pct < self.spec.bfs_pct {
            QueryKind::Bfs
        } else if pct < self.spec.bfs_pct + self.spec.sssp_pct {
            QueryKind::Sssp
        } else {
            QueryKind::PageRank
        };
        let vertex = if self.spec.hot && self.rng.random_range(0..4u32) == 0 {
            self.hot[self.rng.random_range(0..HOT_SET as u32) as usize]
        } else {
            self.rng.random_range(0..n)
        };
        Query::new(kind, vertex)
    }

    /// One closed-loop round: every client submits, one batch answers
    /// them. Appends each query's latency in ms; returns how many were
    /// answered.
    fn round(&mut self, b: &mut Bench, latencies: &mut Vec<f64>) -> u64 {
        let traced = b.spans.on();
        let round = b.spans.begin("bench", "round", None);
        let mut submitted: VecDeque<Instant> = VecDeque::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let q = self.draw();
            let id = self.next_query;
            self.next_query += 1;
            let t = Instant::now();
            let admitted = b
                .spans
                .time("engine", "submit", Some(id), || self.engine.submit(q));
            if traced {
                self.counts.submit_ns.push(t.elapsed().as_nanos() as f64);
            }
            match admitted {
                Ok(()) => submitted.push_back(t),
                Err(e) => b.tally.check(false, || format!("query {id} refused: {e}")),
            }
        }
        let t = Instant::now();
        let batch = b
            .spans
            .time("engine", "run_batch", None, || self.engine.run_batch());
        let done = Instant::now();
        if traced {
            self.counts.batch_ms.push((done - t).as_secs_f64() * 1e3);
        }
        self.batches += 1;
        let mut answered = 0;
        for (q, outcome) in batch.outcomes {
            let sent = submitted
                .pop_front()
                .expect("one outcome per admitted query");
            latencies.push((done - sent).as_secs_f64() * 1e3);
            match outcome {
                Ok(r) => {
                    answered += 1;
                    if traced {
                        self.counts.answered += 1;
                        if r.cached {
                            self.counts.cached += 1;
                        } else {
                            self.counts.misses += 1;
                            self.counts.batched += u64::from(r.batched > 1);
                        }
                    }
                    self.answers
                        .entry((self.current, q.kind, q.vertex))
                        .or_default()
                        .push(r.answer);
                }
                Err(e) => b
                    .tally
                    .check(false, || format!("{} {} failed: {e}", q.kind, q.vertex)),
            }
        }
        assert!(submitted.is_empty(), "batch_max covers every client");
        if let Some(every) = self.spec.install_every {
            if self.batches.is_multiple_of(every) {
                self.current = (self.current + 1) % self.graphs.len();
                let next = self.graphs[self.current].clone();
                let t = Instant::now();
                b.spans.time("engine", "install_graph", None, || {
                    self.engine.install_graph(next)
                });
                if traced {
                    self.counts.install_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        b.spans.end(round);
        answered
    }
}

/// Checks every recorded answer against the sequential oracles.
fn check(b: &mut Bench, st: &State<'_>, pr_iters: u32) {
    let ranks: Vec<Vec<f64>> = st
        .graphs
        .iter()
        .map(|g| pagerank::reference(g, pr_iters))
        .collect();
    let keys: Vec<&Key> = st
        .answers
        .keys()
        .filter(|k| k.1 != QueryKind::PageRank)
        .collect();
    let chunk = keys.len().div_ceil(b.threads).max(1);
    let expected: HashMap<&Key, Answer> = std::thread::scope(|s| {
        let workers: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&k| {
                            let (g, kind, v) = *k;
                            let g = &st.graphs[g];
                            let a = match kind {
                                QueryKind::Bfs => oracle::bfs_answer(&oracle::bfs_levels(g, v)),
                                _ => {
                                    oracle::sssp_answer(&oracle::dijkstra(g, v, sssp::UNREACHABLE))
                                }
                            };
                            (k, a)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle worker"))
            .collect()
    });
    for (key, answers) in &st.answers {
        let (g, kind, v) = *key;
        for a in answers {
            let ok = match kind {
                QueryKind::PageRank => oracle::pagerank_answer_ok(a, &ranks[g], pr_iters, v),
                _ => expected.get(key) == Some(a),
            };
            b.tally
                .check(ok, || format!("graph {g} {kind} {v}: wrong answer {a:?}"));
        }
    }
}

/// A fresh engine over `graphs[0]` and a seeded query stream.
fn start<'s>(b: &Bench, spec: &'s Spec, graphs: Vec<CsrGraph>) -> State<'s> {
    let opts = EngineOptions {
        seed: b.seed,
        ..EngineOptions::default()
    };
    let mut rng = SmallRng::seed_from_u64(b.seed);
    let n = graphs[0].num_vertices() as u32;
    let hot = (0..HOT_SET).map(|_| rng.random_range(0..n)).collect();
    State {
        spec,
        engine: ServeEngine::new(NativeMachine::new(b.threads), graphs[0].clone(), opts),
        graphs,
        current: 0,
        rng,
        hot,
        next_query: 0,
        batches: 0,
        answers: HashMap::new(),
        counts: LayerCounts::default(),
    }
}

/// Writes the engine metrics of the traced rounds.
fn layer_metrics(b: &mut Bench, st: &State<'_>) {
    let c = &st.counts;
    let batch = stats::summarize(&c.batch_ms);
    b.set_layer("engine.submit_ns", stats::median(&c.submit_ns));
    b.set_layer("engine.run_batch_p50_ms", batch.p50);
    b.set_layer("engine.run_batch_tail_ms", batch.tail);
    b.set_layer(
        "engine.queries_per_batch",
        c.answered as f64 / c.batch_ms.len() as f64,
    );
    b.set_layer(
        "engine.cache_hit_ratio",
        c.cached as f64 / c.answered.max(1) as f64,
    );
    b.set_layer(
        "engine.batched_ratio",
        c.batched as f64 / c.misses.max(1) as f64,
    );
    b.set_layer("engine.rejected", st.engine.stats().rejected as f64);
    if !c.install_us.is_empty() {
        b.set_layer("engine.install_graph_us", stats::median(&c.install_us));
    }
}

/// Engine probe for runs whose workload does not serve (or never
/// installs a graph): 16 traced rounds over two 2 Ki-vertex graphs,
/// installing the other one every 4 batches.
pub fn probe(b: &mut Bench) {
    const PROBE: Spec = Spec {
        bfs_pct: 40,
        sssp_pct: 30,
        hot: true,
        install_every: Some(4),
    };
    let graphs = (0..2)
        .map(|k| uniform_random(2048, 16_384, DEFAULT_MAX_WEIGHT, b.seed ^ k))
        .collect();
    let mut st = start(b, &PROBE, graphs);
    let mut latencies = Vec::new();
    for _ in 0..16 {
        st.round(b, &mut latencies);
    }
    check(b, &st, EngineOptions::default().pagerank_iters);
    layer_metrics(b, &st);
}

/// Runs a serving workload.
pub fn run(b: &mut Bench, spec: &Spec) -> Measured {
    let num_graphs = if spec.install_every.is_some() { 2 } else { 1 };
    let seed = b.seed;
    // Set-up is everything before the first timed query: generating the
    // graphs, starting the engine, and the warm-up batches that build
    // the first snapshot and fill the cache.
    let mut gen_ms = Vec::new();
    let mut st = b.setup(|b| {
        let t = Instant::now();
        let graphs = (0..num_graphs).map(|k| serve_graph(seed, k)).collect();
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3 / num_graphs as f64);
        let mut st = start(b, spec, graphs);
        for _ in 0..WARMUP_BATCHES {
            st.round(b, &mut Vec::new());
        }
        st
    });
    b.set_layer("graph.gen_ms", stats::median(&gen_ms));
    let min_rounds = stats::min_samples(TAIL_PCT);
    let mut clean = (0, 0);
    let m = b.measure(&mut st, |b, st, seconds| {
        // Per round: its answered queries, wall seconds and queries'
        // latencies, with the share stolen while it ran.
        let mut rounds = Vec::new();
        let t = Instant::now();
        // Queries of one batch share its latency, so batches are the
        // samples the tail percentile needs beyond it.
        while !b.done(
            t,
            seconds,
            (steal::clean_count(&rounds), rounds.len()),
            TAIL_PCT,
        ) {
            let timer = steal::Timer::start();
            let mut latencies_ms = Vec::with_capacity(CLIENTS);
            let answered = st.round(b, &mut latencies_ms);
            let s = timer.stop();
            rounds.push(((answered as f64, s.wall_s, latencies_ms), s.stolen));
        }
        clean = (steal::clean_count(&rounds), rounds.len());
        // The clean rounds when there are enough for the tail, else the
        // least stolen.
        let kept = steal::kept(&rounds, min_rounds);
        let (answered, wall_s) = kept.iter().fold((0.0, 0.0), |(a, w), r| (a + r.0, w + r.1));
        let latencies_ms: Vec<f64> = kept.into_iter().flat_map(|r| r.2).collect();
        Measured {
            throughput: answered / wall_s,
            latency: stats::summarize_at(&latencies_ms, Some(TAIL_PCT)),
        }
    });
    check(b, &st, EngineOptions::default().pagerank_iters);

    let lat = m.latency;
    b.meta("serve_qps", jn(m.throughput));
    b.meta("serve_p50_ms", jn(lat.p50));
    b.meta("serve_p90_ms", jn(lat.tail));
    b.meta("clients", CLIENTS.to_string());
    b.meta("clean_rounds", clean.0.to_string());
    b.meta("rounds", clean.1.to_string());
    b.meta("batches", st.batches.to_string());
    let stats = st.engine.stats();
    b.meta("engine_served", stats.served.to_string());
    b.meta("engine_cache_hits", stats.cache_hits.to_string());
    if !st.counts.batch_ms.is_empty() {
        let batch = stats::summarize(&st.counts.batch_ms);
        let level = batch.tail_level.map_or("null".to_string(), jn);
        b.meta("engine_batch_tail_percentile", level);
        b.meta("engine_batch_samples", batch.count.to_string());
        layer_metrics(b, &st);
    }
    m
}
