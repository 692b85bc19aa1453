//! `sim-sweep`: the five sparse paper kernels on the deterministic
//! Table II simulator (`SimConfig::default()`) at 16 and 64 simulated
//! threads, on `test`-scale inputs.
//!
//! Symbolic addresses come from a process-global bump allocator, so the
//! simulated counters of a run depend on everything the process
//! allocated before it. The digest therefore covers one fixed sequence
//! run first in a fresh process: the canonical pass over the `test`
//! scale's own seeded inputs, which is also the warm-up.

use std::time::Instant;

use crono_algos::{bfs, connected, pagerank, sssp, triangle, Benchmark};
use crono_runtime::RunReport;
use crono_sim::{SimConfig, SimMachine};
use crono_suite::runner::run_parallel;
use crono_suite::{Scale, Workload};

use crate::metrics::{jn, js};
use crate::oracle::{self, digest, sim_counters, Tally};
use crate::{stats, steal, Bench, Measured};

/// The sparse paper kernels the sweep runs, in run order.
const KERNELS: [Benchmark; 5] = [
    Benchmark::Bfs,
    Benchmark::SsspDijk,
    Benchmark::PageRank,
    Benchmark::ConnComp,
    Benchmark::TriCnt,
];

/// Latency tail reported. The latency is per configuration (kernel and
/// thread count), each of which runs a few times per measured run, so
/// the rule leaves the median.
const TAIL_PCT: f64 = 50.0;

/// Simulated thread counts of the sweep, in run order, with the runs
/// of each kernel per pass: a 64-thread run costs about three 16-thread
/// ones, so this gives the two thread counts similar host time.
const THREADS: [(usize, usize); 2] = [(16, 3), (64, 1)];

/// Digest of the canonical pass's simulated counters, recorded in a
/// fresh process. It changes only if the simulator's timing model or a
/// kernel's memory behaviour changes.
const CANONICAL_DIGEST: u64 = 0xae9f_9177_c6fd_65b1;

/// Sequential reference outputs for one input.
pub struct References {
    bfs: Vec<u32>,
    sssp: Vec<u32>,
    ranks: Vec<f64>,
    labels: Vec<u32>,
    triangles: u64,
}

impl References {
    /// Computes every reference for `w`.
    pub fn new(w: &Workload) -> References {
        References {
            bfs: oracle::bfs_levels(&w.graph, w.source),
            sssp: oracle::dijkstra(&w.graph, w.source, sssp::UNREACHABLE),
            ranks: pagerank::reference(&w.graph, w.pagerank_iters),
            labels: oracle::component_labels(&w.graph),
            triangles: triangle::reference(&w.graph),
        }
    }
}

/// A deterministic Table II machine running `threads` threads.
pub fn machine(threads: usize) -> SimMachine {
    SimMachine::new(SimConfig::default(), threads).deterministic()
}

/// Runs one kernel on `m` and checks its output. This is the kernel
/// `runner::run_parallel` dispatches to, called directly so the output
/// is kept.
pub fn run_checked(
    kernel: Benchmark,
    m: &SimMachine,
    w: &Workload,
    r: &References,
) -> (RunReport, bool) {
    match kernel {
        Benchmark::Bfs => {
            let o = bfs::parallel(m, &w.graph, w.source);
            (o.report, o.output.level == r.bfs)
        }
        Benchmark::SsspDijk => {
            let o = sssp::parallel(m, &w.graph, w.source);
            (o.report, o.output.dist == r.sssp)
        }
        Benchmark::PageRank => {
            let o = pagerank::parallel(m, &w.graph, w.pagerank_iters);
            (
                o.report,
                oracle::ranks_close(&o.output.ranks, &r.ranks, 1e-9),
            )
        }
        Benchmark::ConnComp => {
            let o = connected::parallel(m, &w.graph);
            (o.report, o.output.labels == r.labels)
        }
        Benchmark::TriCnt => {
            let o = triangle::parallel(m, &w.graph);
            (o.report, o.output.total == r.triangles)
        }
        other => unreachable!("{} is not in the sweep", other.label()),
    }
}

/// Records summed [`sim_counters`] as the `sim.*` count metrics.
pub fn record_counts(b: &mut Bench, totals: &[u64; 8]) {
    let names = [
        "instructions",
        "cycles",
        "l1d_accesses",
        "l1d_misses",
        "l2_misses",
        "router_flit_hops",
        "directory_accesses",
        "dram_accesses",
    ];
    for (name, v) in names.into_iter().zip(totals) {
        b.set_layer(&format!("sim.{name}"), *v as f64);
    }
}

/// Counts the canonical pass as one operation, failed unless its
/// digest is the recorded one.
fn check_digest(tally: &mut Tally, got: u64, recorded: u64) {
    tally.check(got == recorded, || {
        format!("simulated counters digest {got:#018x}, recorded {recorded:#018x}")
    });
}

/// Host time per simulated L1-D access, per thread count.
#[derive(Default)]
struct HostCost {
    wall_ns: [f64; 3],
    l1d: [u64; 3],
}

impl HostCost {
    fn add(&mut self, threads: usize, wall_ns: f64, r: &RunReport) {
        let i = match threads {
            1 => 0,
            16 => 1,
            _ => 2,
        };
        self.wall_ns[i] += wall_ns;
        self.l1d[i] += r.misses.l1d_accesses;
    }
}

/// Runs the sweep.
pub fn run(b: &mut Bench) -> Measured {
    // One CPU for the whole sweep (see `pin`); the mask is restored when
    // `pin` drops, before any probe of the native runtime.
    let pin = crate::pin::one_cpu();
    b.meta(
        "sim_cpu",
        pin.cpu().map_or("null".to_string(), |c| c.to_string()),
    );
    // First in the process: nothing may allocate symbolic addresses
    // before the canonical pass.
    let canonical = Workload::synthetic(&Scale::test());
    let mut words = Vec::new();
    let mut totals = [0u64; 8];
    for (threads, _) in THREADS {
        for kernel in KERNELS {
            let report = run_parallel(kernel, &machine(threads), &canonical);
            let c = sim_counters(&report);
            for (t, x) in totals.iter_mut().zip(c) {
                *t += x;
            }
            words.extend(c);
        }
    }
    let d = digest(words);
    check_digest(&mut b.tally, d, CANONICAL_DIGEST);
    b.meta("sim_digest", js(&format!("{d:#018x}")));
    record_counts(b, &totals);

    let scale = Scale {
        seed: b.seed,
        ..Scale::test()
    };
    let w = b.setup(|_| Workload::synthetic(&scale));
    b.set_layer("graph.gen_ms", stats::median(&b.setup_samples()) * 1e3);
    let refs = References::new(&w);

    let mut cost = HostCost::default();
    let configs: Vec<(usize, Benchmark)> = THREADS
        .iter()
        .flat_map(|&(t, _)| KERNELS.map(|k| (t, k)))
        .collect();
    // One pass: each configuration's runs, in order.
    let pass: Vec<usize> = THREADS
        .iter()
        .flat_map(|&(_, reps)| std::iter::repeat_n(reps, KERNELS.len()))
        .enumerate()
        .flat_map(|(i, reps)| std::iter::repeat_n(i, reps))
        .collect();
    let mut counts = (0, 0);
    let m = b.measure(&mut cost, |b, cost, seconds| {
        // Per configuration, per run: simulated instructions per host
        // second and wall ms, with the share stolen while it ran.
        let mut runs: Vec<Vec<((f64, f64), f64)>> = vec![Vec::new(); configs.len()];
        let mut clean = 0;
        let t = Instant::now();
        // At least one whole pass, so every configuration has a run.
        let mut next = 0;
        while next < pass.len() || !b.done(t, seconds, (clean, next), TAIL_PCT) {
            let i = pass[next % pass.len()];
            next += 1;
            let (threads, kernel) = configs[i];
            let sim = machine(threads);
            let timer = steal::Timer::start();
            let (report, ok) = b.spans.time("sim", kernel.label(), None, || {
                run_checked(kernel, &sim, &w, &refs)
            });
            let s = timer.stop();
            b.tally.check(ok, || {
                format!("{} at {threads} threads: wrong output", kernel.label())
            });
            let instructions: u64 = report.threads.iter().map(|t| t.instructions).sum();
            let sample = (instructions as f64 / s.wall_s, s.wall_s * 1e3);
            runs[i].push((sample, s.stolen));
            clean += usize::from(s.clean());
            if b.spans.on() {
                cost.add(threads, s.wall_s * 1e9, &report);
            }
        }
        // Each configuration's clean runs, or its least stolen half.
        let kept: Vec<Vec<(f64, f64)>> = runs
            .iter()
            .map(|r| steal::kept(r, r.len().div_ceil(2)))
            .collect();
        // Median per configuration; geomean, so each configuration
        // weighs the same however long it runs. A percentile over the
        // pooled runs would jump between kernels whose times differ
        // tenfold.
        let median = |f: fn(&(f64, f64)) -> f64| {
            stats::geomean(
                kept.iter()
                    .map(|r| stats::median(&r.iter().map(f).collect::<Vec<_>>())),
            )
        };
        let p50 = median(|r| r.1);
        counts = (clean, runs.iter().map(Vec::len).sum());
        Measured {
            throughput: median(|r| r.0),
            latency: stats::Summary {
                count: kept.iter().map(Vec::len).sum(),
                p50,
                tail_level: Some(TAIL_PCT),
                tail: p50,
            },
        }
    });
    if b.spans.on() {
        for kernel in KERNELS {
            let sim = machine(1);
            let started = Instant::now();
            let (report, ok) = b.spans.time("sim", kernel.label(), None, || {
                run_checked(kernel, &sim, &w, &refs)
            });
            cost.add(1, started.elapsed().as_nanos() as f64, &report);
            b.tally.check(ok, || {
                format!("{} at 1 thread: wrong output", kernel.label())
            });
        }
        for (i, t) in ["t1", "t16", "t64"].into_iter().enumerate() {
            let per = cost.wall_ns[i] / cost.l1d[i] as f64;
            b.set_layer(&format!("sim.host_ns_per_l1d_access.{t}"), per);
        }
    }
    drop(pin);
    b.meta("clean_runs", counts.0.to_string());
    b.meta("runs", counts.1.to_string());
    b.meta("sim_kips", jn(m.throughput / 1e3));
    b.meta("sim_thread_counts", "[16, 64]".to_string());
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_mismatch_counts_as_a_failure() {
        let mut tally = Tally::default();
        check_digest(&mut tally, CANONICAL_DIGEST, CANONICAL_DIGEST);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        check_digest(&mut tally, CANONICAL_DIGEST ^ 1, CANONICAL_DIGEST);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.notes[0].starts_with("simulated counters digest"));
    }

    #[test]
    fn sweep_outputs_match_the_references() {
        let w = Workload::synthetic(&Scale::test());
        let refs = References::new(&w);
        for kernel in KERNELS {
            let (report, ok) = run_checked(kernel, &machine(4), &w, &refs);
            assert!(ok, "{}", kernel.label());
            assert!(sim_counters(&report)[0] > 0);
        }
    }
}
