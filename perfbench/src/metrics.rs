//! Metric names and units, and the JSON the benchmark prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a self-test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run. What one
/// operation is depends on the workload: a query (`serve-*`), a
/// simulated kernel run (`sim-sweep`), a graph build or native kernel
/// run (`rmat-native`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.submit_ns", "ns"),
    ("engine.run_batch_p50_ms", "ms"),
    ("engine.run_batch_tail_ms", "ms"),
    ("engine.queries_per_batch", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.batched_ratio", "ratio"),
    ("engine.rejected", "count"),
    ("engine.install_graph_us", "us"),
    ("runtime.region_us", "us"),
    ("runtime.barrier_ns", "ns"),
    ("runtime.deque_pop_ns", "ns"),
    ("runtime.deque_steal_ns", "ns"),
    ("runtime.steal_half_ns", "ns"),
    ("runtime.sliding_queue_push_chunk_ns", "ns"),
    ("sim.host_ns_per_l1d_access.t1", "ns"),
    ("sim.host_ns_per_l1d_access.t16", "ns"),
    ("sim.host_ns_per_l1d_access.t64", "ns"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.l1d_accesses", "count"),
    ("sim.l1d_misses", "count"),
    ("sim.l2_misses", "count"),
    ("sim.router_flit_hops", "count"),
    ("sim.directory_accesses", "count"),
    ("sim.dram_accesses", "count"),
    ("algos.bfs_ms", "ms"),
    ("algos.sssp_ms", "ms"),
    ("algos.pagerank_ms", "ms"),
    ("algos.cc_ms", "ms"),
    ("algos.tricnt_ms", "ms"),
    ("algos.sharded_bfs_ms", "ms"),
    ("algos.sharded_sssp_ms", "ms"),
    ("algos.sharded_pagerank_ms", "ms"),
    ("algos.pagerank_pull_ms", "ms"),
    ("graph.gen_ms", "ms"),
    ("graph.stream_edges_per_s", "1/s"),
    ("graph.pack_ns_per_edge", "ns"),
    ("graph.spill_bytes", "B"),
    ("graph.bytes_per_edge", "B"),
    ("self.engine_ms", "ms"),
    ("self.runtime_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.algos_ms", "ms"),
    ("self.graph_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_throughput_per_s", "1/s"),
];

/// The unit of a known metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A JSON string literal.
pub fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `f64` holds (`null` if not finite).
pub fn jn(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON object from already-rendered values, in the given order.
pub fn obj<K: AsRef<str>, V: AsRef<str>>(fields: impl IntoIterator<Item = (K, V)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {}", js(k.as_ref()), v.as_ref()))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of the benchmark's output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, f64>,
) -> String {
    let m = obj(metrics.iter().map(|(name, v)| {
        let unit = unit(name).expect("every reported metric has a unit");
        (name.clone(), obj([("value", jn(*v)), ("unit", js(unit))]))
    }));
    obj([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", m),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, which
    /// lists one metric object per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[at..at + line[at..].find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn ours(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn units_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn names_and_units_are_well_formed() {
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && ok(name, ""), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(unit.len() <= 16 && ok(unit, "/%"), "{unit}");
        }
        assert_eq!(unit("latency_p50_ms"), Some("ms"));
        assert_eq!(unit("nope"), None);
    }

    #[test]
    fn result_line_labels_every_value_with_its_unit() {
        let mut m = BTreeMap::new();
        m.insert("setup_s".to_string(), 0.8127);
        m.insert("latency_p50_ms".to_string(), 1.25);
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "every reported metric has a unit")]
    fn unknown_metric_is_a_bug() {
        let mut m = BTreeMap::new();
        m.insert("mystery".to_string(), 1.0);
        result_line(true, 1, 0, &m);
    }
}
