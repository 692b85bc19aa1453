//! Wall-clock benchmark of the CRONO reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload (see `README.md` beside this file),
//! checks every output against an oracle, and prints one JSON line of
//! run metadata followed by the result line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod metrics;
mod oracle;
mod pin;
mod probes;
mod rmat;
mod serve;
mod sim;
mod spans;
mod stats;
mod steal;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use metrics::{jn, js, obj};
use oracle::Tally;
use spans::Spans;

const USAGE: &str =
    "usage: crono-perfbench --workload <serve-hot|serve-churn|sim-sweep|rmat-native> \
                     --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 4] = ["serve-hot", "serve-churn", "sim-sweep", "rmat-native"];

/// Each workload builds its inputs at least this many times and until
/// [`SETUP_MIN_S`] have passed; `setup_s` is the median. A set-up of
/// well under a millisecond (`sim-sweep`) repeats for a whole second, so
/// that a short burst of host noise does not move its median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// A measuring loop that still lacks clean samples (see `steal`) after
/// `--seconds` goes on, up to this many times `--seconds`.
const MAX_STRETCH: f64 = 1.5;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// One measured phase of a workload.
#[derive(Debug)]
pub struct Measured {
    /// Work per second (answered queries, simulated instructions or
    /// edges, as the workload defines it).
    pub throughput: f64,
    /// Latency in ms: median and tail, with the sample count.
    pub latency: stats::Summary,
}

/// Shared state of one benchmark process.
pub struct Bench {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Worker threads: the host's parallelism, capped at 2.
    pub threads: usize,
    /// Span recorder (on only in the traced phase and the probes).
    pub spans: Spans,
    /// Oracle outcomes.
    pub tally: Tally,
    /// Per-layer metrics measured so far.
    pub layer: BTreeMap<String, f64>,
    /// Run metadata, as rendered JSON values.
    pub meta: Vec<(String, String)>,
    traced: bool,
    /// Set-up seconds, each with the share stolen (see `steal`).
    setup_s: Vec<(f64, f64)>,
}

impl Bench {
    /// Builds the workload's inputs repeatedly (see [`SETUP_REPEATS`]),
    /// recording each set-up time, and keeps the last build.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Bench) -> T) -> T {
        let mut last = None;
        let t = Instant::now();
        while self.setup_s.len() < SETUP_REPEATS || t.elapsed().as_secs_f64() < SETUP_MIN_S {
            // Free the previous build first so peak RSS holds one copy.
            drop(last.take());
            let timer = steal::Timer::start();
            let built = build(self);
            let s = timer.stop();
            self.setup_s.push((s.wall_s, s.stolen));
            last = Some(built);
        }
        last.expect("at least one set-up")
    }

    /// Runs the measured loop. Untraced, it runs once for the whole
    /// time. Traced, it runs untraced for half the time and traced for
    /// the other half; the difference is the tracing overhead. Returns
    /// the untraced phase.
    pub fn measure<S>(
        &mut self,
        state: &mut S,
        mut run: impl FnMut(&mut Bench, &mut S, f64) -> Measured,
    ) -> Measured {
        if !self.traced {
            return run(self, state, self.seconds);
        }
        let half = self.seconds / 2.0;
        let plain = run(self, state, half);
        self.spans.set_on(true);
        let traced = run(self, state, half);
        self.set_layer(
            "trace.overhead_p50_ms",
            traced.latency.p50 - plain.latency.p50,
        );
        self.set_layer(
            "trace.overhead_throughput_per_s",
            traced.throughput - plain.throughput,
        );
        plain
    }

    /// Whether a measuring loop that started at `t` may stop: the time
    /// is up and, in an untraced run (the one that reports timings),
    /// the tail percentile has enough clean samples beyond it, or the
    /// loop has run [`MAX_STRETCH`] times as long and has enough
    /// samples.
    pub fn done(
        &self,
        t: Instant,
        seconds: f64,
        (clean, all): (usize, usize),
        tail_pct: f64,
    ) -> bool {
        let elapsed = t.elapsed().as_secs_f64();
        let min = stats::min_samples(tail_pct);
        elapsed >= seconds
            && (self.traced || clean >= min || (elapsed >= MAX_STRETCH * seconds && all >= min))
    }

    /// Set-up times kept for the median (see `steal::kept`): the clean
    /// ones, or the least stolen half. In seconds.
    pub fn setup_samples(&self) -> Vec<f64> {
        steal::kept(&self.setup_s, self.setup_s.len().div_ceil(2))
    }

    /// Records a per-layer metric. The first measurement wins: the
    /// workload's own loop runs before the probes that fill the gaps.
    pub fn set_layer(&mut self, name: &str, value: f64) {
        debug_assert!(metrics::unit(name).is_some(), "undeclared metric {name}");
        self.layer.entry(name.to_string()).or_insert(value);
    }

    /// Records a metadata field (a rendered JSON value).
    pub fn meta(&mut self, key: &str, value: String) {
        self.meta.push((key.to_string(), value));
    }

    /// Scratch directory inside the benchmark's own tree.
    pub fn out_dir() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
    }
}

/// The checked-out commit, read from `.git` when the tree has one.
fn commit() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crono-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut b = Bench {
        seed: args.seed,
        seconds: args.seconds,
        threads: nproc.min(2),
        spans: Spans::new(false),
        tally: Tally::default(),
        layer: BTreeMap::new(),
        meta: Vec::new(),
        traced: args.trace,
        setup_s: Vec::new(),
    };
    let started = Instant::now();
    let m = match args.workload.as_str() {
        "serve-hot" => serve::run(&mut b, &serve::HOT),
        "serve-churn" => serve::run(&mut b, &serve::CHURN),
        "sim-sweep" => sim::run(&mut b),
        "rmat-native" => rmat::run(&mut b),
        _ => unreachable!("workload names are checked by Args::parse"),
    };
    if args.trace {
        probes::fill(&mut b);
        let self_ns = b.spans.self_time_ns();
        for layer in ["engine", "runtime", "sim", "algos", "graph", "bench"] {
            let ns = self_ns.get(layer).copied().unwrap_or(0);
            b.set_layer(&format!("self.{layer}_ms"), ns as f64 / 1e6);
        }
    }

    let lat = m.latency;
    let mut e2e = BTreeMap::new();
    e2e.insert("throughput_per_s".to_string(), m.throughput);
    e2e.insert("latency_p50_ms".to_string(), lat.p50);
    e2e.insert("latency_tail_ms".to_string(), lat.tail);
    e2e.insert("setup_s".to_string(), stats::median(&b.setup_samples()));
    let rss = crono_graph::stream::peak_rss_bytes().unwrap_or(0);
    e2e.insert("peak_rss_mb".to_string(), rss as f64 / (1024.0 * 1024.0));

    let tally = std::mem::take(&mut b.tally);
    let mut meta = vec![
        ("workload".to_string(), js(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), jn(args.seconds)),
        ("trace".to_string(), args.trace.to_string()),
        ("commit".to_string(), js(&commit())),
        ("nproc".to_string(), nproc.to_string()),
        ("threads".to_string(), b.threads.to_string()),
        ("latency_samples".to_string(), lat.count.to_string()),
        (
            "latency_tail_percentile".to_string(),
            lat.tail_level.map_or("null".to_string(), jn),
        ),
        ("setup_samples".to_string(), b.setup_s.len().to_string()),
        (
            "setup_clean_samples".to_string(),
            steal::clean_count(&b.setup_s).to_string(),
        ),
        (
            "failed_frac".to_string(),
            jn(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        (
            "failures".to_string(),
            format!(
                "[{}]",
                tally
                    .notes
                    .iter()
                    .map(|n| js(n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("wall_s".to_string(), jn(started.elapsed().as_secs_f64())),
    ];
    meta.append(&mut b.meta);
    let e2e_json = obj(e2e.iter().map(|(k, v)| (k.clone(), jn(*v))));
    let layer_json = obj(b.layer.iter().map(|(k, v)| (k.clone(), jn(*v))));
    let meta_json = obj(meta);

    let reported = if args.trace { &b.layer } else { &e2e };
    let wanted = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for (name, _) in wanted {
        let v = reported.get(*name).copied().unwrap_or(f64::NAN);
        assert!(v.is_finite(), "metric {name} was not measured (got {v})");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let line = metrics::result_line(correct, tally.attempted.max(1), tally.failed, reported);

    let out = Bench::out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = obj([
        ("meta", meta_json.clone()),
        ("end_to_end", e2e_json),
        ("per_layer", layer_json),
        ("result", line.clone()),
    ]);
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), record + "\n"))
        .and_then(|()| match args.trace {
            true => std::fs::write(
                out.join(format!("{stem}.spans.json")),
                b.spans.to_chrome_json(),
            ),
            false => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "crono-perfbench: could not write results under {}: {e}",
            out.display()
        );
    }
    println!("{meta_json}");
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload sim-sweep --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim-sweep", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve-hot --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve-hot --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload serve-hot --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload serve-hot --seed 1 --trace 0").is_err());
    }
}
