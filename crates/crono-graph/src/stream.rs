//! Out-of-core streaming graph construction.
//!
//! The in-memory generators in [`crate::gen`] materialize the full edge
//! list before packing CSR — at Graph500 scale 24 (~268 M directed
//! edges) that is ~3.2 GB of triples before the graph even exists. This
//! module builds the same shard-decomposed representations in bounded
//! resident memory:
//!
//! 1. **Seeded, independently-reproducible edge chunks** — each edge of
//!    [`RmatStream`] / [`UniformStream`] is a pure function of
//!    `(seed, edge_index)`: the R-MAT quad-tree descent draws from a
//!    per-edge RNG keyed by a splitmix64 hash of the pair, so any chunk
//!    of the stream regenerates independently (and a build can be
//!    sliced across processes or resumed mid-stream). The generators
//!    use this themselves: they draw blocks of indices on one scoped
//!    thread per host CPU and yield the edges in index order, so the
//!    stream is the same at any thread count.
//! 2. **Partition + external sort** — [`build_sharded`] routes each
//!    edge to its shard ([`Partition::shard_of_edge`]), buffering at
//!    most `sort_buffer_edges` triples in RAM; full buffers are sorted
//!    in place, as one part per host CPU, and the parts are merged
//!    into a run of 12-byte little-endian `(src, dst, weight)` records
//!    as they are written. The merge needs no second buffer, so the
//!    RAM bound holds at any thread count.
//! 3. **Shard-by-shard packing** — each shard's sorted runs are k-way
//!    merged straight into an [`AdjacencyPacker`], so peak memory is
//!    the sort buffer plus the packed output (for [`CompressedCsr`],
//!    ~3 bytes/edge), never the flat edge list.
//!
//! The stream generators are deliberately *not* the same distribution
//! as their in-memory namesakes: `gen::rmat` draws from one sequential
//! RNG and deduplicates globally, which cannot be chunked. The stream
//! variants skip self-loops but keep parallel edges (the Graph500
//! reference generator's convention), so fingerprints differ from
//! `gen::rmat` by design while each stream remains bit-reproducible
//! from `(seed, index)` alone.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

use crate::rng::{splitmix64, SmallRng};
use crate::shard::{Partition, ShardedGraph};
use crate::view::{AdjacencyPacker, Packable};
use crate::{gen::RmatParams, GraphError, VertexId, Weight};

/// Bytes per spilled edge record: three little-endian `u32`s.
const RECORD_BYTES: usize = 12;

/// Read-buffer bytes per sorted run during the k-way merge (a whole
/// number of records, so refills never split one).
const MERGE_BUF_BYTES: usize = (64 * 1024 / RECORD_BYTES) * RECORD_BYTES;

/// Golden-ratio increment decorrelating edge indices before hashing.
const INDEX_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// R-MAT draw indices one worker generates per thread spawn: about
/// 13 ms of work at scale 18 and 8 ms at scale 10 on a 2-vCPU Xeon VM,
/// where a scoped spawn and join take about 60 µs, so the spawn costs
/// under 1%. A block holds at most 384 KiB of edges.
const RMAT_BLOCK_DRAWS: u64 = 1 << 15;

/// The same for [`UniformStream`], whose draws cost about a twentieth
/// of an R-MAT draw: about 5 ms of work, at most 3 MiB of edges.
const UNIFORM_BLOCK_DRAWS: u64 = 1 << 18;

/// Smallest sort-buffer part worth its own thread: sorting 64 Ki
/// triples takes milliseconds, a spawn tens of µs.
const MIN_SORT_PART: usize = 1 << 16;

type Edge = (VertexId, VertexId, Weight);

/// Threads the generators and the run sort split their work over: the
/// host's available parallelism, read once.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The realized edges of draws `range`, in index order.
fn draw_block(edge: &(impl Fn(u64) -> Option<Edge> + Sync), range: Range<u64>) -> Vec<Edge> {
    let mut out = Vec::with_capacity((range.end - range.start) as usize);
    out.extend(range.filter_map(edge));
    out
}

/// The realized edges of draws `start..end` in index order, generated
/// in batches of one `block`-draw block per worker on scoped threads.
/// The calling thread draws the first block of each batch, and any
/// block whose spawn fails. Every edge is a pure function of its
/// index, so the output is the same at any thread count.
fn block_parallel<F>(start: u64, end: u64, block: u64, edge: F) -> impl Iterator<Item = Edge>
where
    F: Fn(u64) -> Option<Edge> + Sync,
{
    let batch = block * workers() as u64;
    let mut next = start;
    std::iter::from_fn(move || {
        if next >= end {
            return None;
        }
        let stop = end.min(next.saturating_add(batch));
        let blocks: Vec<Range<u64>> = (next..stop)
            .step_by(block as usize)
            .map(|b| b..stop.min(b.saturating_add(block)))
            .collect();
        next = stop;
        let edge = &edge;
        Some(thread::scope(|s| {
            let spawned: Vec<_> = blocks[1..]
                .iter()
                .map(|r| {
                    let r = r.clone();
                    thread::Builder::new().spawn_scoped(s, move || draw_block(edge, r))
                })
                .collect();
            let mut out = vec![draw_block(edge, blocks[0].clone())];
            for (handle, r) in spawned.into_iter().zip(&blocks[1..]) {
                out.push(match handle {
                    Ok(h) => h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
                    Err(_) => draw_block(edge, r.clone()),
                });
            }
            out
        }))
    })
    .flatten()
    .flatten()
}

/// Per-edge RNG keyed by `(seed, index)`: the whole point of the stream
/// generators — edge `i` draws from its own splitmix64-derived RNG, so
/// chunks regenerate independently in any order.
fn edge_rng(seed: u64, index: u64) -> SmallRng {
    let mut state = seed ^ index.wrapping_mul(INDEX_STRIDE);
    SmallRng::seed_from_u64(splitmix64(&mut state))
}

/// Streaming R-MAT generator: `2^scale` vertices, `num_edges` draws,
/// weights in `1..=max_weight`.
///
/// Self-loop draws yield `None` (skipped, not redrawn); parallel edges
/// are kept. See the module docs for why this is a different generator
/// from [`crate::gen::rmat`].
#[derive(Debug, Clone, Copy)]
pub struct RmatStream {
    scale: u32,
    num_edges: u64,
    max_weight: Weight,
    params: RmatParams,
    seed: u64,
}

impl RmatStream {
    /// Creates a stream; `scale` must be in `1..=31` and the parameters
    /// valid probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] for a bad scale, weight
    /// bound, or parameter set.
    pub fn new(
        scale: u32,
        num_edges: u64,
        max_weight: Weight,
        params: RmatParams,
        seed: u64,
    ) -> Result<RmatStream, GraphError> {
        if scale == 0 || scale > 31 {
            return Err(GraphError::InvalidSize(format!(
                "r-mat scale must be in 1..=31, got {scale}"
            )));
        }
        if max_weight == 0 {
            return Err(GraphError::InvalidSize(
                "max_weight must be positive".into(),
            ));
        }
        if !(params.a > 0.0
            && params.b > 0.0
            && params.c >= 0.0
            && params.a + params.b + params.c <= 1.0
            && (0.0..1.0).contains(&params.noise))
        {
            return Err(GraphError::InvalidSize(
                "r-mat parameters are not valid probabilities".into(),
            ));
        }
        Ok(RmatStream {
            scale,
            num_edges,
            max_weight,
            params,
            seed,
        })
    }

    /// Number of vertices (`2^scale`).
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of generator draws (realized edges are slightly fewer:
    /// self-loops are skipped).
    pub fn num_draws(&self) -> u64 {
        self.num_edges
    }

    /// Edge `index` of the stream, or `None` if that draw was a
    /// self-loop. Pure in `(self, index)`.
    pub fn edge(&self, index: u64) -> Option<(VertexId, VertexId, Weight)> {
        let mut rng = edge_rng(self.seed, index);
        // Each level halves the square; its quadrant appends one bit to
        // the row and one to the column.
        let (mut src, mut dst): (VertexId, VertexId) = (0, 0);
        for _ in 0..self.scale {
            // Same per-level multiplicative noise as `gen::rmat`.
            let jitter = |p: f64, rng: &mut SmallRng| {
                p * (1.0 - self.params.noise + 2.0 * self.params.noise * rng.random::<f64>())
            };
            let a = jitter(self.params.a, &mut rng);
            let b = jitter(self.params.b, &mut rng);
            let c = jitter(self.params.c, &mut rng);
            let d = jitter(self.params.d(), &mut rng);
            let total = a + b + c + d;
            let x = rng.random::<f64>() * total;
            // Quadrant 0..=3 (a, b, c, d) without branches: the bounds
            // never decrease (b, c >= 0), so it is 3 minus the number
            // of bounds `x` falls under.
            let quadrant = 3
                - VertexId::from(x < a)
                - VertexId::from(x < a + b)
                - VertexId::from(x < a + b + c);
            src = (src << 1) | (quadrant >> 1);
            dst = (dst << 1) | (quadrant & 1);
        }
        if src == dst {
            return None;
        }
        Some((src, dst, rng.random_range(1..=self.max_weight)))
    }

    /// Iterates the realized edges of index range `start..end`
    /// (clamped to the stream length), in index order, drawn in
    /// parallel blocks.
    pub fn chunk(
        &self,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        block_parallel(start, end.min(self.num_edges), RMAT_BLOCK_DRAWS, move |i| {
            self.edge(i)
        })
    }

    /// Iterates every realized edge of the stream.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.chunk(0, self.num_edges)
    }
}

/// Streaming uniform-random generator over `num_vertices` vertices:
/// endpoints i.i.d. uniform, weights in `1..=max_weight`, self-loops
/// skipped. Pure in `(seed, index)` like [`RmatStream`].
#[derive(Debug, Clone, Copy)]
pub struct UniformStream {
    num_vertices: usize,
    num_edges: u64,
    max_weight: Weight,
    seed: u64,
}

impl UniformStream {
    /// Creates a stream over at least two vertices.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] for fewer than two vertices
    /// or a zero weight bound.
    pub fn new(
        num_vertices: usize,
        num_edges: u64,
        max_weight: Weight,
        seed: u64,
    ) -> Result<UniformStream, GraphError> {
        if num_vertices < 2 {
            return Err(GraphError::InvalidSize(format!(
                "uniform stream needs >= 2 vertices, got {num_vertices}"
            )));
        }
        if u32::try_from(num_vertices).is_err() {
            return Err(GraphError::InvalidSize(format!(
                "vertex count {num_vertices} exceeds u32 ids"
            )));
        }
        if max_weight == 0 {
            return Err(GraphError::InvalidSize(
                "max_weight must be positive".into(),
            ));
        }
        Ok(UniformStream {
            num_vertices,
            num_edges,
            max_weight,
            seed,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of generator draws.
    pub fn num_draws(&self) -> u64 {
        self.num_edges
    }

    /// Edge `index`, or `None` if that draw was a self-loop.
    pub fn edge(&self, index: u64) -> Option<(VertexId, VertexId, Weight)> {
        let mut rng = edge_rng(self.seed, index);
        let n = self.num_vertices as u32;
        let src = rng.random_range(0..n as u64) as VertexId;
        let dst = rng.random_range(0..n as u64) as VertexId;
        if src == dst {
            return None;
        }
        Some((src, dst, rng.random_range(1..=self.max_weight)))
    }

    /// Iterates the realized edges of index range `start..end`
    /// (clamped to the stream length), in index order, drawn in
    /// parallel blocks.
    pub fn chunk(
        &self,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        block_parallel(
            start,
            end.min(self.num_edges),
            UNIFORM_BLOCK_DRAWS,
            move |i| self.edge(i),
        )
    }

    /// Iterates every realized edge of the stream.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.chunk(0, self.num_edges)
    }
}

/// Mirrors a directed edge stream into its symmetric (undirected)
/// closure: each `(s, d, w)` yields `(s, d, w)` and `(d, s, w)`.
pub fn mirror<I>(edges: I) -> impl Iterator<Item = (VertexId, VertexId, Weight)>
where
    I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
{
    edges
        .into_iter()
        .flat_map(|(s, d, w)| [(s, d, w), (d, s, w)])
}

/// Tuning for [`build_sharded`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Total `(src, dst, weight)` triples buffered in RAM across all
    /// shards before spilling (12 bytes each).
    pub sort_buffer_edges: usize,
    /// Directory for spill files; created if missing, spill files are
    /// removed on success.
    pub spill_dir: PathBuf,
}

impl StreamConfig {
    /// A config spilling under `dir` with the default 16 M-edge
    /// (~192 MB) sort buffer.
    pub fn new(dir: impl Into<PathBuf>) -> StreamConfig {
        StreamConfig {
            sort_buffer_edges: 16 << 20,
            spill_dir: dir.into(),
        }
    }

    /// Replaces the sort-buffer budget (clamped to at least 1).
    pub fn with_sort_buffer_edges(mut self, edges: usize) -> StreamConfig {
        self.sort_buffer_edges = edges.max(1);
        self
    }
}

/// What the out-of-core build did, for reporting.
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Directed edges packed into shards.
    pub edges_packed: u64,
    /// Sorted runs spilled to disk (0 when everything fit in RAM).
    pub runs_spilled: usize,
    /// Total bytes written to spill files.
    pub spill_bytes: u64,
    /// Peak resident set size observed after packing, if the platform
    /// exposes it (Linux `VmHWM`). Diagnostic only — never put this in
    /// a deterministic artifact.
    pub peak_rss_bytes: Option<u64>,
}

/// One shard's spill state: an in-RAM buffer plus sorted runs on disk.
struct ShardSpill {
    buf: Vec<(VertexId, VertexId, Weight)>,
    cap: usize,
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    /// Record count of each sorted run, in file order.
    runs: Vec<u64>,
}

impl ShardSpill {
    fn new(path: PathBuf, cap: usize) -> ShardSpill {
        ShardSpill {
            buf: Vec::new(),
            cap: cap.max(1),
            path,
            writer: None,
            runs: Vec::new(),
        }
    }

    fn push(&mut self, edge: (VertexId, VertexId, Weight)) -> Result<(), GraphError> {
        if self.buf.capacity() == 0 {
            // Exactly the cap: growing by doubling past a cap that is
            // not a power of two would overshoot the RAM budget.
            self.buf.try_reserve_exact(self.cap).map_err(|_| {
                GraphError::InvalidSize(format!(
                    "cannot allocate a sort buffer of {} edges",
                    self.cap
                ))
            })?;
        }
        self.buf.push(edge);
        if self.buf.len() >= self.cap {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<(), GraphError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let writer = match self.writer.as_mut() {
            Some(w) => w,
            None => {
                let file = File::create(&self.path)?;
                self.writer.insert(BufWriter::new(file))
            }
        };
        sort_merged(&mut self.buf, |(s, d, w)| {
            let mut record = [0u8; RECORD_BYTES];
            record[0..4].copy_from_slice(&s.to_le_bytes());
            record[4..8].copy_from_slice(&d.to_le_bytes());
            record[8..12].copy_from_slice(&w.to_le_bytes());
            writer.write_all(&record)?;
            Ok(())
        })?;
        self.runs.push(self.buf.len() as u64);
        self.buf.clear();
        Ok(())
    }
}

/// Sorts `buf` in place as contiguous parts, one per worker, on scoped
/// threads, then feeds the merged parts to `sink` in ascending order.
/// The merge reads the parts where they lie: no second buffer.
fn sort_merged(
    buf: &mut [Edge],
    sink: impl FnMut(Edge) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let parts = workers().min(buf.len() / MIN_SORT_PART).max(1);
    let part_len = buf.len().div_ceil(parts).max(1);
    let queue = Mutex::new(buf.chunks_mut(part_len));
    let sort_parts = || loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        match next {
            Some(part) => part.sort_unstable(),
            None => break,
        }
    };
    thread::scope(|s| {
        // A part whose spawn fails is left to the calling thread.
        for _ in 1..parts {
            let _ = thread::Builder::new().spawn_scoped(s, sort_parts);
        }
        sort_parts();
    });
    let sources = buf.chunks(part_len).map(|part| {
        let mut it = part.iter().copied();
        move || Ok(it.next())
    });
    merge_sorted(sources.collect(), sink)
}

/// K-way merges ascending `sources` into `sink`, smallest triple
/// first. Equal triples are the same record, so ties need no order.
fn merge_sorted<S>(
    mut sources: Vec<S>,
    mut sink: impl FnMut(Edge) -> Result<(), GraphError>,
) -> Result<(), GraphError>
where
    S: FnMut() -> Result<Option<Edge>, GraphError>,
{
    let mut heap = BinaryHeap::with_capacity(sources.len());
    for (idx, source) in sources.iter_mut().enumerate() {
        if let Some(e) = source()? {
            heap.push(Reverse((e, idx)));
        }
    }
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((e, idx)) = *top;
        sink(e)?;
        match sources[idx]()? {
            Some(next) => *top = Reverse((next, idx)),
            None => {
                PeekMut::pop(top);
            }
        }
    }
    Ok(())
}

/// Buffered reader over one sorted run inside a spill file.
struct RunCursor {
    file: File,
    remaining: u64,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
}

impl RunCursor {
    fn open(path: &Path, start_record: u64, records: u64) -> Result<RunCursor, GraphError> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(start_record * RECORD_BYTES as u64))?;
        Ok(RunCursor {
            file,
            remaining: records,
            buf: vec![0; MERGE_BUF_BYTES],
            pos: 0,
            filled: 0,
        })
    }

    fn next(&mut self) -> Result<Option<(VertexId, VertexId, Weight)>, GraphError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.pos == self.filled {
            let want = (self.remaining as usize)
                .saturating_mul(RECORD_BYTES)
                .min(self.buf.len());
            self.file.read_exact(&mut self.buf[..want])?;
            self.pos = 0;
            self.filled = want;
        }
        let rec = &self.buf[self.pos..self.pos + RECORD_BYTES];
        let s = u32::from_le_bytes(rec[0..4].try_into().expect("4-byte slice"));
        let d = u32::from_le_bytes(rec[4..8].try_into().expect("4-byte slice"));
        let w = u32::from_le_bytes(rec[8..12].try_into().expect("4-byte slice"));
        self.pos += RECORD_BYTES;
        self.remaining -= 1;
        Ok(Some((s, d, w)))
    }
}

/// Builds a [`ShardedGraph`] from an arbitrary directed edge stream in
/// bounded resident memory (see the module docs for the pipeline).
///
/// The result is identical to routing the fully materialized edge list
/// through the same packers: external sorting changes where the sort
/// happens, not its outcome (ties beyond `(src, dst, weight)` don't
/// exist — the triple *is* the sort key).
///
/// Pass [`mirror`] around a generator stream to store an undirected
/// graph symmetrically.
///
/// # Errors
///
/// Returns [`GraphError`] on out-of-range endpoints, packer capacity
/// overflow, or spill-file I/O failure.
pub fn build_sharded<G, I>(
    partition: Partition,
    edges: I,
    cfg: &StreamConfig,
) -> Result<(ShardedGraph<G>, BuildStats), GraphError>
where
    G: Packable,
    I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
{
    let num_shards = partition.num_shards();
    let n = partition.num_vertices();
    std::fs::create_dir_all(&cfg.spill_dir)?;
    let per_shard = (cfg.sort_buffer_edges / num_shards).max(1);
    let mut spills: Vec<ShardSpill> = (0..num_shards)
        .map(|k| {
            ShardSpill::new(
                cfg.spill_dir.join(format!("crono-shard-{k}.spill")),
                per_shard,
            )
        })
        .collect();

    let mut stats = BuildStats::default();
    for (s, d, w) in edges {
        let far = s.max(d);
        if far as usize >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: far as u64,
                num_vertices: n,
            });
        }
        spills[partition.shard_of_edge(s, d)].push((s, d, w))?;
        stats.edges_packed += 1;
    }

    let mut shards = Vec::with_capacity(num_shards);
    for spill in &mut spills {
        let mut packer = G::Packer::new(n);
        if spill.runs.is_empty() {
            // Everything fit in RAM: sort and pack directly.
            sort_merged(&mut spill.buf, |(s, d, w)| packer.push_edge(s, d, w))?;
        } else {
            // Flush the partial tail run, then k-way merge all runs.
            spill.spill()?;
            if let Some(mut w) = spill.writer.take() {
                w.flush()?;
            }
            stats.runs_spilled += spill.runs.len();
            stats.spill_bytes += spill.runs.iter().sum::<u64>() * RECORD_BYTES as u64;
            let mut cursors = Vec::with_capacity(spill.runs.len());
            let mut start = 0u64;
            for &len in &spill.runs {
                let mut cursor = RunCursor::open(&spill.path, start, len)?;
                cursors.push(move || cursor.next());
                start += len;
            }
            merge_sorted(cursors, |(s, d, w)| packer.push_edge(s, d, w))?;
            std::fs::remove_file(&spill.path)?;
        }
        // Free this shard's buffer before the next shard packs.
        spill.buf = Vec::new();
        shards.push(packer.finish()?);
    }
    stats.peak_rss_bytes = peak_rss_bytes();
    Ok((ShardedGraph::from_parts(partition, shards), stats))
}

/// Peak resident set size of this process in bytes, from Linux's
/// `VmHWM` line in `/proc/self/status`; `None` where unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Placement;
    use crate::{CompressedCsr, CsrGraph};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crono-stream-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn rmat_edges_are_pure_functions_of_index() {
        let s = RmatStream::new(7, 512, 8, RmatParams::default(), 42).unwrap();
        let all: Vec<_> = s.edges().collect();
        // Regenerating any chunk out of order reproduces the same edges.
        let tail: Vec<_> = s.chunk(256, 512).collect();
        let head: Vec<_> = s.chunk(0, 256).collect();
        let mut stitched = head;
        stitched.extend(tail);
        assert_eq!(stitched, all);
        assert_eq!(s.edge(17), s.edge(17));
    }

    /// Unaligned, empty, reversed and overlong ranges around the first
    /// three `block` boundaries of a `3 * block + 77`-draw stream.
    fn boundary_ranges(block: u64) -> [(u64, u64); 7] {
        let b = block;
        [
            (b - 5, b + 5),
            (1, 2 * b + 1),
            (b + 3, 3 * b - 3),
            (7, 7),
            (2 * b, b),
            (3 * b - 9, u64::MAX),
            (0, 3 * b + 77),
        ]
    }

    #[test]
    fn chunks_across_block_boundaries_match_per_index_edges() {
        let draws = 3 * RMAT_BLOCK_DRAWS + 77;
        let r = RmatStream::new(6, draws, 8, RmatParams::default(), 3).unwrap();
        for (start, end) in boundary_ranges(RMAT_BLOCK_DRAWS) {
            let want: Vec<_> = (start..end.min(draws)).filter_map(|i| r.edge(i)).collect();
            assert_eq!(
                r.chunk(start, end).collect::<Vec<_>>(),
                want,
                "{start}..{end}"
            );
        }
        let draws = 3 * UNIFORM_BLOCK_DRAWS + 77;
        let u = UniformStream::new(40, draws, 8, 3).unwrap();
        for (start, end) in boundary_ranges(UNIFORM_BLOCK_DRAWS) {
            let want: Vec<_> = (start..end.min(draws)).filter_map(|i| u.edge(i)).collect();
            assert_eq!(
                u.chunk(start, end).collect::<Vec<_>>(),
                want,
                "{start}..{end}"
            );
        }
    }

    #[test]
    fn sort_buffer_never_exceeds_its_cap() {
        let dir = temp_dir("cap");
        std::fs::create_dir_all(&dir).unwrap();
        let cap = 1_000;
        let mut spill = ShardSpill::new(dir.join("cap.spill"), cap);
        for i in 0..cap as u32 - 1 {
            spill.push((i, i + 1, 1)).unwrap();
            assert!(
                spill.buf.capacity() <= cap,
                "capacity {}",
                spill.buf.capacity()
            );
        }
        assert!(spill.runs.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uniform_stream_respects_bounds() {
        let s = UniformStream::new(50, 400, 9, 7).unwrap();
        let mut count = 0;
        for (src, dst, w) in s.edges() {
            assert!(src < 50 && dst < 50 && src != dst);
            assert!((1..=9).contains(&w));
            count += 1;
        }
        assert!(count > 300, "self-loop skips should be rare: {count}");
    }

    #[test]
    fn rmat_stream_is_skewed() {
        let s = RmatStream::new(9, 8_192, 8, RmatParams::default(), 5).unwrap();
        let p = Partition::one_d(s.num_vertices(), 1);
        let dir = temp_dir("skew");
        let (g, _) =
            build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &StreamConfig::new(&dir)).unwrap();
        let avg = (g.shard(0).num_directed_edges() / g.num_vertices()).max(1);
        assert!(
            g.shard(0).max_degree() > 8 * avg,
            "expected hubs: max={} avg={avg}",
            g.shard(0).max_degree()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_build_equals_in_memory_build() {
        let s = UniformStream::new(64, 2_000, 8, 42).unwrap();
        let p = Partition::one_d(64, 4);
        let dir = temp_dir("equal");
        // Tiny buffer forces many spilled runs.
        let spilled = StreamConfig::new(&dir).with_sort_buffer_edges(64);
        let (a, stats) = build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &spilled).unwrap();
        assert!(stats.runs_spilled > 4, "runs: {}", stats.runs_spilled);
        assert!(stats.spill_bytes > 0);
        // Huge buffer: pure in-memory path.
        let resident = StreamConfig::new(&dir).with_sort_buffer_edges(1 << 20);
        let (b, stats_b) = build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &resident).unwrap();
        assert_eq!(stats_b.runs_spilled, 0);
        for (x, y) in a.shards().iter().zip(b.shards()) {
            assert_eq!(x, y);
        }
        // Buffer size must not change the result, only where sorting ran.
        let mid = StreamConfig::new(&dir).with_sort_buffer_edges(333);
        let (c, _) = build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &mid).unwrap();
        for (x, y) in a.shards().iter().zip(c.shards()) {
            assert_eq!(x, y);
        }
        assert!(
            !dir.read_dir().is_ok_and(|mut d| d.any(|_| true)),
            "spill files must be cleaned up"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_build_matches_plain_build() {
        let s = RmatStream::new(8, 3_000, 8, RmatParams::default(), 11).unwrap();
        let p = Partition::two_d(s.num_vertices(), 2).with_placement(Placement::Hashed);
        let dir = temp_dir("repr");
        let cfg = StreamConfig::new(&dir).with_sort_buffer_edges(128);
        let (plain, _) = build_sharded::<CsrGraph, _>(p, mirror(s.edges()), &cfg).unwrap();
        let (packed, _) = build_sharded::<CompressedCsr, _>(p, mirror(s.edges()), &cfg).unwrap();
        for (a, b) in plain.shards().iter().zip(packed.shards()) {
            assert_eq!(&b.to_csr(), a);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_stream_edge_is_a_typed_error() {
        let p = Partition::one_d(4, 2);
        let dir = temp_dir("range");
        let err = build_sharded::<CsrGraph, _>(p, vec![(0, 9, 1)], &StreamConfig::new(&dir))
            .expect_err("out-of-range endpoint must fail");
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 9, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }
}
