//! `serve`: one closed-loop client of the frozen distance oracle —
//! `Oracle::distance` over a Zipf-skewed pair stream, interleaved with
//! `batch_distances` sweeps of k ∈ {1, 16, 256} sources.

use crate::frt::{direct_metrics, le_list_metrics};
use crate::gate::{self, Reference, Violation};
use crate::host::peak_rss_mb;
use crate::report::{median, EndToEnd, Metrics, Outcome};
use crate::trace::Tracer;
use crate::{derive, repeated_setup, sampler_rng, Traced, REFERENCE_SOURCES};
use metric_tree_embedding::core::frt::{le_lists_direct, Ranks};
use metric_tree_embedding::prelude::*;
use metric_tree_embedding::serving::{CancelToken, Rung};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 50_000;
/// Length of the pre-generated pair stream (cycled).
const STREAM: usize = 1 << 18;
/// Zipf exponent of the vertex popularity.
const ZIPF_S: f64 = 1.1;
/// Sweep sizes, one sweep each per round.
const BATCH_KS: [usize; 3] = [1, 16, 256];
/// Point queries per round, before the round's sweeps.
const POINTS_PER_ROUND: usize = 500_000;
/// Vertices of each successful batch row checked against the point
/// answers.
const BATCH_PROBES: usize = 256;

/// What the closed loop serves.
struct Input {
    /// The tree the artifact was built from (before encode/load).
    tree: FrtTree,
    oracle: Oracle,
    pairs: Vec<(NodeId, NodeId)>,
    n: usize,
    seed: u64,
}

impl Input {
    fn new(oracle: Oracle, tree: FrtTree, seed: u64) -> Input {
        let n = tree.num_vertices();
        Input {
            pairs: zipf_pairs(n, derive(seed, 0x21bf)),
            tree,
            oracle,
            n,
            seed,
        }
    }
}

/// Set-up: exact LE lists with `le_lists_direct`, the tree, the artifact,
/// its encoding and `Oracle::load`; returns the input and the served
/// tree's mean stretch. Spans go to `tracer`; the per-layer figures of
/// set-up go to `m`.
fn setup(seed: u64, tracer: &mut Tracer, m: &mut Metrics) -> Result<(Input, f64), Violation> {
    let g = gnm_graph(
        N,
        3 * N,
        1.0..100.0,
        &mut StdRng::seed_from_u64(derive(seed, N as u64)),
    );
    // The tree's own randomness (ranks, β) comes from sampler stream 0,
    // as in the other workloads.
    let mut rng = sampler_rng(0);
    let ranks = Arc::new(Ranks::sample(N, &mut rng));
    let beta: f64 = rng.gen_range(1.0..2.0);
    let ((lists, iterations, work), direct_ms) =
        tracer.time("direct", || le_lists_direct(&g, &ranks));
    direct_metrics(m, &work, iterations, direct_ms);
    le_list_metrics(m, &lists);
    let (tree, tree_ms) = tracer.time("tree", || {
        FrtTree::from_le_lists(&lists, &ranks, beta, g.min_weight())
    });
    m.set("tree.ms", tree_ms, "ms");
    m.set("tree.nodes", tree.len() as f64, "count");
    m.set("tree.levels", tree.num_levels() as f64, "count");
    let reference = Reference::new(&g, REFERENCE_SOURCES, derive(seed, 0x5eed));
    let stretch_mean = reference.dominance(&tree)?;
    let (artifact, _) = tracer.time("artifact.build", || {
        OracleArtifact::from_parts(lists, (*ranks).clone(), tree.clone())
    });
    let artifact = artifact.map_err(|e| Violation(format!("artifact build failed: {e}")))?;
    let (bytes, encode_ms) = tracer.time("artifact.encode", || artifact.encode());
    drop(artifact);
    let (oracle, load_ms) = tracer.time("artifact.load", || {
        Oracle::load(&bytes, ServeConfig::default())
    });
    let oracle = oracle.map_err(|e| Violation(format!("artifact load failed: {e}")))?;
    m.set("artifact.bytes", bytes.len() as f64, "bytes");
    m.set("artifact.encode_ms", encode_ms, "ms");
    m.set("artifact.load_ms", load_ms, "ms");
    Ok((Input::new(oracle, tree, seed), stretch_mean))
}

/// `STREAM` pairs whose endpoints follow a Zipf law over a seeded
/// permutation of the vertices (so the hot vertices are random).
fn zipf_pairs(n: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.shuffle(&mut rng);
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += (rank as f64).powf(-ZIPF_S);
        cdf.push(total);
    }
    let draw = |rng: &mut StdRng| {
        let x = rng.gen::<f64>() * total;
        order[cdf.partition_point(|&c| c < x).min(n - 1)]
    };
    (0..STREAM)
        .map(|_| {
            let u = draw(&mut rng);
            let mut v = draw(&mut rng);
            while v == u {
                v = draw(&mut rng);
            }
            (u, v)
        })
        .collect()
}

/// Everything the closed loop counts.
#[derive(Default)]
struct LoopStats {
    /// Per point call, ns.
    latency_ns: Vec<u32>,
    /// Per point answer, work units.
    work: Vec<u32>,
    rungs: [u64; 4],
    shed: u64,
    deadline_exceeded: u64,
    point_failed: u64,
    /// Per k: sweep ms, work units charged, failures.
    batch_ms: [Vec<f64>; 3],
    batch_work: [Vec<f64>; 3],
    batch_failed: [u64; 3],
    /// (source, vertex) answers of successful sweeps, and their time.
    batch_answers: u64,
    batch_ok_s: f64,
    /// Wall ms of each point block (traced run).
    block_ms: Vec<f64>,
}

impl LoopStats {
    fn sweeps(&self) -> u64 {
        self.batch_ms.iter().map(|v| v.len() as u64).sum()
    }

    fn sweeps_failed(&self) -> u64 {
        self.batch_failed.iter().sum()
    }
}

/// The closed loop: rounds of `POINTS_PER_ROUND` point queries and one
/// sweep per k, until `seconds` have passed (at least one round).
/// Every answer goes through the gate.
fn serve_loop(
    input: &Input,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<LoopStats, Violation> {
    let oracle = &input.oracle;
    let token = CancelToken::new();
    let mut rng = StdRng::seed_from_u64(derive(input.seed, 0xba7c));
    let mut s = LoopStats::default();
    let mut next = 0usize;
    let start = Instant::now();
    while s.batch_ms[0].is_empty() || start.elapsed().as_secs_f64() < seconds {
        let block = tracer.as_deref_mut().map(|t| t.enter("serve.points"));
        for _ in 0..POINTS_PER_ROUND {
            let (u, v) = input.pairs[next % STREAM];
            next += 1;
            let t = Instant::now();
            let answer = black_box(oracle.distance(u, v));
            s.latency_ns
                .push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
            match answer {
                Ok(a) => {
                    gate::point_answer(&a, &input.tree, u, v)?;
                    s.work.push(a.work.min(u64::from(u32::MAX)) as u32);
                    s.rungs[match a.rung {
                        Rung::CacheHit => 0,
                        Rung::TreeLca => 1,
                        Rung::ListIntersection => 2,
                        Rung::Truncated => 3,
                    }] += 1;
                }
                Err(ServeError::Overloaded { .. }) => s.shed += 1,
                Err(ServeError::DeadlineExceeded { .. }) => s.deadline_exceeded += 1,
                Err(_) => s.point_failed += 1,
            }
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), block) {
            s.block_ms.push(t.exit(id));
        }
        for (j, &k) in BATCH_KS.iter().enumerate() {
            let sources: Vec<NodeId> = (0..k)
                .map(|_| rng.gen_range(0..input.n as NodeId))
                .collect();
            let span = tracer
                .as_deref_mut()
                .map(|t| t.enter(["batch.k1", "batch.k16", "batch.k256"][j]));
            let t = Instant::now();
            let result = oracle.batch_distances(&sources, &token);
            let secs = t.elapsed().as_secs_f64();
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.exit(id);
            }
            s.batch_ms[j].push(secs * 1e3);
            match result {
                Ok(answer) => {
                    let probes: Vec<NodeId> = (0..BATCH_PROBES)
                        .map(|_| rng.gen_range(0..input.n as NodeId))
                        .collect();
                    for (row, &source) in answer.distances.iter().zip(&sources) {
                        gate::batch_row(row, &input.tree, source, &probes)?;
                    }
                    s.batch_work[j].push(answer.work as f64);
                    s.batch_answers += (k * input.n) as u64;
                    s.batch_ok_s += secs;
                }
                Err(ServeError::DeadlineExceeded { budget }) => {
                    s.batch_work[j].push(budget as f64);
                    s.batch_failed[j] += 1;
                }
                Err(_) => s.batch_failed[j] += 1,
            }
        }
    }
    Ok(s)
}

/// Sorted-copy percentile of integer samples (nearest rank).
fn percentile_u32(values: &[u32], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    f64::from(v[rank.clamp(1, v.len()) - 1])
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, Violation> {
    let (input, setup_s) =
        repeated_setup(|| setup(seed, &mut Tracer::default(), &mut Metrics::default()));
    let (input, stretch_mean) = input?;
    let s = serve_loop(&input, seconds, None)?;
    let points = s.latency_ns.len() as u64;
    let point_s: f64 = s.latency_ns.iter().map(|&ns| f64::from(ns)).sum::<f64>() / 1e9;
    let p50_us = percentile_u32(&s.latency_ns, 0.5) / 1e3;
    let p99_us = percentile_u32(&s.latency_ns, 0.99) / 1e3;
    let failed = s.shed + s.deadline_exceeded + s.point_failed + s.sweeps_failed();
    let mut report = Metrics::default();
    report.set("point_qps", points as f64 / point_s, "1/s");
    report.set("point_p50_us", p50_us, "us");
    report.set("point_p99_us", p99_us, "us");
    report.set("point_queries", points as f64, "count");
    report.set(
        "batch_answers_per_s",
        s.batch_answers as f64 / s.batch_ok_s.max(f64::MIN_POSITIVE),
        "1/s",
    );
    report.set(
        "batch_error_rate",
        s.sweeps_failed() as f64 / s.sweeps() as f64,
        "ratio",
    );
    report.set("batch_sweeps", s.sweeps() as f64, "count");
    report.set("stretch_mean", stretch_mean, "ratio");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("setup_s", setup_s, "s");
    report.set(
        "error_rate",
        failed as f64 / (points + s.sweeps()) as f64,
        "ratio",
    );
    Ok(Outcome {
        attempted: points + s.sweeps(),
        failed,
        end_to_end: EndToEnd {
            call_p50_ms: p50_us / 1e3,
            stretch_mean,
            peak_rss_mb: peak_rss_mb(),
            setup_s,
        },
        report,
    })
}

/// Traced run: set-up and the same closed loop, with spans around each
/// set-up stage, each point block and each sweep.
pub fn trace(seed: u64, seconds: f64) -> Result<Traced, Violation> {
    let mut tracer = Tracer::default();
    let mut m = Metrics::default();
    let (input, _) = setup(seed, &mut tracer, &mut m)?;
    let block_ms = traced_loop(&input, seconds, &mut tracer, &mut m)?;
    m.set("trace.job_ms", block_ms, "ms");
    Ok(Traced {
        metrics: m,
        tracer,
        scaling: Vec::new(),
    })
}

/// The serving layers on another workload's artifact: one traced round
/// (a point block, then one sweep per k) against `oracle`, which was
/// loaded from an artifact of `tree`.
pub fn trace_artifact(
    oracle: Oracle,
    tree: FrtTree,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), Violation> {
    traced_loop(&Input::new(oracle, tree, seed), 0.0, tracer, m).map(|_| ())
}

/// Runs the closed loop under `tracer`, records the serving and batch
/// layer metrics, and returns the median point block's ms.
fn traced_loop(
    input: &Input,
    seconds: f64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<f64, Violation> {
    let s = serve_loop(input, seconds, Some(tracer))?;
    let answered: u64 = s.rungs.iter().sum();
    for (name, count) in ["cache_hit", "tree_lca", "list_intersection", "truncated"]
        .iter()
        .zip(s.rungs)
    {
        m.set(
            &format!("serve.rung.{name}"),
            count as f64 / answered.max(1) as f64,
            "ratio",
        );
    }
    let cache = input.oracle.cache_stats();
    m.set(
        "serve.cache_hit_rate",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    m.set("serve.work_p50", percentile_u32(&s.work, 0.5), "count");
    m.set("serve.work_p99", percentile_u32(&s.work, 0.99), "count");
    m.set("serve.shed", s.shed as f64, "count");
    m.set(
        "serve.deadline_exceeded",
        s.deadline_exceeded as f64,
        "count",
    );
    for (j, k) in BATCH_KS.iter().enumerate() {
        m.set(&format!("batch.ms.k{k}"), median(&s.batch_ms[j]), "ms");
        m.set(
            &format!("batch.work.k{k}"),
            median(&s.batch_work[j]),
            "count",
        );
        m.set(
            &format!("batch.failed.k{k}"),
            s.batch_failed[j] as f64,
            "count",
        );
    }
    m.set(
        "batch.error_rate",
        s.sweeps_failed() as f64 / s.sweeps() as f64,
        "ratio",
    );
    Ok(median(&s.block_ms))
}
