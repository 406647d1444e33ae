//! `frt-gnm` and `frt-geo`: `FrtEmbedding::sample`, the paper's main
//! pipeline (hop set → simulated graph `H` → oracle LE lists → tree).

use crate::gate::{self, Reference, Violation};
use crate::host::{peak_rss_mb, rss_mb};
use crate::report::{mean, median, percentile, EndToEnd, Metrics, Outcome};
use crate::serve;
use crate::trace::Tracer;
use crate::{derive, repeated_setup, sampler_rng, Traced, REFERENCE_SOURCES};
use metric_tree_embedding::core::frt::{le_lists_direct, le_lists_oracle, Ranks};
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Samples per run. Sample `i` runs sampler stream `i` on the run's
/// `i`-th graph (`i mod SAMPLES`), so the median averages over as many
/// graphs as samples: one gnm graph can need a whole `H`-iteration more
/// than another on the same stream. More samples are taken only while
/// `--seconds` has not yet passed.
const SAMPLES: usize = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `gnm_graph(n, 3n, 1..100)`: low shortest-path diameter.
    Gnm,
    /// `random_geometric_graph(n, √(6/(πn)), 100)`: road-like, high SPD.
    Geo,
}

impl Family {
    /// Size of the timed workload. For gnm it is 4000 rather than 8000:
    /// a median of twelve samples at n = 4000 fits one run, where six at
    /// n = 8000 left the median as noisy as the graphs it was drawn on.
    /// The traced run's scaling view still replays n = 8000.
    fn n(self) -> usize {
        match self {
            Family::Gnm => 4000,
            Family::Geo => 4000,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Family::Gnm => "gnm",
            Family::Geo => "geo",
        }
    }

    /// The traced run's scaling view (diagnostics only). `frt-gnm`'s
    /// also covers the road-like family, so one traced workload records
    /// both.
    fn scaling_view(self) -> &'static [(Family, usize)] {
        match self {
            Family::Gnm => &[
                (Family::Gnm, 2000),
                (Family::Gnm, 4000),
                (Family::Gnm, 8000),
                (Family::Geo, 1000),
                (Family::Geo, 2000),
                (Family::Geo, 4000),
            ],
            Family::Geo => &[
                (Family::Geo, 1000),
                (Family::Geo, 2000),
                (Family::Geo, 4000),
            ],
        }
    }

    /// The seed's `index`-th graph of size `n`.
    fn generate(self, n: usize, seed: u64, index: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(derive(derive(seed, n as u64), index as u64));
        match self {
            Family::Gnm => gnm_graph(n, 3 * n, 1.0..100.0, &mut rng),
            Family::Geo => {
                let radius = (6.0 / (std::f64::consts::PI * n as f64)).sqrt();
                random_geometric_graph(n, radius, 100.0, &mut rng)
            }
        }
    }
}

/// A generated graph with its pipeline configuration and reference
/// distances.
struct Input {
    g: Graph,
    config: FrtConfig,
    reference: Reference,
}

fn setup(family: Family, n: usize, seed: u64, index: usize) -> Input {
    let g = family.generate(n, seed, index);
    // `for_scale` as in examples/quickstart.rs: the default hop budget
    // (d = 17) adds a near-complete hop set at these sizes.
    let config = FrtConfig {
        hopset: HopsetConfig::for_scale(g.n(), g.m()),
        ..FrtConfig::default()
    };
    let reference = Reference::new(
        &g,
        REFERENCE_SOURCES,
        derive(derive(seed, 0x5eed), index as u64),
    );
    Input {
        g,
        config,
        reference,
    }
}

/// Untraced timed run: back-to-back `FrtEmbedding::sample` calls.
pub fn run(family: Family, seed: u64, seconds: f64) -> Result<Outcome, Violation> {
    let (inputs, setup_s) = repeated_setup(|| {
        (0..SAMPLES)
            .map(|i| setup(family, family.n(), seed, i))
            .collect::<Vec<_>>()
    });
    let start = Instant::now();
    let mut times = Vec::new();
    let mut stretches = Vec::new();
    let mut peak_mb: f64 = 0.0;
    let mut entries = Vec::new();
    while times.len() < SAMPLES || start.elapsed().as_secs_f64() < seconds {
        let input = &inputs[times.len() % SAMPLES];
        let mut rng = sampler_rng(times.len());
        let t = Instant::now();
        let emb = black_box(FrtEmbedding::sample(&input.g, &input.config, &mut rng));
        times.push(t.elapsed().as_secs_f64());
        entries.push(emb.work().entries_processed as f64);
        let stretch = input.reference.dominance(emb.tree())?;
        if stretches.len() < SAMPLES {
            stretches.push(stretch);
            peak_mb = peak_rss_mb();
        }
    }
    let calls = times.len() as f64;
    let listed: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    println!("call seconds: {}", listed.join(" "));
    let listed: Vec<String> = entries.iter().map(|e| format!("{:.1}", e / 1e6)).collect();
    println!("oracle entries (M): {}", listed.join(" "));
    let mut report = Metrics::default();
    report.set("sample_s", median(&times), "s");
    report.set("sample_max_s", percentile(&times, 1.0), "s");
    report.set("samples", calls, "count");
    report.set("stretch_mean", mean(&stretches), "ratio");
    report.set("peak_rss_mb", peak_mb, "MB");
    report.set("setup_s", setup_s, "s");
    report.set("error_rate", 0.0, "ratio");
    Ok(Outcome {
        attempted: times.len() as u64,
        failed: 0,
        end_to_end: EndToEnd {
            call_p50_ms: median(&times) * 1e3,
            stretch_mean: mean(&stretches),
            peak_rss_mb: peak_mb,
            setup_s,
        },
        report,
    })
}

/// One traced replay of `FrtEmbedding::sample`, stage by stage.
struct Stages {
    lists: Vec<LeList>,
    tree: FrtTree,
    ranks: Arc<Ranks>,
    job_ms: f64,
    simgraph_ms: f64,
    hopset_edges: usize,
    d: usize,
    lambda: u32,
    oracle_ms: f64,
    h_iterations: usize,
    work: WorkStats,
    oracle_rss_delta_mb: f64,
    tree_ms: f64,
    rss_after_simgraph_mb: f64,
    rss_after_oracle_mb: f64,
    rss_after_tree_mb: f64,
}

/// Replays `FrtEmbedding::sample` through its public stages with the
/// same RNG consumption (no spanner): `SimulatedGraph::build`,
/// `Ranks::sample`, `β`, `le_lists_oracle`, `FrtTree::from_le_lists`.
fn replay(input: &Input, rng: &mut StdRng, tracer: &mut Tracer) -> Stages {
    let n = input.g.n();
    let config = &input.config;
    let job = tracer.enter("sample");
    let (sim, simgraph_ms) = tracer.time("simgraph", || {
        SimulatedGraph::build(&input.g, &config.hopset, config.eps_hat, rng)
    });
    let rss_after_simgraph_mb = rss_mb();
    let ((ranks, beta), _) = tracer.time("ranks", || {
        let ranks = Arc::new(Ranks::sample(n, rng));
        let beta: f64 = rng.gen_range(1.0..2.0);
        (ranks, beta)
    });
    let rss_before_oracle = rss_mb();
    let ((lists, h_iterations, work), oracle_ms) = tracer.time("oracle", || {
        le_lists_oracle(&sim, &ranks, config.max_iterations)
    });
    let oracle_rss_delta_mb = (peak_rss_mb() - rss_before_oracle).max(0.0);
    let rss_after_oracle_mb = rss_mb();
    let (tree, tree_ms) = tracer.time("tree", || {
        FrtTree::from_le_lists(&lists, &ranks, beta, sim.base().min_weight())
    });
    let job_ms = tracer.exit(job);
    Stages {
        hopset_edges: sim.augmented().m() - sim.base().m(),
        d: sim.d(),
        lambda: sim.levels().lambda(),
        lists,
        tree,
        ranks,
        job_ms,
        simgraph_ms,
        oracle_ms,
        h_iterations,
        work,
        oracle_rss_delta_mb,
        tree_ms,
        rss_after_simgraph_mb,
        rss_after_oracle_mb,
        rss_after_tree_mb: rss_mb(),
    }
}

/// LE-list length statistics (Lemma 7.6: `O(log n)` w.h.p.).
pub fn le_list_metrics(m: &mut Metrics, lists: &[LeList]) {
    let lens: Vec<f64> = lists.iter().map(|l| l.len() as f64).collect();
    let max = lens.iter().copied().fold(0.0, f64::max);
    m.set("le_list.max_len", max, "count");
    m.set("le_list.mean_len", mean(&lens), "count");
    m.set(
        "le_list.max_len_over_ln_n",
        max / (lists.len().max(2) as f64).ln(),
        "ratio",
    );
}

/// Direct LE iteration on `G` with the oracle run's ranks (paper §8.1).
pub fn direct_metrics(m: &mut Metrics, work: &WorkStats, iterations: usize, ms: f64) {
    m.set("direct.ms", ms, "ms");
    m.set("direct.iterations", iterations as f64, "count");
    m.set(
        "direct.entries_processed",
        work.entries_processed as f64,
        "count",
    );
    m.set("direct.bytes_copied", work.bytes_copied as f64, "bytes");
}

/// The per-layer figures of one replay.
fn stage_metrics(m: &mut Metrics, s: &Stages) {
    m.set("simgraph.ms", s.simgraph_ms, "ms");
    m.set("simgraph.hopset_edges", s.hopset_edges as f64, "count");
    m.set("simgraph.d", s.d as f64, "count");
    m.set("simgraph.lambda", f64::from(s.lambda), "count");
    m.set("oracle.ms", s.oracle_ms, "ms");
    m.set("oracle.share", s.oracle_ms / s.job_ms, "ratio");
    m.set("oracle.h_iterations", s.h_iterations as f64, "count");
    m.set("oracle.iterations", s.work.iterations as f64, "count");
    m.set(
        "oracle.entries_processed",
        s.work.entries_processed as f64,
        "count",
    );
    m.set(
        "oracle.edge_relaxations",
        s.work.edge_relaxations as f64,
        "count",
    );
    m.set(
        "oracle.touched_vertices",
        s.work.touched_vertices as f64,
        "count",
    );
    m.set("oracle.bytes_copied", s.work.bytes_copied as f64, "bytes");
    m.set("oracle.alloc_count", s.work.alloc_count as f64, "count");
    m.set("oracle.arena_bytes", s.work.arena_bytes as f64, "bytes");
    m.set("oracle.rss_delta_mb", s.oracle_rss_delta_mb, "MB");
    m.set("tree.ms", s.tree_ms, "ms");
    m.set("tree.nodes", s.tree.len() as f64, "count");
    m.set("tree.levels", s.tree.num_levels() as f64, "count");
    m.set("rss.after_simgraph_mb", s.rss_after_simgraph_mb, "MB");
    m.set("rss.after_oracle_mb", s.rss_after_oracle_mb, "MB");
    m.set("rss.after_tree_mb", s.rss_after_tree_mb, "MB");
    le_list_metrics(m, &s.lists);
}

/// Replay plus direct LE lists at one size, for the scaling view.
fn scaling_row(family: Family, n: usize, seed: u64) -> Metrics {
    let input = setup(family, n, seed, 0);
    let mut tracer = Tracer::default();
    let stages = replay(&input, &mut sampler_rng(0), &mut tracer);
    let ((_, iterations, work), direct_ms) =
        tracer.time("direct", || le_lists_direct(&input.g, &stages.ranks));
    let mut m = Metrics::default();
    m.set("n", n as f64, "count");
    m.set("m", input.g.m() as f64, "count");
    m.set("sample.ms", stages.job_ms, "ms");
    stage_metrics(&mut m, &stages);
    direct_metrics(&mut m, &work, iterations, direct_ms);
    m.set(
        "oracle_over_direct.ms",
        stages.oracle_ms / direct_ms,
        "ratio",
    );
    m
}

/// Traced run: alternating traced replays and untraced samples of the
/// same streams (bit-identity checked on each pair); then, on the first
/// sample, direct LE lists, artifact freeze/encode/load and one serving
/// round; then the scaling view (one replay per size).
pub fn trace(family: Family, seed: u64, seconds: f64) -> Result<Traced, Violation> {
    let input = setup(family, family.n(), seed, 0);
    let mut tracer = Tracer::default();
    let start = Instant::now();
    let mut pairs: Vec<(Stages, f64)> = Vec::new();
    while pairs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let i = pairs.len();
        let other;
        let input_i = if i.is_multiple_of(SAMPLES) {
            &input
        } else {
            other = setup(family, family.n(), seed, i % SAMPLES);
            &other
        };
        let stages = replay(input_i, &mut sampler_rng(i), &mut tracer);
        let t = Instant::now();
        let emb = black_box(FrtEmbedding::sample(
            &input_i.g,
            &input_i.config,
            &mut sampler_rng(i),
        ));
        let sample_ms = t.elapsed().as_secs_f64() * 1e3;
        gate::lists_identical(&stages.lists, emb.le_lists())?;
        gate::trees_identical(&stages.tree, emb.tree())?;
        input_i.reference.dominance(&stages.tree)?;
        pairs.push((stages, sample_ms));
    }
    let first = &pairs[0].0;
    let mut m = Metrics::default();
    stage_metrics(&mut m, first);
    // Wall times: medians over the traced replays.
    let med =
        |f: &dyn Fn(&Stages) -> f64| median(&pairs.iter().map(|(s, _)| f(s)).collect::<Vec<_>>());
    let (simgraph_ms, oracle_ms, tree_ms, job_ms) = (
        med(&|s| s.simgraph_ms),
        med(&|s| s.oracle_ms),
        med(&|s| s.tree_ms),
        med(&|s| s.job_ms),
    );
    m.set("simgraph.ms", simgraph_ms, "ms");
    m.set("oracle.ms", oracle_ms, "ms");
    m.set("oracle.share", oracle_ms / job_ms, "ratio");
    m.set("tree.ms", tree_ms, "ms");
    let sample_ms = median(&pairs.iter().map(|&(_, ms)| ms).collect::<Vec<_>>());
    m.set("trace.job_ms", job_ms, "ms");
    m.set("trace.overhead_ms", job_ms - sample_ms, "ms");

    let ((_, iterations, work), direct_ms) =
        tracer.time("direct", || le_lists_direct(&input.g, &first.ranks));
    direct_metrics(&mut m, &work, iterations, direct_ms);
    m.set("oracle_over_direct.ms", oracle_ms / direct_ms, "ratio");
    m.set(
        "oracle_over_direct.entries",
        first.work.entries_processed as f64 / work.entries_processed.max(1) as f64,
        "ratio",
    );

    let (artifact, _) = tracer.time("artifact.build", || {
        OracleArtifact::from_parts(
            first.lists.clone(),
            (*first.ranks).clone(),
            first.tree.clone(),
        )
    });
    let artifact = artifact.map_err(|e| Violation(format!("artifact build failed: {e}")))?;
    let (bytes, encode_ms) = tracer.time("artifact.encode", || artifact.encode());
    let (loaded, load_ms) = tracer.time("artifact.load", || {
        Oracle::load(&bytes, ServeConfig::default())
    });
    let oracle = loaded.map_err(|e| Violation(format!("artifact load failed: {e}")))?;
    m.set("artifact.bytes", bytes.len() as f64, "bytes");
    m.set("artifact.encode_ms", encode_ms, "ms");
    m.set("artifact.load_ms", load_ms, "ms");
    // The serving and batch layers on this artifact: `serve` itself is
    // not a listed workload (see README.md).
    serve::trace_artifact(oracle, first.tree.clone(), seed, &mut tracer, &mut m)?;

    let scaling = family
        .scaling_view()
        .iter()
        .map(|&(f, n)| (f.name().to_string(), scaling_row(f, n, seed)))
        .collect();
    Ok(Traced {
        metrics: m,
        tracer,
        scaling,
    })
}
