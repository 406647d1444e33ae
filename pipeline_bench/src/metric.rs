//! `metric-apsp`: `approximate_metric` (Theorem 6.1), the user path
//! through the dense-block backend.

use crate::gate::{self, Violation};
use crate::host::peak_rss_mb;
use crate::report::{mean, median, percentile, EndToEnd, Metrics, Outcome};
use crate::trace::Tracer;
use crate::{derive, repeated_setup, sampler_rng, Traced};
use metric_tree_embedding::core::metric::{
    approximate_metric, approximate_metric_on, MetricConfig,
};
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 1000;

/// Calls per run, on the sampler streams `0..CALLS` (see
/// `frt::SAMPLES`); more only while `--seconds` has not yet passed.
const CALLS: usize = 8;

struct Input {
    g: Graph,
    config: MetricConfig,
    /// Exact all-pairs distances.
    exact: Vec<Vec<Dist>>,
}

fn setup(seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(derive(seed, N as u64));
    let g = gnm_graph(N, 3 * N, 1.0..100.0, &mut rng);
    let config = MetricConfig {
        hopset: HopsetConfig::for_scale(g.n(), g.m()),
        ..MetricConfig::default()
    };
    let exact = apsp(&g);
    Input { g, config, exact }
}

/// The Eq. (4.14) factor `(1+ε_hopset)·(1+ε̂)^{Λ+1}` of the simulated
/// graph the call with this RNG builds (rebuilt from a clone, outside
/// the timed call).
fn band_factor(input: &Input, rng: &StdRng) -> f64 {
    let c = &input.config;
    let sim = SimulatedGraph::build(&input.g, &c.hopset, c.eps_hat, &mut rng.clone());
    (1.0 + c.hopset.epsilon) * (1.0 + c.eps_hat).powi(sim.levels().lambda() as i32 + 1)
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, Violation> {
    let (input, setup_s) = repeated_setup(|| setup(seed));
    let start = Instant::now();
    let mut times = Vec::new();
    let (mut means, mut worst, mut peak_mb) = (Vec::new(), 0.0f64, 0.0);
    while times.len() < CALLS || start.elapsed().as_secs_f64() < seconds {
        let mut rng = sampler_rng(times.len());
        let factor = band_factor(&input, &rng);
        let t = Instant::now();
        let approx = black_box(approximate_metric(&input.g, &input.config, &mut rng));
        times.push(t.elapsed().as_secs_f64());
        let (mean_ratio, max_ratio) = gate::metric_band(&input.exact, approx.matrix(), factor)?;
        if means.len() < CALLS {
            means.push(mean_ratio);
            worst = worst.max(max_ratio);
            peak_mb = peak_rss_mb();
        }
    }
    let calls = times.len() as f64;
    let listed: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    println!("call seconds: {}", listed.join(" "));
    let mut report = Metrics::default();
    report.set("metric_s", median(&times), "s");
    report.set("metric_max_s", percentile(&times, 1.0), "s");
    report.set("calls", calls, "count");
    report.set("approx_ratio_max", worst, "ratio");
    report.set("approx_ratio_mean", mean(&means), "ratio");
    report.set("peak_rss_mb", peak_mb, "MB");
    report.set("setup_s", setup_s, "s");
    report.set("error_rate", 0.0, "ratio");
    Ok(Outcome {
        attempted: times.len() as u64,
        failed: 0,
        end_to_end: EndToEnd {
            call_p50_ms: median(&times) * 1e3,
            stretch_mean: mean(&means),
            peak_rss_mb: peak_mb,
            setup_s,
        },
        report,
    })
}

/// Traced run: `SimulatedGraph::build` then `approximate_metric_on`,
/// checked bit-identical to the untraced `approximate_metric` call of
/// the same seed, repeated for `seconds`.
pub fn trace(seed: u64, seconds: f64) -> Result<Traced, Violation> {
    let input = setup(seed);
    let c = &input.config;
    let mut tracer = Tracer::default();
    let start = Instant::now();
    let mut rows: Vec<(f64, f64, f64, f64)> = Vec::new();
    let mut m = Metrics::default();
    while rows.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let i = rows.len();
        let job = tracer.enter("metric");
        let mut rng = sampler_rng(i);
        let (sim, simgraph_ms) = tracer.time("metric.simgraph", || {
            SimulatedGraph::build(&input.g, &c.hopset, c.eps_hat, &mut rng)
        });
        let (replay, oracle_ms) = tracer.time("metric.oracle", || approximate_metric_on(&sim, c));
        let job_ms = tracer.exit(job);
        let t = Instant::now();
        let reference = black_box(approximate_metric(&input.g, c, &mut sampler_rng(i)));
        let call_ms = t.elapsed().as_secs_f64() * 1e3;
        let identical = replay.h_iterations == reference.h_iterations
            && replay.work == reference.work
            && replay
                .matrix()
                .iter()
                .zip(reference.matrix())
                .all(|(a, b)| {
                    a.iter()
                        .zip(b)
                        .all(|(x, y)| x.value().to_bits() == y.value().to_bits())
                });
        if !identical {
            return Err(Violation(format!(
                "traced metric replay {i} differs from approximate_metric"
            )));
        }
        if i == 0 {
            let factor =
                (1.0 + c.hopset.epsilon) * (1.0 + c.eps_hat).powi(sim.levels().lambda() as i32 + 1);
            let (_, max_ratio) = gate::metric_band(&input.exact, replay.matrix(), factor)?;
            m.set("metric.approx_ratio_max", max_ratio, "ratio");
            m.set(
                "simgraph.hopset_edges",
                (sim.augmented().m() - sim.base().m()) as f64,
                "count",
            );
            m.set("simgraph.d", sim.d() as f64, "count");
            m.set("simgraph.lambda", f64::from(sim.levels().lambda()), "count");
            m.set("metric.h_iterations", replay.h_iterations as f64, "count");
            m.set(
                "metric.entries_processed",
                replay.work.entries_processed as f64,
                "count",
            );
            m.set("metric.dense_hops", replay.work.dense_hops as f64, "count");
            m.set(
                "metric.dense_flips",
                replay.work.dense_flips as f64,
                "count",
            );
            m.set(
                "metric.dense_declined",
                replay.work.dense_declined as f64,
                "count",
            );
        }
        rows.push((simgraph_ms, oracle_ms, job_ms, call_ms));
    }
    let col = |f: fn(&(f64, f64, f64, f64)) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
    let (simgraph_ms, oracle_ms, job_ms, call_ms) =
        (col(|r| r.0), col(|r| r.1), col(|r| r.2), col(|r| r.3));
    m.set("simgraph.ms", simgraph_ms, "ms");
    m.set("metric.simgraph_ms", simgraph_ms, "ms");
    m.set("metric.oracle_ms", oracle_ms, "ms");
    m.set("trace.job_ms", job_ms, "ms");
    m.set("trace.overhead_ms", job_ms - call_ms, "ms");
    Ok(Traced {
        metrics: m,
        tracer,
        scaling: Vec::new(),
    })
}
