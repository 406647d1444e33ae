//! Pipeline benchmark: FRT sampling, the approximate metric and the
//! serving oracle, through the library's public API only.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path pipeline_bench/Cargo.toml -- \
//!     --workload frt-gnm --seed 1 --seconds 15 --trace 0
//! cargo run --release --quiet --offline --manifest-path pipeline_bench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set
//! (see `README.md`). A failed correctness check prints
//! `"correct": false` and exits with code 1.

mod frt;
mod gate;
mod host;
mod metric;
mod report;
mod serve;
mod trace;

use gate::Violation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{median, result_line, Metrics, Outcome};
use std::time::Instant;
use trace::Tracer;

/// Reference Dijkstra sources for the dominance / stretch pairs.
pub const REFERENCE_SOURCES: usize = 16;

/// Set-up repeats per run: at least `SETUP_MIN_REPS`, and more (up to
/// `SETUP_MAX_REPS`) while their total is under `SETUP_MIN_SECONDS`;
/// `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["frt-gnm", "metric-apsp"];

/// Runnable by name but not listed (see `README.md`): `frt-geo` (the
/// same pipeline on the road-like family) would not fit the time budget
/// at a steady sample count, and `serve`'s point latency drifts with
/// the host by more than any bound the benchmark may set. `frt-gnm`'s
/// traced run records the scaling view of the one and the serving
/// layers of the other.
const EXTRA_WORKLOADS: [&str; 2] = ["frt-geo", "serve"];

/// End-to-end metrics (`--trace 0`), the same set on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("call_p50_ms", "ms"),
    ("stretch_mean", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not run
/// reports 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("simgraph.ms", "ms"),
    ("simgraph.hopset_edges", "count"),
    ("simgraph.d", "count"),
    ("simgraph.lambda", "count"),
    ("oracle.ms", "ms"),
    ("oracle.share", "ratio"),
    ("oracle.h_iterations", "count"),
    ("oracle.iterations", "count"),
    ("oracle.entries_processed", "count"),
    ("oracle.edge_relaxations", "count"),
    ("oracle.touched_vertices", "count"),
    ("oracle.bytes_copied", "bytes"),
    ("oracle.alloc_count", "count"),
    ("oracle.arena_bytes", "bytes"),
    ("oracle.rss_delta_mb", "MB"),
    ("le_list.max_len", "count"),
    ("le_list.mean_len", "count"),
    ("le_list.max_len_over_ln_n", "ratio"),
    ("tree.ms", "ms"),
    ("tree.nodes", "count"),
    ("tree.levels", "count"),
    ("direct.ms", "ms"),
    ("direct.iterations", "count"),
    ("direct.entries_processed", "count"),
    ("direct.bytes_copied", "bytes"),
    ("oracle_over_direct.ms", "ratio"),
    ("oracle_over_direct.entries", "ratio"),
    ("metric.simgraph_ms", "ms"),
    ("metric.oracle_ms", "ms"),
    ("metric.h_iterations", "count"),
    ("metric.entries_processed", "count"),
    ("metric.dense_hops", "count"),
    ("metric.dense_flips", "count"),
    ("metric.dense_declined", "count"),
    ("metric.approx_ratio_max", "ratio"),
    ("artifact.bytes", "bytes"),
    ("artifact.encode_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("serve.rung.cache_hit", "ratio"),
    ("serve.rung.tree_lca", "ratio"),
    ("serve.rung.list_intersection", "ratio"),
    ("serve.rung.truncated", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.work_p50", "count"),
    ("serve.work_p99", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("batch.ms.k1", "ms"),
    ("batch.ms.k16", "ms"),
    ("batch.ms.k256", "ms"),
    ("batch.work.k1", "count"),
    ("batch.work.k16", "count"),
    ("batch.work.k256", "count"),
    ("batch.failed.k1", "count"),
    ("batch.failed.k16", "count"),
    ("batch.failed.k256", "count"),
    ("batch.error_rate", "ratio"),
    ("pool.threads", "count"),
    ("rss.after_simgraph_mb", "MB"),
    ("rss.after_oracle_mb", "MB"),
    ("rss.after_tree_mb", "MB"),
    ("trace.overhead_ms", "ms"),
    ("trace.job_ms", "ms"),
];

/// The result of a traced run.
pub struct Traced {
    pub metrics: Metrics,
    pub tracer: Tracer,
    /// Rows of the scaling view, labelled by graph family
    /// (diagnostics, not gated).
    pub scaling: Vec<(String, Metrics)>,
}

/// SplitMix64 of `seed ^ tag`: independent derived seeds per input.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z =
        (seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG of a run's `i`-th call into a randomized algorithm (hop-set
/// hubs, levels, ranks, `β`). It does not depend on `--seed`: the seed
/// picks the inputs (graph, query stream), and every run replays the
/// same sampler streams on them, so the spread across seeds measures
/// the inputs and the host rather than the sampler's own variance,
/// which a median of a few calls cannot average away.
pub fn sampler_rng(i: usize) -> StdRng {
    StdRng::seed_from_u64(derive(0x5A3F_1E00, i as u64))
}

/// Runs the set-up repeatedly (see `SETUP_MIN_REPS`); returns the last
/// result and the median wall seconds.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) && !EXTRA_WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or {EXTRA_WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Some(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

fn run(args: &Args) -> Result<Outcome, Violation> {
    match args.workload.as_str() {
        "frt-gnm" => frt::run(frt::Family::Gnm, args.seed, args.seconds),
        "frt-geo" => frt::run(frt::Family::Geo, args.seed, args.seconds),
        "metric-apsp" => metric::run(args.seed, args.seconds),
        "serve" => serve::run(args.seed, args.seconds),
        other => unreachable!("workload {other} validated by parse_args"),
    }
}

fn trace(args: &Args) -> Result<Traced, Violation> {
    match args.workload.as_str() {
        "frt-gnm" => frt::trace(frt::Family::Gnm, args.seed, args.seconds),
        "frt-geo" => frt::trace(frt::Family::Geo, args.seed, args.seconds),
        "metric-apsp" => metric::trace(args.seed, args.seconds),
        "serve" => serve::trace(args.seed, args.seconds),
        other => unreachable!("workload {other} validated by parse_args"),
    }
}

/// Every per-layer metric, zero unless the workload's traced run set it.
fn per_layer(measured: &Metrics) -> Metrics {
    for name in measured.names() {
        assert!(
            PER_LAYER.iter().any(|&(listed, _)| listed == name),
            "traced metric {name} is not in PER_LAYER"
        );
    }
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        out.set(name, measured.get(name).unwrap_or(0.0), unit);
    }
    out.set("pool.threads", host::pool_threads() as f64, "count");
    out
}

/// Writes the spans, the scaling view and the host context to
/// `pipeline_bench/out/` (relative to the working directory).
fn write_trace(args: &Args, traced: &Traced) {
    let dir = std::path::Path::new("pipeline_bench/out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let scaling: Vec<String> = traced
        .scaling
        .iter()
        .map(|(family, row)| {
            format!(
                "{{\"family\": \"{family}\", \"metrics\": {}}}",
                row.to_json()
            )
        })
        .collect();
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {},\n\"scaling\": [\n{}\n],\n\"spans\": {}}}\n",
        args.workload,
        args.seed,
        host::context_json(),
        scaling.join(",\n"),
        traced.tracer.to_json()
    );
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn print_scaling(rows: &[(String, Metrics)]) {
    const COLUMNS: [&str; 12] = [
        "n",
        "m",
        "simgraph.hopset_edges",
        "simgraph.ms",
        "oracle.ms",
        "oracle.entries_processed",
        "oracle.bytes_copied",
        "tree.ms",
        "direct.ms",
        "oracle_over_direct.ms",
        "le_list.max_len",
        "rss.after_oracle_mb",
    ];
    println!("scaling view (one traced replay per size)");
    println!("  family  {}", COLUMNS.join("  "));
    for (family, row) in rows {
        let cells: Vec<String> = COLUMNS
            .iter()
            .map(|c| format!("{:.4}", row.get(c).unwrap_or(f64::NAN)))
            .collect();
        println!("  {family}  {}", cells.join("  "));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => match gate::self_test() {
            Ok(()) => {
                println!("self-test passed: every check fires on a wrong answer");
                return;
            }
            Err(e) => {
                eprintln!("self-test FAILED: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("pipeline-bench: {e}");
            eprintln!(
                "usage: --workload <{}|{}> --seed <n> --seconds <s> --trace <0|1> | --self-test",
                WORKLOADS.join("|"),
                EXTRA_WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("host {}", host::context_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        trace(&args).map(|traced| {
            traced.tracer.print_self_times();
            if !traced.scaling.is_empty() {
                print_scaling(&traced.scaling);
            }
            write_trace(&args, &traced);
            result_line(true, 1, 0, &per_layer(&traced.metrics))
        })
    } else {
        run(&args).map(|outcome| {
            outcome.report.print("workload figures");
            result_line(
                true,
                outcome.attempted,
                outcome.failed,
                &outcome.end_to_end.metrics(),
            )
        })
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(violation) => {
            eprintln!("{violation}");
            println!("{}", result_line(false, 1, 1, &Metrics::default()));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and the metrics (with units) this program emits.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let field = |entry: &str, key: &str| -> Option<String> {
            let rest = &entry[entry.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let entries = |section: &str| -> Vec<(String, Option<String>)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            body[..body.find(']').expect("section closes")]
                .split('{')
                .skip(1)
                .map(|e| (field(e, "name").expect("named entry"), field(e, "unit")))
                .collect()
        };
        let listed = |metrics: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            metrics
                .iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(entries("end_to_end"), listed(&END_TO_END));
        assert_eq!(entries("per_layer"), listed(&PER_LAYER));
        let workloads: Vec<(String, Option<String>)> =
            WORKLOADS.iter().map(|w| (w.to_string(), None)).collect();
        assert_eq!(entries("workloads"), workloads);
    }

    #[test]
    fn derived_seeds_differ() {
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
        assert_eq!(derive(5, 9), derive(5, 9));
    }
}
