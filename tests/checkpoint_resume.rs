//! Checkpoint/resume differential suite (PR 8 tentpole): a run
//! interrupted at *any* hop and resumed from its checkpoint is
//! **bit-identical** to the uninterrupted run — same states, same hop
//! counts, same fixpoint flags — on every backend (owned, arena, dense,
//! switching, oracle), at every thread count, and whether the
//! checkpoint stayed in memory or roundtripped through the crash-safe
//! snapshot store. The recovery-ladder variants of these assertions
//! (resume after an injected fault) live in `tests/fault_harness.rs`.

use metric_tree_embedding::core::arena::{
    run_to_fixpoint_arena_with, ArenaLevel, ArenaMbfAlgorithm,
};
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::checkpoint::{
    try_oracle_run_checkpointed_with, try_run_checkpointed_arena_with,
    try_run_checkpointed_dense_with, try_run_checkpointed_switching_with,
    try_run_checkpointed_with, Checkpoint, CheckpointPolicy,
};
use metric_tree_embedding::core::dense::{DenseLevel, SwitchThresholds};
use metric_tree_embedding::core::engine::{run_to_fixpoint_with, EngineStrategy};
use metric_tree_embedding::core::frt::le_list::{LeListAlgorithm, Ranks};
use metric_tree_embedding::core::oracle::{oracle_run_to_fixpoint_with, LevelScratch, OracleRun};
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::core::{RunError, RunReport};
use metric_tree_embedding::graph::algorithms::shortest_path_diameter;
use metric_tree_embedding::persist::{SnapshotReader, SnapshotWriter};
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::sync::Mutex;

/// Runs `f` on a dedicated pool of the given total parallelism — the
/// `MTE_THREADS` sweep without process-global state.
fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build cannot fail")
        .install(f)
}

const THREADS: [usize; 2] = [1, 4];

fn fixture_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(0xC4E0);
    gnm_graph(70, 170, 1.0..9.0, &mut rng)
}

/// A sink that records nothing.
fn discard<M>(_: &Checkpoint<M>) -> Result<(), RunError> {
    Ok(())
}

const OFF: CheckpointPolicy = CheckpointPolicy { every_n: 0 };

/// Collects a checkpoint after every hop of a checkpointed run via the
/// given driver, panicking if the run itself fails.
fn capture_all<M, R>(run: impl FnOnce(&Mutex<Vec<Checkpoint<M>>>) -> R) -> (R, Vec<Checkpoint<M>>) {
    let checkpoints = Mutex::new(Vec::new());
    let result = run(&checkpoints);
    (result, checkpoints.into_inner().unwrap())
}

// ---------------------------------------------------------------------
// Owned backend.
// ---------------------------------------------------------------------

#[test]
fn owned_every_checkpoint_resumes_bit_identically_across_threads() {
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    let mut per_thread_states = Vec::new();
    for threads in THREADS {
        let (g, alg) = (&g, &alg);
        let states = with_threads(threads, move || {
            let reference = run_to_fixpoint_with(alg, g, cap, strategy);
            let ((run, _), checkpoints) = capture_all(|sink| {
                try_run_checkpointed_with(
                    alg,
                    g,
                    cap,
                    strategy,
                    None,
                    CheckpointPolicy::every(1),
                    |c| {
                        sink.lock().unwrap().push(c.clone());
                        Ok(())
                    },
                )
                .unwrap()
            });
            assert_eq!(run.states, reference.states);
            assert!(!checkpoints.is_empty(), "run too short to checkpoint");
            for ckpt in &checkpoints {
                let from = Some(ckpt);
                let (resumed, report) =
                    try_run_checkpointed_with(alg, g, cap, strategy, from, OFF, discard).unwrap();
                assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
                assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                assert_eq!(resumed.fixpoint, reference.fixpoint, "hop {}", ckpt.hop);
                assert!(report.converged);
            }
            reference.states
        });
        per_thread_states.push(states);
    }
    assert_eq!(
        per_thread_states[0], per_thread_states[1],
        "thread counts disagree"
    );
}

// ---------------------------------------------------------------------
// Arena backend (ranked and unranked stores).
// ---------------------------------------------------------------------

#[test]
fn arena_every_checkpoint_resumes_bit_identically_across_threads() {
    let g = fixture_graph();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0xC4E1)));
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    // k-SSP exercises the unranked pool, the LE lists the rank column.
    let kssp = SourceDetection::k_ssp(g.n(), 4);
    let lelist = LeListAlgorithm::new(Arc::clone(&ranks));
    for threads in THREADS {
        let (g, kssp, lelist) = (&g, &kssp, &lelist);
        with_threads(threads, move || {
            {
                let reference = run_to_fixpoint_arena_with(kssp, g, cap, strategy);
                let (_, checkpoints) = capture_all(|sink| {
                    try_run_checkpointed_arena_with(
                        kssp,
                        g,
                        cap,
                        strategy,
                        None,
                        CheckpointPolicy::every(1),
                        |c| {
                            sink.lock().unwrap().push(c.clone());
                            Ok(())
                        },
                    )
                    .unwrap()
                });
                assert!(!checkpoints.is_empty());
                for ckpt in &checkpoints {
                    let from = Some(ckpt);
                    let (resumed, _) =
                        try_run_checkpointed_arena_with(kssp, g, cap, strategy, from, OFF, discard)
                            .unwrap();
                    assert_eq!(resumed.states, reference.states, "k-SSP hop {}", ckpt.hop);
                    assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                    assert_eq!(resumed.fixpoint, reference.fixpoint);
                }
            }
            {
                let reference = run_to_fixpoint_arena_with(lelist, g, cap, strategy);
                let (_, checkpoints) = capture_all(|sink| {
                    try_run_checkpointed_arena_with(
                        lelist,
                        g,
                        cap,
                        strategy,
                        None,
                        CheckpointPolicy::every(2),
                        |c| {
                            sink.lock().unwrap().push(c.clone());
                            Ok(())
                        },
                    )
                    .unwrap()
                });
                assert!(!checkpoints.is_empty());
                for ckpt in &checkpoints {
                    let from = Some(ckpt);
                    let (resumed, _) = try_run_checkpointed_arena_with(
                        lelist, g, cap, strategy, from, OFF, discard,
                    )
                    .unwrap();
                    assert_eq!(resumed.states, reference.states, "LE hop {}", ckpt.hop);
                    assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                    assert_eq!(resumed.fixpoint, reference.fixpoint);
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// Dense and switching backends.
// ---------------------------------------------------------------------

#[test]
fn dense_every_checkpoint_resumes_bit_identically_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xC4E2);
    let g = gnm_graph(40, 100, 1.0..7.0, &mut rng);
    let alg = SourceDetection::apsp(g.n());
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    for threads in THREADS {
        let (g, alg) = (&g, &alg);
        with_threads(threads, move || {
            let ((reference, _), checkpoints) = capture_all(|sink| {
                try_run_checkpointed_dense_with(
                    alg,
                    g,
                    cap,
                    strategy,
                    None,
                    None,
                    CheckpointPolicy::every(1),
                    |c| {
                        sink.lock().unwrap().push(c.clone());
                        Ok(())
                    },
                )
                .unwrap()
            });
            assert!(!checkpoints.is_empty());
            for ckpt in &checkpoints {
                let from = Some(ckpt);
                let (resumed, _) = try_run_checkpointed_dense_with(
                    alg, g, cap, strategy, None, from, OFF, discard,
                )
                .unwrap();
                assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
                assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                assert_eq!(resumed.fixpoint, reference.fixpoint);
            }
        });
    }
}

#[test]
fn switching_every_checkpoint_resumes_bit_identically_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xC4E3);
    let g = gnm_graph(40, 100, 1.0..7.0, &mut rng);
    let alg = SourceDetection::apsp(g.n());
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    // Aggressive thresholds so the run actually flips representation
    // mid-flight — checkpoints land on both sides of the switch.
    let thresholds = SwitchThresholds {
        row_density: 0.1,
        saturation: 0.1,
        revert: 0.01,
        budget_bytes: None,
    };
    for threads in THREADS {
        let (g, alg) = (&g, &alg);
        with_threads(threads, move || {
            let ((reference, _), checkpoints) = capture_all(|sink| {
                try_run_checkpointed_switching_with(
                    alg,
                    g,
                    cap,
                    strategy,
                    thresholds,
                    None,
                    CheckpointPolicy::every(1),
                    |c| {
                        sink.lock().unwrap().push(c.clone());
                        Ok(())
                    },
                )
                .unwrap()
            });
            assert!(!checkpoints.is_empty());
            for ckpt in &checkpoints {
                let (resumed, _) = try_run_checkpointed_switching_with(
                    alg,
                    g,
                    cap,
                    strategy,
                    thresholds,
                    Some(ckpt),
                    OFF,
                    discard,
                )
                .unwrap();
                assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
                assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                assert_eq!(resumed.fixpoint, reference.fixpoint);
            }
        });
    }
}

// ---------------------------------------------------------------------
// Oracle, on every lane.
// ---------------------------------------------------------------------

type Sink<'s> = &'s mut dyn FnMut(&Checkpoint<DistanceMap>) -> Result<(), RunError>;
type OracleDriver<'a> = Box<
    dyn Fn(
            Option<&Checkpoint<DistanceMap>>,
            CheckpointPolicy,
            Sink,
        ) -> Result<(OracleRun<DistanceMap>, RunReport), RunError>
        + Sync
        + 'a,
>;

/// The guarded oracle driver on one lane, as a closure of
/// `(from, policy, sink)`, and the uninterrupted owned-lane run of the
/// same algorithm it must reproduce.
struct OracleLane<'a> {
    name: &'static str,
    reference: OracleRun<DistanceMap>,
    run: OracleDriver<'a>,
}

/// The owned lane and the arena lane (the FRT path's) running `alg`, and
/// the dense lane (the metric path's) running APSP.
fn oracle_lanes<'a, A: ArenaMbfAlgorithm>(
    alg: &'a A,
    sim: &'a SimulatedGraph,
    cap: usize,
    strategy: EngineStrategy,
) -> Vec<OracleLane<'a>> {
    let apsp = SourceDetection::apsp(sim.augmented().n());
    let reference = oracle_run_to_fixpoint_with::<_, LevelScratch<_>>(alg, sim, cap, strategy);
    let apsp_reference =
        oracle_run_to_fixpoint_with::<_, LevelScratch<_>>(&apsp, sim, cap, strategy);
    vec![
        OracleLane {
            name: "owned",
            reference: reference.clone(),
            run: Box::new(move |from, policy, sink| {
                try_oracle_run_checkpointed_with::<_, LevelScratch<_>>(
                    alg, sim, cap, strategy, from, policy, sink,
                )
            }),
        },
        OracleLane {
            name: "arena",
            reference,
            run: Box::new(move |from, policy, sink| {
                try_oracle_run_checkpointed_with::<_, ArenaLevel>(
                    alg, sim, cap, strategy, from, policy, sink,
                )
            }),
        },
        OracleLane {
            name: "dense",
            reference: apsp_reference,
            run: Box::new(move |from, policy, sink| {
                try_oracle_run_checkpointed_with::<_, DenseLevel<_>>(
                    &apsp, sim, cap, strategy, from, policy, sink,
                )
            }),
        },
    ]
}

/// A checkpoint after every round of `lane`'s fresh run.
fn every_round(lane: &OracleLane) -> Vec<Checkpoint<DistanceMap>> {
    let (_, checkpoints) = capture_all(|sink| {
        let mut push = |c: &Checkpoint<DistanceMap>| {
            sink.lock().unwrap().push(c.clone());
            Ok(())
        };
        (lane.run)(None, CheckpointPolicy::every(1), &mut push).unwrap()
    });
    checkpoints
}

#[test]
fn oracle_every_checkpoint_resumes_bit_identically_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xC4E4);
    let g = gnm_graph(60, 150, 1.0..6.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 16, 0.15, &mut rng);
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = 4 * g.n();
    for lane in &oracle_lanes(&alg, &sim, cap, EngineStrategy::default()) {
        for threads in THREADS {
            with_threads(threads, move || {
                let checkpoints = every_round(lane);
                assert!(
                    !checkpoints.is_empty(),
                    "{} lane: oracle run too short to checkpoint",
                    lane.name
                );
                for ckpt in &checkpoints {
                    let (resumed, report) = (lane.run)(Some(ckpt), OFF, &mut discard).unwrap();
                    let at = format!("{} lane, {threads} threads, round {}", lane.name, ckpt.hop);
                    let reference = &lane.reference;
                    assert_eq!(resumed.states, reference.states, "{at}");
                    assert_eq!(resumed.h_iterations, reference.h_iterations, "{at}");
                    assert_eq!(resumed.fixpoint, reference.fixpoint, "{at}");
                    assert_eq!(report.converged, reference.fixpoint, "{at}");
                }
            });
        }
    }
}

/// Closure carry-over: with `d` above every level's convergence the
/// levels close in every round and carry their closures forward. A
/// checkpoint holds only the aggregate states, so a resume after the
/// levels have closed starts on fresh level scratch — unclosed and
/// unprimed — and its first round is the wholesale rewrite: every
/// level's first hop sweeps all `n` vertices. The resumed run must
/// still be bit-identical to the uninterrupted one, on every lane.
#[test]
fn oracle_resumes_bit_identically_after_levels_closed() {
    let mut rng = StdRng::seed_from_u64(0xC4E5);
    let g = gnm_graph(80, 200, 1.0..6.0, &mut rng);
    // A level's hops settle within SPD(G') + 1.
    let d = 3 * (shortest_path_diameter(&g) as usize + 1);
    let sim = SimulatedGraph::without_hopset(&g, d, 0.15, &mut rng);
    let alg = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));
    let cap = 4 * g.n();
    let sweep = (u64::from(sim.levels().lambda()) + 1) * g.n() as u64;
    for lane in &oracle_lanes(&alg, &sim, cap, EngineStrategy::Frontier) {
        for threads in THREADS {
            with_threads(threads, move || {
                // Round 1 primes (and closes) the levels; from round 2 on
                // they carry closures.
                let checkpoints = every_round(lane);
                let late: Vec<_> = checkpoints.iter().filter(|c| c.hop >= 2).collect();
                assert!(
                    !late.is_empty(),
                    "{} lane: no checkpoint after the levels closed",
                    lane.name
                );
                for ckpt in late {
                    let (resumed, report) = (lane.run)(Some(ckpt), OFF, &mut discard).unwrap();
                    let at = format!("{} lane, {threads} threads, round {}", lane.name, ckpt.hop);
                    let reference = &lane.reference;
                    assert_eq!(resumed.states, reference.states, "{at}");
                    assert_eq!(resumed.h_iterations, reference.h_iterations, "{at}");
                    assert_eq!(resumed.fixpoint, reference.fixpoint, "{at}");
                    assert_eq!(report.converged, reference.fixpoint, "{at}");
                    assert!(
                        resumed.work.touched_vertices >= sweep,
                        "{at}: first resumed round was not a wholesale rewrite"
                    );
                }
            });
        }
    }
}

// ---------------------------------------------------------------------
// Through the snapshot store: a checkpoint that went to disk and back
// resumes exactly like the in-memory one.
// ---------------------------------------------------------------------

#[test]
fn persist_roundtripped_checkpoints_resume_bit_identically() {
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    let reference = run_to_fixpoint_with(&alg, &g, cap, strategy);
    let (_, checkpoints) = capture_all(|sink| {
        try_run_checkpointed_with(
            &alg,
            &g,
            cap,
            strategy,
            None,
            CheckpointPolicy::every(1),
            |c| {
                sink.lock().unwrap().push(c.clone());
                Ok(())
            },
        )
        .unwrap()
    });
    assert!(!checkpoints.is_empty());
    for ckpt in &checkpoints {
        let image = SnapshotWriter::new().put_checkpoint(ckpt).encode();
        let decoded = SnapshotReader::decode(&image)
            .expect("snapshot decodes")
            .checkpoint()
            .expect("checkpoint section decodes");
        assert_eq!(&decoded, ckpt, "roundtrip changed the checkpoint");
        let from = Some(&decoded);
        let (resumed, _) =
            try_run_checkpointed_with(&alg, &g, cap, strategy, from, OFF, discard).unwrap();
        assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
        assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
        assert_eq!(resumed.fixpoint, reference.fixpoint);
    }
}

/// A crash after *writing* but before the run finished: the snapshot on
/// disk is the only artifact. Resume from the file alone.
#[test]
fn resume_from_disk_after_simulated_crash() {
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    let reference = run_to_fixpoint_with(&alg, &g, cap, strategy);

    let dir = std::env::temp_dir().join(format!("mte_resume_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.mte");

    // The "crashing" process: checkpoint to disk every hop, abandon the
    // run by erroring out of the sink after the second capture.
    let mut captures = 0;
    let aborted = try_run_checkpointed_with(
        &alg,
        &g,
        cap,
        strategy,
        None,
        CheckpointPolicy::every(1),
        |c| {
            SnapshotWriter::new()
                .put_checkpoint(c)
                .write_to(&path)
                .map_err(|e| RunError::SnapshotCorrupt {
                    detail: e.to_string(),
                })?;
            captures += 1;
            if captures == 2 {
                return Err(RunError::Panicked {
                    message: "simulated crash".to_string(),
                });
            }
            Ok(())
        },
    );
    assert!(aborted.is_err(), "the simulated crash must abort the run");

    // The "recovering" process: all it has is the file.
    let ckpt = SnapshotReader::read_from(&path)
        .expect("snapshot survives the crash")
        .checkpoint()
        .expect("checkpoint section intact");
    assert_eq!(ckpt.hop, 2);
    let (resumed, _) =
        try_run_checkpointed_with(&alg, &g, cap, strategy, Some(&ckpt), OFF, discard).unwrap();
    assert_eq!(resumed.states, reference.states);
    assert_eq!(resumed.iterations, reference.iterations);
    assert_eq!(resumed.fixpoint, reference.fixpoint);
    std::fs::remove_dir_all(&dir).unwrap();
}
