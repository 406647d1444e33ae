//! The engine fixpoint driver, and checkpointed, resumable runs.
//!
//! Every engine fixpoint run — plain or guarded, fresh or resumed, on
//! any backend — is one loop, `drive`: apply `r^V A` until a hop changes
//! nothing (the confirming hop is counted) or the hop cap is reached.
//! What differs between the owned, arena, dense, and switching backends
//! is only how states are stored; a crate-private `Backend` hides that.
//!
//! Each backend has **one guarded driver** here, and so has the
//! `H`-oracle on each of its lanes:
//!
//! | backend | driver |
//! |---|---|
//! | owned | [`try_run_checkpointed_with`] |
//! | arena | [`try_run_checkpointed_arena_with`] |
//! | dense | [`try_run_checkpointed_dense_with`] |
//! | switching | [`try_run_checkpointed_switching_with`] |
//! | oracle, lane `L` | [`try_oracle_run_checkpointed_with`] |
//!
//! A driver takes where to start (`from`), when to capture (a
//! [`CheckpointPolicy`]), and where captures go (a sink). `from: None`
//! starts fresh from `r^V x⁽⁰⁾`, every vertex dirty; a fail-fast run is
//! `None` with [`CheckpointPolicy::disabled`] and a no-op sink.
//! `from: Some(ckpt)` resumes at `ckpt.hop` from a seeded backend:
//!
//! - owned: the states, and exactly the recorded frontier (an empty
//!   primed schedule plus `mark_dirty`);
//! - arena: the states bulk-loaded into a fresh epoch pool, and exactly
//!   the recorded frontier, tainted — the taint forces full merges but
//!   never changes states, so work counters may differ from the
//!   uninterrupted run's;
//! - dense: the states converted into a fresh block, and exactly the
//!   recorded frontier;
//! - switching: every vertex dirty — a sound *superset* of the recorded
//!   frontier — with the states that differ from `r^V x⁽⁰⁾` assigned in;
//! - oracle: the aggregate states on fresh, unprimed levels, whose first
//!   round rewrites wholesale (see [`crate::oracle`]).
//!
//! A resumed run honours its policy and sink like a fresh one, so a
//! retry can keep capturing and a later failure resumes from a later
//! checkpoint.
//!
//! A checkpoint is the pair the fixpoint loop actually needs to
//! continue: the **states** `x` after some hop, and the **residual
//! frontier** — the vertices whose last change their neighbors have not
//! absorbed yet. By skip-exactness (the argument the frontier schedule
//! is built on: a vertex outside the closed neighborhood of the
//! frontier provably recomputes to its current value bit for bit), any
//! *superset* of the residual frontier is a sound resume seed, and the
//! exact recorded frontier reproduces the uninterrupted run's schedule.
//! Resumed runs are therefore **bit-identical** to uninterrupted ones —
//! same states, same hop counts, same fixpoint flags — across every
//! backend, oracle lane and `MTE_THREADS` (asserted by
//! `tests/checkpoint_resume.rs`).
//!
//! The sink decides where a capture goes — clone into memory, encode
//! through `mte_persist`'s crash-safe snapshot writer, or both. Core
//! never depends on the persistence crate; the dependency points the
//! other way.
//!
//! A driver validates `from` before touching any engine (state count,
//! frontier range, and the node ids the states name): a checkpoint that
//! came from disk is attacker-shaped data, and a malformed one must
//! surface as [`RunError::SnapshotCorrupt`], never a panic. The
//! [`crate::error::Supervisor`] composes these drivers into the
//! recovery ladder.

use crate::arena::{ArenaBackend, ArenaMbfAlgorithm};
use crate::dense::{DenseBackend, DenseMbfAlgorithm, SwitchThresholds, SwitchingEngine};
use crate::engine::{initial_states, EngineStrategy, MbfAlgorithm, MbfRun, OwnedBackend};
use crate::error::{guarded, Degradation, RunError, RunReport};
use crate::oracle::{fresh_levels, oracle_loop, Lane, OracleRun, ScratchPool};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::dense::{DenseKernel, DenseState};
use mte_algebra::{DistanceMap, MinPlus, NodeId, Semimodule, Semiring};
use mte_graph::Graph;

/// When the drivers capture: after every `n`-th step — an engine hop,
/// or a simulated oracle round, the unit [`Checkpoint::hop`] counts.
/// The default is disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// The capture cadence `n`; `0` never captures. Never after an
    /// engine's confirming fixpoint hop or an oracle's confirming round
    /// — a checkpoint always carries a run still in flight.
    pub every_n: u64,
}

impl CheckpointPolicy {
    /// Never capture.
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Capture after every `n`-th hop or round.
    pub fn every(n: u64) -> Self {
        CheckpointPolicy { every_n: n }
    }

    /// `true` iff step `step` (1-based) is a capture point.
    pub fn due(&self, step: u64) -> bool {
        self.every_n != 0 && step.is_multiple_of(self.every_n)
    }
}

/// A resumable capture of a run mid-flight. The oracle records an empty
/// frontier: its resume path re-primes every level wholesale, which the
/// carry-over schedule proves bit-identical to continuing.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint<M> {
    /// Hops (engine) or simulated rounds (oracle) already executed.
    pub hop: u64,
    /// The residual frontier at capture time: ascending, no duplicates.
    pub frontier: Vec<NodeId>,
    /// The full state vector after hop `hop`.
    pub states: Vec<M>,
}

/// The hop a run starts at: `0`, or `from`'s hop once it validates
/// against the graph it claims to resume. Every failure is a typed
/// [`RunError::SnapshotCorrupt`], so decoded-from-disk checkpoints can
/// never panic an engine.
fn start_hop<S, M>(from: Option<&Checkpoint<M>>, n: usize) -> Result<u64, RunError>
where
    S: Semiring,
    M: Semimodule<S>,
{
    let Some(ckpt) = from else {
        return Ok(0);
    };
    if ckpt.states.len() != n {
        return Err(RunError::SnapshotCorrupt {
            detail: format!(
                "checkpoint holds {} states for a graph of {n} vertices",
                ckpt.states.len()
            ),
        });
    }
    if let Some(v) = ckpt.states.iter().position(|x| !x.coordinates_below(n)) {
        return Err(RunError::SnapshotCorrupt {
            detail: format!("state of vertex {v} names a node out of range for {n} vertices"),
        });
    }
    let mut prev: Option<NodeId> = None;
    for &v in &ckpt.frontier {
        if (v as usize) >= n {
            return Err(RunError::SnapshotCorrupt {
                detail: format!("frontier vertex {v} out of range for {n} vertices"),
            });
        }
        if prev.is_some_and(|p| p >= v) {
            return Err(RunError::SnapshotCorrupt {
                detail: "frontier not strictly ascending".to_string(),
            });
        }
        prev = Some(v);
    }
    Ok(ckpt.hop)
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

/// One engine and the state store it steps: the part of a fixpoint run
/// that differs between the owned, arena, dense, and switching
/// backends. [`drive`] is the rest.
pub(crate) trait Backend<A: MbfAlgorithm> {
    /// One hop `x ← r^V A x`: the work spent and whether any state
    /// changed.
    fn hop(&mut self, alg: &A, g: &Graph) -> (WorkStats, bool);

    /// The residual frontier: ascending, no duplicates.
    fn frontier(&self) -> &[NodeId];

    /// The current states, for a checkpoint.
    fn capture(&self) -> Vec<A::M>;

    /// Work charged before the first hop.
    fn setup_work(&self) -> WorkStats {
        WorkStats::new()
    }

    /// The final states and the degradations taken.
    fn finish(self) -> (Vec<A::M>, Vec<Degradation>);
}

/// The engine fixpoint loop, shared by every backend and entry point:
/// hops from `start_hop` until a hop changes nothing (that confirming
/// hop is counted) or `cap` hops in total, calling `sink` after every
/// hop [`CheckpointPolicy::due`] marks — never after the confirming
/// hop. A sink failure (e.g. a snapshot write that could not complete)
/// aborts the run with its error.
pub(crate) fn drive<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    mut backend: impl Backend<A>,
    start_hop: u64,
    cap: usize,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, Vec<Degradation>), RunError> {
    let mut work = backend.setup_work();
    let mut iterations = start_hop as usize;
    let mut fixpoint = false;
    while iterations < cap {
        let (w, changed) = backend.hop(alg, g);
        work += w;
        iterations += 1;
        if !changed {
            fixpoint = true;
            break;
        }
        if policy.due(iterations as u64) {
            sink(&Checkpoint {
                hop: iterations as u64,
                frontier: backend.frontier().to_vec(),
                states: backend.capture(),
            })?;
        }
    }
    let (states, degradations) = backend.finish();
    let run = MbfRun {
        states,
        iterations,
        fixpoint,
        work,
    };
    Ok((run, degradations))
}

// ---------------------------------------------------------------------
// The guarded drivers.
// ---------------------------------------------------------------------

/// The guarded owned-backend run: fresh (`from: None`) or resumed from
/// a checkpoint, capturing at every hop [`CheckpointPolicy::due`] marks.
/// Panics become typed errors, injected faults are audited, final
/// states are sanity-scanned. A run that exhausts `cap` without
/// reaching the fixpoint is *not* an error: its [`RunReport`] says
/// `converged: false`.
pub fn try_run_checkpointed_with<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    from: Option<&Checkpoint<A::M>>,
    policy: CheckpointPolicy,
    sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError> {
    let start = start_hop::<A::S, _>(from, g.n())?;
    guarded::<A::S, _, _>(|| {
        let backend = OwnedBackend::new(alg, g, strategy, from);
        drive(alg, g, backend, start, cap, policy, sink)
    })
}

/// The guarded arena-backend run (cf. [`try_run_checkpointed_with`]).
/// Captures read the pool through the raw span accessor, so they record
/// the true epoch state without consuming `arena_span_read` fault
/// arrivals. A resumed run's **states** are bit-identical to the
/// uninterrupted run's; work counters may differ by the taint-forced
/// merges (see the module docs).
pub fn try_run_checkpointed_arena_with<A: ArenaMbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    from: Option<&Checkpoint<DistanceMap>>,
    policy: CheckpointPolicy,
    sink: impl FnMut(&Checkpoint<DistanceMap>) -> Result<(), RunError>,
) -> Result<(MbfRun<DistanceMap>, RunReport), RunError> {
    let start = start_hop::<MinPlus, _>(from, g.n())?;
    guarded::<MinPlus, _, _>(|| {
        let backend = ArenaBackend::new(alg, g, strategy, from);
        drive(alg, g, backend, start, cap, policy, sink)
    })
}

/// The guarded dense-backend run (cf. [`try_run_checkpointed_with`]).
/// Unlike the switching engine — which *degrades* to sparse — a
/// dense-only run that cannot afford its `n × n` block has no fallback:
/// a block over `budget_bytes` is a typed
/// [`RunError::DenseBudgetExceeded`], checked before any allocation.
#[allow(clippy::too_many_arguments)]
pub fn try_run_checkpointed_dense_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    budget_bytes: Option<u64>,
    from: Option<&Checkpoint<A::M>>,
    policy: CheckpointPolicy,
    sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    let start = start_hop::<A::S, _>(from, g.n())?;
    guarded::<A::S, _, _>(|| {
        let backend = DenseBackend::new(alg, g, strategy, budget_bytes, from)?;
        drive(alg, g, backend, start, cap, policy, sink)
    })
}

/// The guarded switching-backend run (cf. [`try_run_checkpointed_with`]).
/// Captures export from whichever representation is active — the two
/// are bit-identical by the engine's conversion contract — and
/// degradations the engine took (declined dense flips) surface in the
/// [`RunReport`] instead of failing the run.
#[allow(clippy::too_many_arguments)]
pub fn try_run_checkpointed_switching_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    thresholds: SwitchThresholds,
    from: Option<&Checkpoint<A::M>>,
    policy: CheckpointPolicy,
    sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    let start = start_hop::<A::S, _>(from, g.n())?;
    guarded::<A::S, _, _>(|| {
        let backend = SwitchingEngine::new(alg, g, strategy, thresholds).resume(alg, g, from);
        drive(alg, g, backend, start, cap, policy, sink)
    })
}

/// The guarded `H`-oracle run on lane `L` (the owned
/// [`crate::oracle::LevelScratch`], the arena [`crate::arena::ArenaLevel`]
/// of the FRT path, or the dense [`crate::dense::DenseLevel`] of the
/// metric path): fresh from `r^V x⁽⁰⁾`, or resumed at a checkpoint's
/// round from its aggregate states on fresh levels. `sink` fires after
/// every simulated round [`CheckpointPolicy::due`] marks, with an empty
/// frontier — the resume path re-primes its levels wholesale, which the
/// carry-over schedule proves bit-identical to continuing. An exhausted
/// iteration budget is `converged: false`, not an error.
pub fn try_oracle_run_checkpointed_with<A, L>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    from: Option<&Checkpoint<A::M>>,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(OracleRun<A::M>, RunReport), RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    let n = sim.augmented().n();
    let start = start_hop::<A::S, _>(from, n)?;
    guarded::<A::S, _, _>(|| {
        let levels = &mut fresh_levels::<A, L>(alg, sim, strategy);
        let states = from.map_or_else(|| initial_states(alg, n), |c| c.states.clone());
        let run = oracle_loop(
            alg,
            sim,
            h,
            true,
            levels,
            &ScratchPool::new(),
            states,
            start as usize,
            |round, x| {
                if policy.due(round as u64) {
                    sink(&Checkpoint {
                        hop: round as u64,
                        frontier: Vec::new(),
                        states: L::capture(x),
                    })?;
                }
                Ok(())
            },
        )?;
        Ok((run, Vec::new()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
    use crate::dense::DenseLevel;
    use crate::engine::run_to_fixpoint_with;
    use crate::oracle::LevelScratch;
    use mte_algebra::Dist;
    use rand::SeedableRng;

    fn fixture() -> Graph {
        // Deterministic small graph with enough hops to checkpoint
        // mid-run.
        mte_graph::generators::path_graph(24, 1.0)
    }

    #[test]
    fn policy_triggers() {
        let p = CheckpointPolicy::every(3);
        assert!(!p.due(1) && !p.due(2) && p.due(3) && p.due(6) && !p.due(7));
        assert!(!CheckpointPolicy::disabled().due(1));
        assert_eq!(CheckpointPolicy::disabled(), CheckpointPolicy::every(0));
        // The cadence engines count in hops (the driver contract test
        // below) counts oracle rounds: every second round, never the
        // confirming one.
        let (g, alg) = (fixture(), SourceDetection::sssp(24, 0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sim = SimulatedGraph::without_hopset(&g, 4, 0.2, &mut rng);
        let mut rounds = Vec::new();
        let (run, _) = try_oracle_run_checkpointed_with::<_, LevelScratch<_>>(
            &alg,
            &sim,
            100,
            EngineStrategy::Frontier,
            None,
            CheckpointPolicy::every(2),
            |c| {
                rounds.push(c.hop);
                Ok(())
            },
        )
        .unwrap();
        let want: Vec<u64> = (1..run.h_iterations as u64)
            .filter(|r| r % 2 == 0)
            .collect();
        assert!(!want.is_empty(), "{} rounds", run.h_iterations);
        assert_eq!(rounds, want);
    }

    #[test]
    fn every_checkpoint_resumes_bit_identically() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let cap = g.n() + 1;
        let strategy = EngineStrategy::Frontier;
        let reference = run_to_fixpoint_with(&alg, &g, cap, strategy);
        let mut checkpoints = Vec::new();
        let (run, _) = try_run_checkpointed_with(
            &alg,
            &g,
            cap,
            strategy,
            None,
            CheckpointPolicy::every(1),
            |c| {
                checkpoints.push(c.clone());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(run.states, reference.states);
        assert_eq!(run.iterations, reference.iterations);
        assert!(!checkpoints.is_empty());
        for ckpt in &checkpoints {
            let (resumed, report) = resume(Kind::Owned, &alg, &g, cap, ckpt);
            assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
            assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
            assert_eq!(resumed.fixpoint, reference.fixpoint);
            assert!(report.converged);
        }
    }

    #[test]
    fn malformed_checkpoints_are_typed_errors() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let short = Checkpoint {
            hop: 1,
            frontier: vec![0],
            states: initial_states(&alg, g.n() - 1),
        };
        let wild = Checkpoint {
            hop: 1,
            frontier: vec![g.n() as NodeId + 7],
            states: initial_states(&alg, g.n()),
        };
        let unsorted = Checkpoint {
            hop: 1,
            frontier: vec![3, 3],
            states: initial_states(&alg, g.n()),
        };
        for ckpt in [short, wild, unsorted] {
            let s = EngineStrategy::Frontier;
            let off = CheckpointPolicy::disabled();
            let err = try_run_checkpointed_with(&alg, &g, g.n(), s, Some(&ckpt), off, |_| Ok(()))
                .unwrap_err();
            assert!(
                matches!(err, RunError::SnapshotCorrupt { .. }),
                "wrong error: {err:?}"
            );
        }
    }

    #[test]
    fn failing_sink_aborts_the_run_with_its_error() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let err = try_run_checkpointed_with(
            &alg,
            &g,
            g.n() + 1,
            EngineStrategy::Frontier,
            None,
            CheckpointPolicy::every(2),
            |_| {
                Err(RunError::SnapshotCorrupt {
                    detail: "sink refused".to_string(),
                })
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::SnapshotCorrupt {
                detail: "sink refused".to_string()
            }
        );
    }

    /// The four engine backends the shared driver runs, for the
    /// table-driven contract test.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Owned,
        Arena,
        Dense,
        Switching,
    }

    const KINDS: [Kind; 4] = [Kind::Owned, Kind::Arena, Kind::Dense, Kind::Switching];

    /// Aggressive thresholds, so the switching run captures from matrix
    /// mode too.
    const FLIP_EARLY: SwitchThresholds = SwitchThresholds {
        row_density: 0.2,
        saturation: 0.2,
        revert: 0.01,
        budget_bytes: None,
    };

    /// `kind`'s guarded driver from `from`, unwrapped.
    fn try_run(
        kind: Kind,
        alg: &SourceDetection,
        g: &Graph,
        cap: usize,
        from: Option<&Checkpoint<DistanceMap>>,
        policy: CheckpointPolicy,
        sink: impl FnMut(&Checkpoint<DistanceMap>) -> Result<(), RunError>,
    ) -> Result<(MbfRun<DistanceMap>, RunReport), RunError> {
        let s = EngineStrategy::Frontier;
        match kind {
            Kind::Owned => try_run_checkpointed_with(alg, g, cap, s, from, policy, sink),
            Kind::Arena => try_run_checkpointed_arena_with(alg, g, cap, s, from, policy, sink),
            Kind::Dense => {
                try_run_checkpointed_dense_with(alg, g, cap, s, None, from, policy, sink)
            }
            Kind::Switching => {
                try_run_checkpointed_switching_with(alg, g, cap, s, FLIP_EARLY, from, policy, sink)
            }
        }
    }

    fn run_checkpointed(
        kind: Kind,
        alg: &SourceDetection,
        g: &Graph,
        cap: usize,
        policy: CheckpointPolicy,
        sink: impl FnMut(&Checkpoint<DistanceMap>) -> Result<(), RunError>,
    ) -> (MbfRun<DistanceMap>, RunReport) {
        try_run(kind, alg, g, cap, None, policy, sink).unwrap()
    }

    /// Resumes `kind` from `ckpt` with capture disabled.
    fn resume(
        kind: Kind,
        alg: &SourceDetection,
        g: &Graph,
        cap: usize,
        ckpt: &Checkpoint<DistanceMap>,
    ) -> (MbfRun<DistanceMap>, RunReport) {
        let off = CheckpointPolicy::disabled();
        try_run(kind, alg, g, cap, Some(ckpt), off, |_| Ok(())).unwrap()
    }

    #[test]
    fn driver_contract_holds_on_every_backend() {
        let g = fixture();
        let alg = SourceDetection::apsp(g.n());
        let full = run_to_fixpoint_with(&alg, &g, g.n() + 1, EngineStrategy::Frontier);
        assert!(full.fixpoint && full.iterations > 4);
        for kind in KINDS {
            let never = |_: &Checkpoint<DistanceMap>| -> Result<(), RunError> {
                panic!("{kind:?}: disabled policy captured")
            };

            // cap = 0: no hop, not converged.
            let (run, report) =
                run_checkpointed(kind, &alg, &g, 0, CheckpointPolicy::disabled(), never);
            assert_eq!((run.iterations, run.fixpoint), (0, false), "{kind:?}");
            assert_eq!((report.hops, report.converged), (0, false), "{kind:?}");

            // A cap below the fixpoint: exactly `cap` hops, not converged.
            let cap = full.iterations / 2;
            let (run, report) =
                run_checkpointed(kind, &alg, &g, cap, CheckpointPolicy::disabled(), never);
            assert_eq!((run.iterations, run.fixpoint), (cap, false), "{kind:?}");
            assert_eq!((report.hops, report.converged), (cap as u64, false));

            // every(1): hops 1..iterations-1, never the confirming hop.
            let mut seen = Vec::new();
            let (run, report) =
                run_checkpointed(kind, &alg, &g, g.n() + 1, CheckpointPolicy::every(1), |c| {
                    seen.push(c.clone());
                    Ok(())
                });
            assert_eq!(run.states, full.states, "{kind:?}");
            assert_eq!(run.iterations, full.iterations, "{kind:?}");
            assert!(report.converged, "{kind:?}");
            let hops: Vec<u64> = seen.iter().map(|c| c.hop).collect();
            assert_eq!(hops, (1..run.iterations as u64).collect::<Vec<_>>());

            // every(2): only the even hops.
            let mut even = Vec::new();
            run_checkpointed(kind, &alg, &g, g.n() + 1, CheckpointPolicy::every(2), |c| {
                even.push(c.hop);
                Ok(())
            });
            let want: Vec<u64> = (1..run.iterations as u64).filter(|h| h % 2 == 0).collect();
            assert_eq!(even, want, "{kind:?}");

            // Resuming at hop == cap runs no hop and returns the
            // checkpoint's states.
            let ckpt = &seen[cap - 1];
            assert_eq!(ckpt.hop, cap as u64);
            let (resumed, report) = resume(kind, &alg, &g, cap, ckpt);
            assert_eq!(resumed.states, ckpt.states, "{kind:?}");
            assert_eq!((resumed.iterations, resumed.fixpoint), (cap, false));
            assert_eq!(resumed.work.iterations, 0, "{kind:?}");
            assert!(!report.converged);

            // A resumed run keeps capturing under its policy, from the
            // hop after the one it resumed at.
            let mut later = Vec::new();
            let every1 = CheckpointPolicy::every(1);
            let (resumed, _) = try_run(kind, &alg, &g, g.n() + 1, Some(ckpt), every1, |c| {
                later.push(c.clone());
                Ok(())
            })
            .unwrap();
            assert_eq!(resumed.states, full.states, "{kind:?}");
            assert_eq!(later, seen[cap..], "{kind:?}");
        }
    }

    /// `states` with vertex 2's state naming node `far`, which is out of
    /// range for the graph.
    fn with_far_entry(mut states: Vec<DistanceMap>, far: NodeId) -> Vec<DistanceMap> {
        states[2] = DistanceMap::from_entries(vec![(2, Dist::ZERO), (far, Dist::new(1.0))]);
        states
    }

    fn assert_corrupt<T: std::fmt::Debug>(what: &str, result: Result<T, RunError>) {
        match result {
            Err(RunError::SnapshotCorrupt { .. }) => {}
            other => panic!("{what}: expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_naming_an_out_of_range_node_is_corrupt_on_every_backend() {
        use crate::frt::le_list::{LeListAlgorithm, Ranks};
        use rand::rngs::StdRng;
        use std::sync::Arc;

        let g = mte_graph::generators::path_graph(8, 1.0);
        let n = g.n();
        let s = EngineStrategy::Frontier;
        let bad = |states| Checkpoint {
            hop: 1,
            frontier: vec![2],
            states: with_far_entry(states, 40),
        };

        let kssp = SourceDetection::k_ssp(n, 2);
        let ckpt = bad(initial_states(&kssp, n));
        let off = CheckpointPolicy::disabled();
        let ok = |_: &Checkpoint<DistanceMap>| Ok(());
        let from = Some(&ckpt);
        assert_corrupt(
            "owned",
            try_run_checkpointed_with(&kssp, &g, n, s, from, off, ok),
        );

        let mut rng = StdRng::seed_from_u64(5);
        let le = LeListAlgorithm::new(Arc::new(Ranks::sample(n, &mut rng)));
        let ckpt = bad(initial_states(&le, n));
        let from = Some(&ckpt);
        assert_corrupt(
            "arena LE",
            try_run_checkpointed_arena_with(&le, &g, n, s, from, off, ok),
        );

        let apsp = SourceDetection::apsp(n);
        let ckpt = bad(initial_states(&apsp, n));
        let from = Some(&ckpt);
        assert_corrupt(
            "dense",
            try_run_checkpointed_dense_with(&apsp, &g, n, s, None, from, off, ok),
        );
        assert_corrupt(
            "switching",
            try_run_checkpointed_switching_with(&apsp, &g, n, s, FLIP_EARLY, from, off, ok),
        );

        let sim = SimulatedGraph::without_hopset(&g, 7, 0.2, &mut rng);
        let m = sim.augmented().n();
        let ckpt = Checkpoint {
            hop: 1,
            frontier: Vec::new(),
            states: with_far_entry(initial_states(&kssp, m), m as NodeId + 32),
        };
        let from = Some(&ckpt);
        assert_corrupt(
            "oracle",
            try_oracle_run_checkpointed_with::<_, LevelScratch<_>>(
                &kssp, &sim, n, s, from, off, ok,
            ),
        );
    }

    #[test]
    fn guarded_dense_drivers_type_a_non_dense_algorithm() {
        // A truncating top-k never advertises dense states: every
        // guarded dense entry point — fresh, resumed, and the dense
        // oracle lane — must return the typed error, not unwind through
        // the caller.
        let g = fixture();
        let alg = SourceDetection::k_ssp(g.n(), 3);
        let s = EngineStrategy::Frontier;
        let cap = g.n();
        let ckpt = Checkpoint {
            hop: 0,
            frontier: Vec::new(),
            states: initial_states(&alg, g.n()),
        };
        let every1 = CheckpointPolicy::every(1);
        let ok = |_: &Checkpoint<DistanceMap>| Ok(());
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sim = SimulatedGraph::without_hopset(&g, 4, 0.2, &mut rng);
        let results = [
            try_run_checkpointed_dense_with(&alg, &g, cap, s, None, None, every1, ok).map(|_| ()),
            try_run_checkpointed_dense_with(&alg, &g, cap, s, None, Some(&ckpt), every1, ok)
                .map(|_| ()),
            try_oracle_run_checkpointed_with::<_, DenseLevel<_>>(
                &alg, &sim, cap, s, None, every1, ok,
            )
            .map(|_| ()),
        ];
        for result in results {
            assert!(
                matches!(result, Err(RunError::Panicked { .. })),
                "{result:?}"
            );
        }
    }

    #[test]
    fn disabled_policy_never_calls_the_sink() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let mut calls = 0;
        let (run, _) = try_run_checkpointed_with(
            &alg,
            &g,
            g.n() + 1,
            EngineStrategy::Frontier,
            None,
            CheckpointPolicy::disabled(),
            |_| {
                calls += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(calls, 0);
        assert!(run.fixpoint);
    }
}
