//! The engine fixpoint driver, and checkpointed, resumable runs.
//!
//! Every engine fixpoint run — plain, guarded, checkpointed, or resumed,
//! on any backend — is one loop, `drive`: apply `r^V A` until a hop
//! changes nothing (the confirming hop is counted) or the hop cap is
//! reached. What differs between the owned, arena, dense, and switching
//! backends is only how states are stored; a crate-private `Backend`
//! hides that. Each backend has a constructor for a fresh run
//! (`r^V x⁽⁰⁾`, every vertex dirty) and a `resume` constructor that
//! seeds a [`Checkpoint`]:
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
//!   frontier — with the states that differ from `r^V x⁽⁰⁾` assigned in.
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
//! same states, same hop counts, same fixpoint flags — across the
//! owned, arena, dense, and switching backends and every `MTE_THREADS`
//! (asserted by `tests/checkpoint_resume.rs`).
//!
//! The drivers here are *sink-generic*: a [`CheckpointPolicy`] decides
//! **when** to capture, and a caller-supplied closure decides **where**
//! the capture goes — clone into memory, encode through `mte_persist`'s
//! crash-safe snapshot writer, or both. Core never depends on the
//! persistence crate; the dependency points the other way.
//!
//! Resume entry points validate the checkpoint before touching any
//! engine (state count, frontier range, and the node ids the states
//! name): a checkpoint that came from disk is attacker-shaped data, and
//! a malformed one must surface as [`RunError::SnapshotCorrupt`], never
//! a panic. The [`crate::error::Supervisor`] composes these drivers
//! into the recovery ladder.

use crate::arena::{ArenaBackend, ArenaMbfAlgorithm};
use crate::dense::{DenseBackend, DenseMbfAlgorithm, SwitchThresholds, SwitchingEngine};
use crate::engine::{initial_states, EngineStrategy, MbfAlgorithm, MbfRun, OwnedBackend};
use crate::error::{guarded, Degradation, RunError, RunReport};
use crate::oracle::{fresh_levels, oracle_loop, LevelScratch, OracleRun};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::dense::{DenseKernel, DenseState};
use mte_algebra::{DistanceMap, MinPlus, NodeId, Semimodule, Semiring};
use mte_graph::Graph;

/// When the checkpointed drivers capture. `0` disables a trigger; the
/// default is fully disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Engine drivers: capture after every `n`-th hop (never after the
    /// confirming fixpoint hop — a checkpoint always carries the
    /// frontier of a run still in flight).
    pub every_n_hops: u64,
    /// Oracle drivers: capture after every `n`-th simulated
    /// `H`-iteration (the oracle's "level rounds").
    pub every_n_levels: u64,
}

impl CheckpointPolicy {
    /// Never capture.
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Capture after every `n`-th engine hop.
    pub fn every_hops(n: u64) -> Self {
        CheckpointPolicy {
            every_n_hops: n,
            every_n_levels: 0,
        }
    }

    /// Capture after every `n`-th simulated oracle round.
    pub fn every_levels(n: u64) -> Self {
        CheckpointPolicy {
            every_n_hops: 0,
            every_n_levels: n,
        }
    }

    /// `true` iff an engine hop numbered `hop` (1-based) is a capture
    /// point.
    pub fn hop_due(&self, hop: u64) -> bool {
        self.every_n_hops != 0 && hop.is_multiple_of(self.every_n_hops)
    }

    /// `true` iff an oracle round numbered `round` (1-based) is a
    /// capture point.
    pub fn level_due(&self, round: u64) -> bool {
        self.every_n_levels != 0 && round.is_multiple_of(self.every_n_levels)
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

/// Pre-engine validation of a checkpoint against the graph it claims to
/// resume: every failure is a typed [`RunError::SnapshotCorrupt`], so
/// decoded-from-disk checkpoints can never panic an engine.
fn validate_checkpoint<S, M>(ckpt: &Checkpoint<M>, n: usize) -> Result<(), RunError>
where
    S: Semiring,
    M: Semimodule<S>,
{
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
    Ok(())
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
/// hop [`CheckpointPolicy::hop_due`] marks — never after the confirming
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
        if policy.hop_due(iterations as u64) {
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
// Owned backend.
// ---------------------------------------------------------------------

/// Guarded owned-backend fixpoint run with checkpoint capture: the
/// loop of [`crate::engine::try_run_to_fixpoint_with`], calling `sink`
/// at every hop [`CheckpointPolicy::hop_due`] marks. A sink failure
/// (e.g. a snapshot write that could not complete) aborts the run with
/// its error.
pub fn try_run_checkpointed_with<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    policy: CheckpointPolicy,
    sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError> {
    guarded::<A::S, _, _>(|| {
        let backend = OwnedBackend::fresh(alg, g, strategy);
        drive(alg, g, backend, 0, cap, policy, sink)
    })
}

/// Guarded resume of an owned-backend run from a checkpoint: re-enters
/// the fixpoint loop at the recorded hop with exactly the recorded
/// residual frontier. Bit-identical to the uninterrupted run.
pub fn try_resume_run_to_fixpoint_with<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    ckpt: &Checkpoint<A::M>,
) -> Result<(MbfRun<A::M>, RunReport), RunError> {
    validate_checkpoint::<A::S, _>(ckpt, g.n())?;
    guarded::<A::S, _, _>(|| {
        let backend = OwnedBackend::resume(g, strategy, ckpt);
        let policy = CheckpointPolicy::disabled();
        drive(alg, g, backend, ckpt.hop, cap, policy, |_| Ok(()))
    })
}

// ---------------------------------------------------------------------
// Arena backend.
// ---------------------------------------------------------------------

/// Guarded arena-backend fixpoint run with checkpoint capture (cf.
/// [`try_run_checkpointed_with`]). Captures read the pool through the
/// raw span accessor, so they record the true epoch state without
/// consuming `arena_span_read` fault arrivals.
pub fn try_run_checkpointed_arena_with<A: ArenaMbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    policy: CheckpointPolicy,
    sink: impl FnMut(&Checkpoint<DistanceMap>) -> Result<(), RunError>,
) -> Result<(MbfRun<DistanceMap>, RunReport), RunError> {
    guarded::<MinPlus, _, _>(|| {
        let backend = ArenaBackend::fresh(alg, g, strategy);
        drive(alg, g, backend, 0, cap, policy, sink)
    })
}

/// Guarded resume of an arena-backend run from a checkpoint. Resumed
/// **states** are bit-identical to the uninterrupted run's; work
/// counters may differ by the taint-forced merges (see the module
/// docs).
pub fn try_resume_run_to_fixpoint_arena_with<A: ArenaMbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    ckpt: &Checkpoint<DistanceMap>,
) -> Result<(MbfRun<DistanceMap>, RunReport), RunError> {
    validate_checkpoint::<MinPlus, _>(ckpt, g.n())?;
    guarded::<MinPlus, _, _>(|| {
        let backend = ArenaBackend::resume(alg, g, strategy, ckpt);
        let policy = CheckpointPolicy::disabled();
        drive(alg, g, backend, ckpt.hop, cap, policy, |_| Ok(()))
    })
}

// ---------------------------------------------------------------------
// Dense backend.
// ---------------------------------------------------------------------

/// Guarded dense-backend fixpoint run with checkpoint capture (cf.
/// [`crate::dense::try_run_to_fixpoint_dense_with`], including its
/// pre-allocation budget check).
pub fn try_run_checkpointed_dense_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    budget_bytes: Option<u64>,
    policy: CheckpointPolicy,
    sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    guarded::<A::S, _, _>(|| {
        let backend = DenseBackend::fresh(alg, g, strategy, budget_bytes)?;
        drive(alg, g, backend, 0, cap, policy, sink)
    })
}

/// Guarded resume of a dense-backend run from a checkpoint.
/// Bit-identical to the uninterrupted run.
pub fn try_resume_run_to_fixpoint_dense_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    ckpt: &Checkpoint<A::M>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    validate_checkpoint::<A::S, _>(ckpt, g.n())?;
    guarded::<A::S, _, _>(|| {
        let backend = DenseBackend::resume(alg, g, strategy, ckpt);
        let policy = CheckpointPolicy::disabled();
        drive(alg, g, backend, ckpt.hop, cap, policy, |_| Ok(()))
    })
}

// ---------------------------------------------------------------------
// Switching backend.
// ---------------------------------------------------------------------

/// Guarded switching-backend fixpoint run with checkpoint capture (cf.
/// [`crate::dense::try_run_to_fixpoint_switching_with`]). Captures
/// export from whichever representation is active — the two are
/// bit-identical by the engine's conversion contract.
pub fn try_run_checkpointed_switching_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    thresholds: SwitchThresholds,
    policy: CheckpointPolicy,
    sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    guarded::<A::S, _, _>(|| {
        let backend = SwitchingEngine::new(alg, g, strategy, thresholds);
        drive(alg, g, backend, 0, cap, policy, sink)
    })
}

/// Guarded resume of a switching-backend run. The resumed states stay
/// bit-identical: the all-dirty seed only adds recomputations that are
/// provable identities.
pub fn try_resume_run_to_fixpoint_switching_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    thresholds: SwitchThresholds,
    ckpt: &Checkpoint<A::M>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    validate_checkpoint::<A::S, _>(ckpt, g.n())?;
    guarded::<A::S, _, _>(|| {
        let backend = SwitchingEngine::resume(alg, g, strategy, thresholds, ckpt);
        let policy = CheckpointPolicy::disabled();
        drive(alg, g, backend, ckpt.hop, cap, policy, |_| Ok(()))
    })
}

// ---------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------

/// Guarded oracle run with checkpoint capture (cf.
/// [`crate::oracle::try_oracle_run_to_fixpoint_with`]): `sink` fires
/// after every simulated round [`CheckpointPolicy::level_due`] marks,
/// with an empty frontier — the oracle's resume path re-primes its
/// levels wholesale, which the carry-over schedule proves bit-identical
/// to continuing.
pub fn try_oracle_run_checkpointed_with<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(OracleRun<A::M>, RunReport), RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    guarded::<A::S, _, _>(|| {
        let levels = &mut fresh_levels::<A, LevelScratch<A>>(sim, strategy);
        let states = initial_states(alg, sim.augmented().n());
        let run = oracle_loop(alg, sim, h, true, levels, states, 0, |round, states| {
            if policy.level_due(round as u64) {
                sink(&Checkpoint {
                    hop: round as u64,
                    frontier: Vec::new(),
                    states: states.to_vec(),
                })?;
            }
            Ok(())
        })?;
        Ok((run, Vec::new()))
    })
}

/// Guarded resume of an oracle run from a checkpoint: re-enters the
/// simulated-iteration loop at the recorded round with the recorded
/// aggregate states and fresh levels. Bit-identical states and
/// round counts.
pub fn try_resume_oracle_run_with<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    ckpt: &Checkpoint<A::M>,
) -> Result<(OracleRun<A::M>, RunReport), RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    validate_checkpoint::<A::S, _>(ckpt, sim.augmented().n())?;
    guarded::<A::S, _, _>(|| {
        let levels = &mut fresh_levels::<A, LevelScratch<A>>(sim, strategy);
        let states = ckpt.states.clone();
        let hop = ckpt.hop as usize;
        let run = oracle_loop(alg, sim, h, true, levels, states, hop, |_, _| Ok(()))?;
        Ok((run, Vec::new()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
    use crate::engine::run_to_fixpoint_with;
    use mte_algebra::Dist;

    fn fixture() -> Graph {
        // Deterministic small graph with enough hops to checkpoint
        // mid-run.
        mte_graph::generators::path_graph(24, 1.0)
    }

    #[test]
    fn policy_triggers() {
        let p = CheckpointPolicy::every_hops(3);
        assert!(!p.hop_due(1) && !p.hop_due(2) && p.hop_due(3) && p.hop_due(6));
        assert!(!p.level_due(3));
        assert!(!CheckpointPolicy::disabled().hop_due(1));
        let l = CheckpointPolicy::every_levels(2);
        assert!(l.level_due(2) && !l.level_due(3) && !l.hop_due(2));
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
            CheckpointPolicy::every_hops(1),
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
            let (resumed, report) =
                try_resume_run_to_fixpoint_with(&alg, &g, cap, strategy, ckpt).unwrap();
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
            let err =
                try_resume_run_to_fixpoint_with(&alg, &g, g.n(), EngineStrategy::Frontier, &ckpt)
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
            CheckpointPolicy::every_hops(2),
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

    fn run_checkpointed(
        kind: Kind,
        alg: &SourceDetection,
        g: &Graph,
        cap: usize,
        policy: CheckpointPolicy,
        sink: impl FnMut(&Checkpoint<DistanceMap>) -> Result<(), RunError>,
    ) -> (MbfRun<DistanceMap>, RunReport) {
        let s = EngineStrategy::Frontier;
        match kind {
            Kind::Owned => try_run_checkpointed_with(alg, g, cap, s, policy, sink),
            Kind::Arena => try_run_checkpointed_arena_with(alg, g, cap, s, policy, sink),
            Kind::Dense => try_run_checkpointed_dense_with(alg, g, cap, s, None, policy, sink),
            Kind::Switching => {
                try_run_checkpointed_switching_with(alg, g, cap, s, FLIP_EARLY, policy, sink)
            }
        }
        .unwrap()
    }

    fn resume(
        kind: Kind,
        alg: &SourceDetection,
        g: &Graph,
        cap: usize,
        ckpt: &Checkpoint<DistanceMap>,
    ) -> (MbfRun<DistanceMap>, RunReport) {
        let s = EngineStrategy::Frontier;
        match kind {
            Kind::Owned => try_resume_run_to_fixpoint_with(alg, g, cap, s, ckpt),
            Kind::Arena => try_resume_run_to_fixpoint_arena_with(alg, g, cap, s, ckpt),
            Kind::Dense => try_resume_run_to_fixpoint_dense_with(alg, g, cap, s, ckpt),
            Kind::Switching => {
                try_resume_run_to_fixpoint_switching_with(alg, g, cap, s, FLIP_EARLY, ckpt)
            }
        }
        .unwrap()
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

            // every_hops(1): hops 1..iterations-1, never the confirming hop.
            let mut seen = Vec::new();
            let (run, report) = run_checkpointed(
                kind,
                &alg,
                &g,
                g.n() + 1,
                CheckpointPolicy::every_hops(1),
                |c| {
                    seen.push(c.clone());
                    Ok(())
                },
            );
            assert_eq!(run.states, full.states, "{kind:?}");
            assert_eq!(run.iterations, full.iterations, "{kind:?}");
            assert!(report.converged, "{kind:?}");
            let hops: Vec<u64> = seen.iter().map(|c| c.hop).collect();
            assert_eq!(hops, (1..run.iterations as u64).collect::<Vec<_>>());

            // every_hops(2): only the even hops.
            let mut even = Vec::new();
            run_checkpointed(
                kind,
                &alg,
                &g,
                g.n() + 1,
                CheckpointPolicy::every_hops(2),
                |c| {
                    even.push(c.hop);
                    Ok(())
                },
            );
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
        use rand::SeedableRng;
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
        assert_corrupt(
            "owned",
            try_resume_run_to_fixpoint_with(&kssp, &g, n, s, &ckpt),
        );

        let mut rng = StdRng::seed_from_u64(5);
        let le = LeListAlgorithm::new(Arc::new(Ranks::sample(n, &mut rng)));
        let ckpt = bad(initial_states(&le, n));
        assert_corrupt(
            "arena LE",
            try_resume_run_to_fixpoint_arena_with(&le, &g, n, s, &ckpt),
        );

        let apsp = SourceDetection::apsp(n);
        let ckpt = bad(initial_states(&apsp, n));
        assert_corrupt(
            "dense",
            try_resume_run_to_fixpoint_dense_with(&apsp, &g, n, s, &ckpt),
        );
        assert_corrupt(
            "switching",
            try_resume_run_to_fixpoint_switching_with(&apsp, &g, n, s, FLIP_EARLY, &ckpt),
        );

        let sim = SimulatedGraph::without_hopset(&g, 7, 0.2, &mut rng);
        let m = sim.augmented().n();
        let ckpt = Checkpoint {
            hop: 1,
            frontier: Vec::new(),
            states: with_far_entry(initial_states(&kssp, m), m as NodeId + 32),
        };
        assert_corrupt(
            "oracle",
            try_resume_oracle_run_with(&kssp, &sim, n, s, &ckpt),
        );
    }

    #[test]
    fn guarded_dense_drivers_type_a_non_dense_algorithm() {
        // A truncating top-k never advertises dense states: every
        // guarded dense entry point must return the typed error, not
        // unwind through the caller.
        let g = fixture();
        let alg = SourceDetection::k_ssp(g.n(), 3);
        let s = EngineStrategy::Frontier;
        let cap = g.n();
        let ckpt = Checkpoint {
            hop: 0,
            frontier: Vec::new(),
            states: initial_states(&alg, g.n()),
        };
        let results = [
            crate::dense::try_run_to_fixpoint_dense_with(&alg, &g, cap, s, None).map(|_| ()),
            try_run_checkpointed_dense_with(
                &alg,
                &g,
                cap,
                s,
                None,
                CheckpointPolicy::every_hops(1),
                |_| Ok(()),
            )
            .map(|_| ()),
            try_resume_run_to_fixpoint_dense_with(&alg, &g, cap, s, &ckpt).map(|_| ()),
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
