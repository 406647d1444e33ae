//! The oracle for MBF-like queries on `H` (Section 5 of the paper).
//!
//! By Lemma 5.1 the adjacency matrix of `H` decomposes as
//! `A_H = ⊕_{λ=0}^{Λ} P_λ A_λ^d P_λ`, where `P_λ` projects onto nodes of
//! level `≥ λ` and `A_λ` is `G'`'s adjacency matrix with weights scaled by
//! `(1+ε̂)^{Λ−λ}`. Because filters may be applied at any time without
//! changing the output class (Corollary 2.17, Equation (5.9)), one
//! iteration of any MBF-like algorithm on `H` is simulated as
//!
//! ```text
//! x ← r^V ( ⊕_λ  P_λ (r^V A_λ)^d P_λ x )
//! ```
//!
//! using only `G'`'s `O(m)` edges — `Λ·d ∈ polylog n` cheap iterations
//! instead of one `Ω(n²)` dense product (Theorem 5.2).
//!
//! The inner `(r^V A_λ)^d` loops run on persistent [`MbfEngine`]s, one
//! per level, that carry their buffer `y_λ` across simulated
//! `H`-iterations. Hops after a level's fixpoint are skipped outright —
//! the iteration map is deterministic, so an unchanged state vector can
//! never change again, and the result is bit-identical to running all
//! `d` hops. A level's very first round rewrites `y_λ ← P_λ x`
//! wholesale and sweeps all-dirty. Every later round takes one of two
//! schedules, chosen by what the level's previous round observed; both
//! are **bit-identical** to the all-dirty restart from `P_λ x`
//! (asserted against [`oracle_run_with_schedule`] with `carry_over:
//! false`, which keeps that restart as the reference). All three
//! oracles — owned (this module), arena ([`crate::arena`]) and dense
//! ([`crate::dense`]) — take their schedule from one decision,
//! `LevelCarry::start`, and differ only in how they rewrite slots or
//! rows.
//!
//! **Closure carry-over** (the previous round reached the level's own
//! fixpoint within its `d` hops). Then `y_λ` holds the closure
//! `r(A_λ^* P_λ x_prev)`, and the round keeps it instead of resetting
//! to `P_λ x`: at every `v ∈ C` (the vertices of `x` the previous
//! aggregation changed) with `level(v) ≥ λ` it sets
//! `y_λ[v] ← r(y_λ[v] ⊕ x[v])`, seeds exactly the slots whose state
//! changed, and hops to the fixpoint as usual. Why the result equals
//! the restart's `r(A_λ^d P_λ x)`:
//!
//! - `A^*` is idempotent (`A^* A^* = A^*`; the zero-weight self-loop
//!   `a_vv = 0` makes every power contain the shorter ones), so the
//!   stored closure already covers every path out of `P_λ x_prev`, and
//!   `k` more hops from it give
//!   `r(A^* P_λ x_prev ⊕ A^k P_λ x) = r(A^d P_λ x_prev ⊕ A^k P_λ x)`
//!   (the previous round closed within `d` hops).
//! - `x ≡_r x ⊕ x_prev`: level 0 has `P_0 = I`, and `a_vv = 0` keeps
//!   `x_prev[v]` inside `y_0[v]`, so the aggregation already absorbed
//!   it. Off `C` the rewrite is the identity for the same reason.
//! - `r` is a congruence (Corollary 2.17), so filtering between hops
//!   and folding `y_λ` into the start vector change no class.
//! - IEEE `+` is monotone, so a rank- or distance-domination that holds
//!   at a vertex carries along every path exactly: the classes above
//!   are equalities of `f64` states, not approximations.
//!
//! Together, `d` hops from the carried start give
//! `r(A^d P_λ (x_prev ⊕ x)) = r(A^d P_λ x)`. A vertex outside the closed
//! neighborhood of the seeds recomputes to its current value (its old
//! closure absorbed every neighbor), so the seeded frontier is exact,
//! and the incremental run needs no more hops than the restart. The
//! per-round work now tracks how much of `x` moved: a round in which
//! the aggregation changed a handful of vertices reprocesses only their
//! neighborhoods' wave, not every slot below level `λ`.
//!
//! **Projection diff** (the fallback, for a level whose previous round
//! spent all `d` hops without confirming a fixpoint). The level diffs
//! `P_λ x` against its own buffer, rewrites only the differing slots and
//! seeds exactly those into the engine, on top of the engine's residual
//! frontier (changes from its own last hop that neighbors have not yet
//! absorbed). A vertex outside the closed neighborhood of
//! (residual ∪ changed) recomputes to its current value. The diff is
//! **frontier-sized**: the slots where `y_λ` can disagree with `P_λ x`
//! are contained in `moved_λ ∪ C`, where `moved_λ` is the set of
//! `y`-slots the level touched last round (rewrites plus the engine's
//! change log of its inner hops). By induction over the rounds, a slot
//! outside that set holds one of two values, and neither needs
//! rewriting:
//!
//! - `P_λ x_prev[v] = P_λ x[v]`: the slot already equals the projection.
//! - `c[v]`, for a closure `c = r(A^d P_λ x_old)` the level carried in
//!   an earlier round and has not written the slot since (call these
//!   slots `U`). The carry left the slot unchanged, so `c[v]` already absorbs `P_λ x[v]`. The hops add
//!   `A^d c|_U`, which `A^d c ≡ c ≡ A^d P_λ x_old` dominates, and
//!   `A^d P_λ x` absorbs that because `x ≡ x ⊕ x_old`.
//!
//! So the run reaches the restart's `r(A^d P_λ x)` after its `d` hops;
//! it matches the restart hop for hop when `U` is empty. Only the round after a wholesale rewrite (no moved set) compares
//! every slot once.
//!
//! The aggregation is frontier-sized on both schedules:
//! `x[v] = r(⊕_λ P_λ y_λ[v])` holds for every vertex at the end of a
//! round, so only vertices some level moved this round can aggregate to
//! a new value — the per-round cost of a converging oracle run shrinks
//! with the wave instead of staying `Θ(Λ·n)`.
//!
//! # Parallel structure
//!
//! The `Λ + 1` level contributions `P_λ (r^V A_λ)^d P_λ x` are mutually
//! independent — they all read the same input vector `x` — so the level
//! loop runs **in parallel** (one task per level, each with its own
//! engine and level buffer `y_λ`, all reused across simulated
//! `H`-iterations). The aggregation `⊕_λ P_λ y_λ` then runs parallel
//! over *vertices*, each folding its level contributions in ascending-`λ`
//! order — a fixed combination order independent of the thread count, so
//! oracle outputs are bit-identical for every `MTE_THREADS` (asserted by
//! the determinism suite). Per-level `WorkStats` merge through the same
//! fixed-shape reduction tree.

use crate::engine::{initial_states, EngineStrategy, MbfAlgorithm, MbfEngine};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::{MinPlus, NodeId, Semimodule};
use rayon::prelude::*;

/// Result of an oracle computation: the states `A^h(H)` and the cost of
/// simulating them on `G'`.
#[derive(Clone, Debug)]
pub struct OracleRun<M> {
    /// Final states, indexed by node.
    pub states: Vec<M>,
    /// Number of simulated `H`-iterations.
    pub h_iterations: usize,
    /// Whether a fixpoint on `H` was reached (`h > SPD(H)`).
    pub fixpoint: bool,
    /// Alias of [`fixpoint`](OracleRun::fixpoint) under the run-report
    /// vocabulary: `true` iff the simulation converged within its
    /// iteration budget.
    pub converged: bool,
    /// Total inner `G'`-hops executed across all levels and simulated
    /// iterations (`work.iterations`).
    pub hops: u64,
    /// Work spent, including all inner `G'`-iterations.
    pub work: WorkStats,
}

/// Reusable per-level buffers: one engine (shadow vectors, frontier
/// marks), one projected state vector and the level's carry-over
/// bookkeeping per level task. Once the level has run its first round,
/// `y` holds the level's own `(r^V A_λ)^d P_λ x` from the previous
/// simulated iteration, the baseline the next round starts from.
struct LevelScratch<A: MbfAlgorithm> {
    engine: MbfEngine<A>,
    y: Vec<A::M>,
    carry: LevelCarry,
    /// Scratch: the closure carry-over's `r(y_λ[v] ⊕ x[v])`.
    acc: A::M,
}

/// Reusable buffers for repeated oracle iterations: one [`LevelScratch`]
/// per level, so the independent level tasks can run in parallel while
/// still reusing their heap buffers across simulated `H`-iterations.
struct OracleScratch<A: MbfAlgorithm> {
    strategy: EngineStrategy,
    /// `false` forces the all-dirty wholesale rewrite every round — the
    /// PR 2 reference schedule, kept for ablation/differential testing.
    carry_over: bool,
    levels: Vec<LevelScratch<A>>,
}

impl<A: MbfAlgorithm> OracleScratch<A> {
    fn new(strategy: EngineStrategy, carry_over: bool) -> Self {
        OracleScratch {
            strategy,
            carry_over,
            levels: Vec::new(),
        }
    }

    /// Sizes the per-level buffers for `num_levels` levels of `n` nodes.
    fn ensure(&mut self, num_levels: usize, n: usize) {
        while self.levels.len() < num_levels {
            let mut engine = MbfEngine::new(self.strategy);
            // The change log feeds the frontier-sized diff of the next
            // round: which y-slots did this level's hops move?
            engine.enable_change_log();
            self.levels.push(LevelScratch {
                engine,
                y: Vec::new(),
                carry: LevelCarry::new(),
                acc: A::M::zero(),
            });
        }
        self.levels.truncate(num_levels);
        for level in &mut self.levels {
            if level.y.len() != n {
                level.y.clear();
                level.y.extend((0..n).map(|_| A::M::zero()));
                level.carry = LevelCarry::new();
            }
        }
    }
}

/// How a level sets up its start state for one round (see the module
/// docs for why every choice is bit-identical to the restart).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LevelStart<'a> {
    /// First round, or carry-over disabled: `y_λ ← P_λ x` and an
    /// all-dirty sweep.
    Wholesale,
    /// The level closed last round: keep its closure `y_λ` and fold in
    /// the listed changed `x`-slots, `y_λ[v] ← r(y_λ[v] ⊕ x[v])` for
    /// `level(v) ≥ λ`, seeding the slots that moved.
    Closure(&'a [NodeId]),
    /// Projection diff over every slot: the last round rewrote `y_λ`
    /// wholesale (no moved set), or `x_changed` is unknown.
    FullDiff,
    /// Frontier-sized projection diff: only `moved_λ ∪ x_changed` (the
    /// listed changed `x`-slots) can disagree with `P_λ x`; walk them
    /// with [`LevelCarry::frontier_diff`].
    FrontierDiff(&'a [NodeId]),
}

/// A level's carry-over bookkeeping across simulated `H`-iterations,
/// identical on all three oracles (owned, arena, dense): what the
/// level's last round observed and which `y`-slots it moved.
/// [`LevelCarry::start`] is the one place a round's schedule is chosen;
/// each backend matches on the returned [`LevelStart`] and does its own
/// row or slot work. A fresh value (a new level, a resized scratch, a
/// checkpoint resume) is unprimed and unclosed, so its first round is
/// the wholesale rewrite.
#[derive(Debug)]
pub(crate) struct LevelCarry {
    /// The level has run a round: `y_λ` holds its previous result.
    primed: bool,
    /// The last round's hops reached the level's fixpoint within `d`:
    /// `y_λ` is the closure `r(A_λ^* P_λ x_prev)`.
    closed: bool,
    /// `y`-slots the level changed during its last round — start-state
    /// rewrites plus the engine's inner-hop change log — sorted
    /// ascending, deduplicated. Meaningless while `moved_all`.
    moved: Vec<NodeId>,
    /// The last round rewrote `y_λ` wholesale: the next diff must
    /// examine every slot and the aggregation cannot skip anything.
    moved_all: bool,
    /// This round's start-state rewrite seeds: the backend pushes every
    /// slot it rewrote.
    pub(crate) seeds: Vec<NodeId>,
}

impl LevelCarry {
    pub(crate) fn new() -> Self {
        LevelCarry {
            primed: false,
            closed: false,
            moved: Vec::new(),
            moved_all: true,
            seeds: Vec::new(),
        }
    }

    /// Chooses this round's start schedule from what the last round
    /// observed, and clears `seeds`. `x_changed` is the set of `x`-slots
    /// the previous aggregation changed (`None` = unknown); `carry_over:
    /// false` forces the wholesale restart every round.
    pub(crate) fn start<'a>(
        &mut self,
        carry_over: bool,
        x_changed: Option<&'a [NodeId]>,
    ) -> LevelStart<'a> {
        self.seeds.clear();
        if !carry_over || !self.primed {
            self.primed = true;
            return LevelStart::Wholesale;
        }
        match x_changed {
            Some(changed) if self.closed => LevelStart::Closure(changed),
            Some(changed) if !self.moved_all => LevelStart::FrontierDiff(changed),
            _ => LevelStart::FullDiff,
        }
    }

    /// The [`LevelStart::FrontierDiff`] walk: visits `moved ∪ changed`
    /// in ascending order and seeds every slot `rewrite` rewrote (it
    /// returns `true` iff the slot differed from `P_λ x`).
    pub(crate) fn frontier_diff(
        &mut self,
        changed: &[NodeId],
        mut rewrite: impl FnMut(NodeId) -> bool,
    ) {
        let LevelCarry { moved, seeds, .. } = self;
        for_each_sorted_union(moved, changed, |v| {
            if rewrite(v) {
                seeds.push(v);
            }
        });
    }

    /// Records the round after its hops: whether they `closed` (a hop
    /// changed nothing within `d`), and the moved set — the engine's
    /// inner-hop change log, which `drain_change_log` appends, plus this
    /// round's seeds.
    pub(crate) fn finish(
        &mut self,
        start: LevelStart<'_>,
        closed: bool,
        drain_change_log: impl FnOnce(&mut Vec<NodeId>),
    ) {
        self.closed = closed;
        self.moved.clear();
        drain_change_log(&mut self.moved);
        self.moved_all = start == LevelStart::Wholesale;
        if self.moved_all {
            self.moved.clear();
        } else {
            self.moved.extend_from_slice(&self.seeds);
            self.moved.sort_unstable();
            self.moved.dedup();
        }
    }
}

/// The vertices the aggregation must recompute after a level phase:
/// the sorted union of every level's moved set, or `None` (all of `V`)
/// if some level rewrote wholesale. A skipped vertex re-aggregates to
/// its current value, since none of its fold inputs moved.
pub(crate) fn aggregation_set<'a>(
    levels: impl Iterator<Item = &'a LevelCarry> + Clone,
) -> Option<Vec<NodeId>> {
    if levels.clone().any(|l| l.moved_all) {
        return None;
    }
    let mut union: Vec<NodeId> = levels.flat_map(|l| l.moved.iter().copied()).collect();
    union.sort_unstable();
    union.dedup();
    Some(union)
}

/// Visits the sorted union of two ascending, duplicate-free vertex
/// lists exactly once per vertex, in ascending order. The shared
/// co-walk under the frontier-sized projection diff of all three
/// oracles (owned, arena and dense), kept in one place because its
/// boundary behavior is correctness-critical.
fn for_each_sorted_union(a: &[NodeId], b: &[NodeId], mut f: impl FnMut(NodeId)) {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let v = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    if x == y {
                        j += 1;
                    }
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        f(v);
    }
}

/// The level phase of one simulated `H`-iteration: every level sets up
/// its start state (wholesale projection, closure carry-over, or
/// projection diff — see the module docs) and runs `(r^V A_λ)^d` on its
/// own engine, leaving the result in `level.y` and the set of moved
/// `y`-slots in `level.carry`. `x_changed` is the set of `x`-slots the
/// previous aggregation changed (`None` = unknown, diff everything).
fn level_phase<A>(
    alg: &A,
    sim: &SimulatedGraph,
    x: &[A::M],
    scratch: &mut OracleScratch<A>,
    x_changed: Option<&[NodeId]>,
) -> WorkStats
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let n = sim.augmented().n();
    debug_assert_eq!(n, x.len());
    let lambda_max = sim.levels().lambda();
    scratch.ensure(lambda_max as usize + 1, n);
    let carry_over = scratch.carry_over;
    let zero = A::M::zero();

    // The Λ+1 level contributions are independent: one parallel task per
    // level (`with_min_len(1)`: Λ is small but each task is heavy), each
    // leaving `(r^V A_λ)^d P_λ x` in its own `y` buffer. Per-level work
    // tallies merge through the fixed-shape reduction tree.
    scratch
        .levels
        .par_iter_mut()
        .with_min_len(1)
        .enumerate()
        .map(|(lambda, level)| {
            let lambda = lambda as u32;
            // Fault-injection site: one level task fails (`panic`) or
            // corrupts its level state (`poison_nan`) while the sibling
            // levels keep running.
            match mte_faults::check_for(
                mte_faults::FaultSite::OracleLevelLoop,
                &[
                    mte_faults::FaultKind::Panic,
                    mte_faults::FaultKind::PoisonNan,
                ],
            ) {
                Some(mte_faults::FaultKind::Panic) => {
                    mte_faults::trigger_panic(mte_faults::FaultSite::OracleLevelLoop)
                }
                Some(mte_faults::FaultKind::PoisonNan) => {
                    if let Some(slot) = level.y.first_mut() {
                        slot.poison();
                    }
                }
                _ => {}
            }
            let scale = sim.level_scale(lambda);
            let start = level.carry.start(carry_over, x_changed);
            match start {
                LevelStart::Wholesale => {
                    // First round (or carry-over disabled): y ← P_λ x
                    // wholesale, frontier restarts full. `clone_from`
                    // reuses each slot's heap buffer across iterations.
                    level.y.par_iter_mut().enumerate().for_each(|(v, slot)| {
                        if sim.levels().level(v as NodeId) >= lambda {
                            slot.clone_from(&x[v]);
                        } else {
                            slot.clone_from(&zero);
                        }
                    });
                }
                LevelStart::Closure(changed) => {
                    // Closure carry-over: y_λ[v] ← r(y_λ[v] ⊕ x[v]) on
                    // the changed x-slots of this level; every other slot
                    // already absorbed its x value. The engine's frontier
                    // is empty (the last hop changed nothing), so the
                    // seeds are the whole frontier.
                    let LevelScratch { y, carry, acc, .. } = level;
                    for &v in changed {
                        if sim.levels().level(v) < lambda {
                            continue;
                        }
                        let slot = &mut y[v as usize];
                        acc.clone_from(slot);
                        acc.add_assign(&x[v as usize]);
                        alg.filter(acc);
                        if acc != slot {
                            std::mem::swap(slot, acc);
                            carry.seeds.push(v);
                        }
                    }
                }
                LevelStart::FullDiff => {
                    // Projection diff after a wholesale round: y still
                    // holds this level's previous result, but there is no
                    // moved set to bound the diff — compare every slot
                    // once, rewrite and seed exactly the differing ones.
                    // The changed list collects in ascending vertex order
                    // (chunk-order concatenation), independent of the
                    // thread count.
                    level.carry.seeds = level
                        .y
                        .par_iter_mut()
                        .enumerate()
                        .flat_map_iter(|(v, slot)| {
                            let want = if sim.levels().level(v as NodeId) >= lambda {
                                &x[v]
                            } else {
                                &zero
                            };
                            if slot != want {
                                slot.clone_from(want);
                                Some(v as NodeId)
                            } else {
                                None
                            }
                        })
                        .collect();
                }
                LevelStart::FrontierDiff(changed) => {
                    // Frontier-sized diff: a slot can disagree with the
                    // fresh projection only if this level moved it last
                    // round or the aggregation changed its `x` source —
                    // everything else still equals `P_λ x` and is skipped
                    // without being read.
                    let LevelScratch { y, carry, .. } = level;
                    carry.frontier_diff(changed, |v| {
                        let want = if sim.levels().level(v) >= lambda {
                            &x[v as usize]
                        } else {
                            &zero
                        };
                        let slot = &mut y[v as usize];
                        let differs = slot != want;
                        if differs {
                            slot.clone_from(want);
                        }
                        differs
                    });
                }
            }
            if start == LevelStart::Wholesale {
                level.engine.mark_all_dirty(sim.augmented());
            } else {
                level
                    .engine
                    .mark_dirty(sim.augmented(), level.carry.seeds.iter().copied());
            }
            // y ← (r^V A_λ)^d y : d filtered hops on the scaled G'; once
            // a hop changes nothing the level is at its fixpoint and the
            // remaining hops are identity.
            let mut work = WorkStats::new();
            let mut closed = false;
            for _ in 0..sim.d() {
                let (w, changed) = level.engine.step(alg, sim.augmented(), &mut level.y, scale);
                work += w;
                if !changed {
                    closed = true;
                    break;
                }
            }
            // Record what this round moved, for the next round's diff
            // and this round's aggregation: rewrites plus hop changes.
            level
                .carry
                .finish(start, closed, |moved| level.engine.drain_change_log(moved));
            work
        })
        .reduce(WorkStats::new, |mut a, b| {
            a += b;
            a
        })
}

/// The aggregation phase: `x_v ← r(⊕_λ [level(v) ≥ λ] y_λ[v])` for every
/// vertex in `recompute` (`None` = all of `V`), writing only the slots
/// that actually changed and returning them, sorted ascending. The
/// per-vertex fold runs in ascending-λ order — a fixed combination
/// order independent of the thread count — with the final filter `r^V`
/// fused in. Skipped vertices provably re-aggregate to their current
/// value: `x_v = r(⊕_λ P_λ y_λ[v])` held at the end of the previous
/// round and none of their `y`-inputs moved.
fn aggregate<A>(
    alg: &A,
    sim: &SimulatedGraph,
    levels: &[LevelScratch<A>],
    x: &mut [A::M],
    recompute: Option<&[NodeId]>,
) -> Vec<NodeId>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let fold = |v: NodeId| -> A::M {
        let node_level = sim.levels().level(v);
        let mut acc = A::M::zero();
        for (lambda, level) in levels.iter().enumerate() {
            if node_level >= lambda as u32 {
                acc.add_assign(&level.y[v as usize]);
            }
        }
        alg.filter(&mut acc);
        acc
    };
    let x_ref: &[A::M] = x;
    // Both paths collect `(v, new value)` pairs in ascending vertex
    // order (chunk-order concatenation over an ascending input list).
    let changed: Vec<(NodeId, A::M)> = match recompute {
        None => (0..x.len() as NodeId)
            .into_par_iter()
            .flat_map_iter(|v| {
                let acc = fold(v);
                if acc != x_ref[v as usize] {
                    Some((v, acc))
                } else {
                    None
                }
            })
            .collect(),
        Some(list) => list
            .par_iter()
            .flat_map_iter(|&v| {
                let acc = fold(v);
                if acc != x_ref[v as usize] {
                    Some((v, acc))
                } else {
                    None
                }
            })
            .collect(),
    };
    let ids: Vec<NodeId> = changed.iter().map(|&(v, _)| v).collect();
    for (v, m) in changed {
        x[v as usize] = m;
    }
    ids
}

/// Simulates **one** iteration of `alg` on `H`:
/// `x ← r^V (⊕_λ P_λ (r^V A_λ)^d P_λ x)`.
pub fn oracle_iteration<A>(alg: &A, sim: &SimulatedGraph, x: &[A::M]) -> (Vec<A::M>, WorkStats)
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let mut scratch = OracleScratch::new(EngineStrategy::default(), true);
    let work = level_phase(alg, sim, x, &mut scratch, None);
    let mut next = x.to_vec();
    aggregate(alg, sim, &scratch.levels, &mut next, None);
    (next, work)
}

/// [`oracle_run_to_fixpoint_with`] with the level schedule made explicit:
/// `carry_over: true` (the default everywhere else) carries each level's
/// buffer into the next round — its closure if the level reached its
/// fixpoint, else a diff against the fresh projection — and seeds only
/// the changed vertices; `false` restarts every level all-dirty each
/// round — the reference schedule, kept for ablation and differential
/// testing. Both produce bit-identical states, iteration counts, and
/// fixpoint flags; only the work counters differ.
pub fn oracle_run_with_schedule<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    carry_over: bool,
) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let states = initial_states(alg, sim.augmented().n());
    match oracle_loop(alg, sim, h, strategy, carry_over, states, 0, |_, _| Ok(())) {
        Ok(run) => run,
        Err(e) => unreachable!("no-op round hook cannot fail: {e}"),
    }
}

/// The oracle's fixpoint loop, shared by [`oracle_run_with_schedule`]
/// and the checkpoint-resume drivers: iterates from `states` (already
/// past `executed` simulated iterations) up to `h` total, calling
/// `on_round(round, states)` after every round that changed something.
/// Resuming from a recorded `(states, executed)` pair with fresh
/// scratch is bit-identical to the uninterrupted run: an unprimed level
/// (`closed: false`) rewrites wholesale on its first round, which the
/// carry-over schedules already prove equivalent to carrying on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_loop<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    carry_over: bool,
    mut states: Vec<A::M>,
    mut executed: usize,
    mut on_round: impl FnMut(usize, &[A::M]) -> Result<(), crate::error::RunError>,
) -> Result<OracleRun<A::M>, crate::error::RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let mut scratch = OracleScratch::new(strategy, carry_over);
    let mut work = WorkStats::new();
    let mut fixpoint = false;
    // `x`-slots the previous aggregation changed; `None` = unknown (no
    // previous round), forcing full diffs.
    let mut prev_changed: Option<Vec<NodeId>> = None;
    while executed < h {
        work += level_phase(alg, sim, &states, &mut scratch, prev_changed.as_deref());
        executed += 1;
        // Aggregation can skip every vertex no level moved this round
        // (their fold inputs are unchanged, so recomputation would
        // reproduce the current value bit for bit) — unless some level
        // rewrote wholesale and has no moved set.
        let recompute = aggregation_set(scratch.levels.iter().map(|l| &l.carry));
        let changed = aggregate(alg, sim, &scratch.levels, &mut states, recompute.as_deref());
        if changed.is_empty() {
            fixpoint = true;
            break;
        }
        prev_changed = Some(changed);
        on_round(executed, &states)?;
    }
    Ok(OracleRun {
        states,
        h_iterations: executed,
        fixpoint,
        converged: fixpoint,
        hops: work.iterations,
        work,
    })
}

/// Iterates `alg` on `H` until a fixpoint, capped at `cap` iterations,
/// with the given inner-engine strategy, starting from `r^V x⁽⁰⁾`
/// (Theorem 5.2 (1)). W.h.p. the fixpoint arrives after
/// `SPD(H) ∈ O(log² n)` iterations (Theorems 4.5 and 5.2 (2)).
///
/// The iteration map is deterministic, so a simulated `H`-iteration that
/// changes nothing proves every later iteration is the identity: the run
/// stops there, reports `fixpoint: true`, and `h_iterations` counts the
/// iterations actually executed (including the confirming one) — it may
/// be less than `cap`. The returned states are bit-identical to burning
/// all `cap` iterations, so the capped run *is* `A^cap(H)`.
pub fn oracle_run_to_fixpoint_with<A>(
    alg: &A,
    sim: &SimulatedGraph,
    cap: usize,
    strategy: EngineStrategy,
) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
    A::M: PartialEq,
{
    oracle_run_with_schedule(alg, sim, cap, strategy, true)
}

/// Iterates `alg` on `H` to a fixpoint under the default hybrid engine.
pub fn oracle_run_to_fixpoint<A>(alg: &A, sim: &SimulatedGraph, cap: usize) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
    A::M: PartialEq,
{
    oracle_run_to_fixpoint_with(alg, sim, cap, EngineStrategy::default())
}

/// Guarded [`oracle_run_to_fixpoint_with`]: panics become typed errors,
/// injected faults are audited, final states are sanity-scanned. An
/// exhausted iteration budget is reported as `converged: false`, not an
/// error.
pub fn try_oracle_run_to_fixpoint_with<A>(
    alg: &A,
    sim: &SimulatedGraph,
    cap: usize,
    strategy: EngineStrategy,
) -> Result<(OracleRun<A::M>, crate::error::RunReport), crate::error::RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
    A::M: PartialEq,
{
    let policy = crate::checkpoint::CheckpointPolicy::disabled();
    crate::checkpoint::try_oracle_run_checkpointed_with(alg, sim, cap, strategy, policy, |_| Ok(()))
}

/// Default iteration cap: `SPD(H) ∈ O(log² n)` w.h.p. (Theorem 4.5), with
/// a generous constant; the fixpoint check stops earlier in practice.
pub fn default_iteration_cap(n: usize) -> usize {
    let log = (n.max(2) as f64).log2();
    (6.0 * log * log) as usize + 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
    use crate::engine::run_to_fixpoint;
    use mte_graph::algorithms::shortest_path_diameter;
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Theorem 5.2 ground truth: running APSP through the oracle must
    /// agree exactly with running APSP directly on the explicit `H`.
    #[test]
    fn oracle_apsp_equals_explicit_h_apsp() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = gnm_graph(30, 70, 1.0..6.0, &mut rng);
        let spd = shortest_path_diameter(&g) as usize;
        let sim = SimulatedGraph::without_hopset(&g, spd.max(1), 0.2, &mut rng);
        let h_explicit = sim.explicit_h();

        let alg = SourceDetection::apsp(g.n());
        let via_oracle = oracle_run_to_fixpoint(&alg, &sim, 4 * g.n());
        assert!(via_oracle.fixpoint);
        // The run metadata mirrors the flags it summarizes.
        assert!(via_oracle.converged);
        assert_eq!(via_oracle.hops, via_oracle.work.iterations);
        let via_h = run_to_fixpoint(&alg, &h_explicit, 4 * g.n());
        assert!(via_h.fixpoint);

        for v in 0..g.n() {
            assert!(
                via_oracle.states[v].approx_eq(&via_h.states[v], 1e-9),
                "oracle and explicit H disagree at node {v}:\n{:?}\nvs\n{:?}",
                via_oracle.states[v],
                via_h.states[v]
            );
        }
    }

    #[test]
    fn oracle_single_iteration_matches_h_iteration() {
        // One oracle iteration = one MBF iteration on H (not more).
        let mut rng = StdRng::seed_from_u64(22);
        let g = path_graph(12, 1.0);
        let sim = SimulatedGraph::without_hopset(&g, 11, 0.1, &mut rng);
        let h_explicit = sim.explicit_h();
        let alg = SourceDetection::apsp(g.n());

        let o1 = oracle_run_to_fixpoint(&alg, &sim, 1);
        let d1 = crate::engine::run(&alg, &h_explicit, 1);
        for v in 0..g.n() {
            assert!(
                o1.states[v].approx_eq(&d1.states[v], 1e-9),
                "node {v}: {:?} vs {:?}",
                o1.states[v],
                d1.states[v]
            );
        }
    }

    #[test]
    fn fixpoint_reached_within_cap() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = path_graph(64, 1.0);
        let sim = SimulatedGraph::without_hopset(&g, 63, 0.1, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 0);
        let run = oracle_run_to_fixpoint(&alg, &sim, default_iteration_cap(g.n()));
        assert!(
            run.fixpoint,
            "no fixpoint within {} iterations",
            default_iteration_cap(g.n())
        );
        // SPD(H) ∈ O(log² n): far fewer than the 64 iterations plain MBF
        // would need on this path.
        assert!(
            run.h_iterations < 40,
            "took {} iterations",
            run.h_iterations
        );
        assert!(run.converged);
        // Each H-iteration drives Λ+1 inner level loops, so the total
        // G'-hop count dominates the H-iteration count.
        assert!(run.hops >= run.h_iterations as u64);
    }

    #[test]
    fn fixed_iteration_budget_stops_at_fixpoint() {
        // Regression: `oracle_run_to_fixpoint_with` used to hardcode `fixpoint: false`
        // and burn the whole budget even after the states stopped
        // changing. It must stop at the confirming iteration, report the
        // fixpoint, and still return the exact `A^h(H)` states.
        let mut rng = StdRng::seed_from_u64(25);
        let g = path_graph(32, 1.0);
        let sim = SimulatedGraph::without_hopset(&g, 31, 0.1, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 0);
        let budget = 10_000;
        let run = oracle_run_to_fixpoint(&alg, &sim, budget);
        assert!(run.fixpoint, "fixpoint not reported");
        assert!(
            run.h_iterations < budget,
            "burned all {budget} iterations past the fixpoint"
        );
        let fix = oracle_run_to_fixpoint(&alg, &sim, budget);
        assert_eq!(run.states, fix.states);
        assert_eq!(run.h_iterations, fix.h_iterations);
        assert!(run.converged);
        assert_eq!(run.hops, fix.hops);
        // A budget too small to converge reports honestly.
        let short = oracle_run_to_fixpoint(&alg, &sim, 1);
        assert!(!short.fixpoint);
        assert!(!short.converged);
        assert_eq!(short.h_iterations, 1);
    }

    #[test]
    fn fresh_and_resized_scratch_starts_unclosed() {
        // A resume re-enters the loop on fresh scratch: no level may
        // claim a closure it never computed, so the first round is the
        // wholesale rewrite. A closing round sets the flag; resizing
        // the scratch for another graph clears it again.
        let mut rng = StdRng::seed_from_u64(26);
        let g = gnm_graph(30, 70, 1.0..6.0, &mut rng);
        let d = 3 * (shortest_path_diameter(&g) as usize + 1);
        let sim = SimulatedGraph::without_hopset(&g, d, 0.15, &mut rng);
        let alg = SourceDetection::k_ssp(g.n(), 3);
        let levels = sim.levels().lambda() as usize + 1;
        let mut scratch = OracleScratch::<SourceDetection>::new(EngineStrategy::Frontier, true);
        scratch.ensure(levels, g.n());
        assert!(scratch
            .levels
            .iter()
            .all(|l| !l.carry.closed && !l.carry.primed));
        let x = initial_states(&alg, g.n());
        level_phase(&alg, &sim, &x, &mut scratch, None);
        assert!(scratch.levels.iter().all(|l| l.carry.closed));
        scratch.ensure(levels, g.n() + 1);
        assert!(scratch
            .levels
            .iter()
            .all(|l| !l.carry.closed && !l.carry.primed));
    }

    #[test]
    fn level_start_follows_what_the_last_round_observed() {
        let changed: &[NodeId] = &[2, 5];
        let mut carry = LevelCarry::new();
        // Unprimed: the first round is wholesale, whatever is known.
        assert_eq!(carry.start(true, Some(changed)), LevelStart::Wholesale);
        carry.finish(LevelStart::Wholesale, true, |_| {});
        // Closed: carry the closure, unless `x_changed` is unknown.
        assert_eq!(
            carry.start(true, Some(changed)),
            LevelStart::Closure(changed)
        );
        assert_eq!(carry.start(true, None), LevelStart::FullDiff);
        // Carry-over disabled: the wholesale restart every round.
        assert_eq!(carry.start(false, Some(changed)), LevelStart::Wholesale);
        // Hop-limited after a wholesale round: no moved set, full diff.
        carry.finish(LevelStart::Wholesale, false, |_| {});
        assert_eq!(carry.start(true, Some(changed)), LevelStart::FullDiff);
        // Hop-limited after a diff round: walk moved ∪ changed, where
        // moved is the change log plus the round's seeds.
        carry.seeds.push(7);
        carry.finish(LevelStart::FullDiff, false, |moved| moved.extend([9, 1]));
        assert_eq!(
            carry.start(true, Some(changed)),
            LevelStart::FrontierDiff(changed)
        );
        let mut walked = Vec::new();
        carry.frontier_diff(changed, |v| {
            walked.push(v);
            v == 5
        });
        assert_eq!(walked, [1, 2, 5, 7, 9]);
        assert_eq!(carry.seeds, [5]);
        assert_eq!(aggregation_set([&carry].into_iter()), Some(vec![1, 7, 9]));
    }

    #[test]
    fn oracle_strategies_agree() {
        // Dense and frontier inner engines must produce identical oracle
        // results (the skip is exact, not approximate).
        let mut rng = StdRng::seed_from_u64(24);
        let g = gnm_graph(24, 50, 1.0..5.0, &mut rng);
        let spd = shortest_path_diameter(&g) as usize;
        let sim = SimulatedGraph::without_hopset(&g, spd.max(1), 0.15, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let dense = oracle_run_to_fixpoint_with(&alg, &sim, 4 * g.n(), EngineStrategy::Dense);
        let frontier = oracle_run_to_fixpoint_with(&alg, &sim, 4 * g.n(), EngineStrategy::Frontier);
        assert_eq!(dense.states, frontier.states);
        assert_eq!(dense.h_iterations, frontier.h_iterations);
        assert!(frontier.work.edge_relaxations <= dense.work.edge_relaxations);
        // Convergence metadata is strategy-invariant (hop counts are
        // not: the frontier engine confirms levels with fewer hops).
        assert_eq!(dense.converged, frontier.converged);
        assert!(dense.converged);
    }
}
