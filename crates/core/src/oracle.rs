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
//! One loop, `oracle_loop`, runs every backend: the round schedule, the
//! level fan-out, each level's `d`-hop loop, the aggregation and the
//! fixpoint test. A backend supplies only a per-level **lane**: the
//! buffer `y_λ` and the engine that hops it, plus the type of the
//! hop-lifetime scratch its hops write (the arena lane's chunk append
//! regions, the dense lane's `n × k` shadow rows). Lanes differ only in
//! storage — a `Vec<M>` ([`LevelScratch`]), an epoch-pool lane
//! ([`crate::arena::ArenaLevel`], the FRT path), or dense rows
//! ([`crate::dense::DenseLevel`], the metric path) — and the lane is the
//! type parameter `L` of [`oracle_run_with_schedule`],
//! [`oracle_run_to_fixpoint_with`] and the guarded, checkpointed
//! [`crate::checkpoint::try_oracle_run_checkpointed_with`]. The lane
//! trait is sealed: the three lane types are its only implementors.
//!
//! A lane's engine carries `y_λ` across simulated `H`-iterations. Hops
//! after a level's fixpoint are skipped outright — the iteration map is
//! deterministic, so an unchanged state vector can never change again,
//! and the result is bit-identical to running all `d` hops. A level's very first round rewrites `y_λ ← P_λ x`
//! wholesale and sweeps all-dirty. Every later round takes one of two
//! schedules, chosen by `LevelCarry::start` from what the level's
//! previous round observed; both are **bit-identical** to the all-dirty
//! restart from `P_λ x` (asserted against [`oracle_run_with_schedule`]
//! with `carry_over: false`, which keeps that restart as the reference).
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
//! lane, reused across simulated `H`-iterations). A hop's scratch is
//! not part of a lane: each level task checks one out of the run's
//! `ScratchPool` at its start and gives it back at its end, so a run
//! keeps at most one scratch per worker thread instead of one per level,
//! and since no hop reads what an earlier hop left in its scratch, which
//! scratch a level gets changes no output. The aggregation
//! `⊕_λ P_λ y_λ` then runs parallel over *vertices*, each folding its
//! level contributions in ascending-`λ` order — a fixed combination
//! order independent of the thread count, so oracle outputs are
//! bit-identical for every `MTE_THREADS` (asserted by the determinism
//! suite). Per-level `WorkStats` merge through the same fixed-shape
//! reduction tree.

use crate::arena::storage_delta;
use crate::engine::{initial_states, EngineStrategy, MbfAlgorithm, MbfEngine};
use crate::error::RunError;
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::store::StoreStats;
use mte_algebra::{MinPlus, NodeId, Semimodule};
use mte_graph::Graph;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

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
    /// Work spent, including all inner `G'`-iterations
    /// (`work.iterations` counts them across all levels).
    pub work: WorkStats,
}

/// The sealed lane trait: `pub`, so the lane types can stand in the
/// public oracle entry points' bounds, in a private module, so no other
/// crate can name or implement it.
mod sealed {
    use super::*;

    /// One level's buffer `y_λ` and the engine that hops it: all that
    /// differs between the owned, arena and dense oracles.
    /// [`oracle_loop`] is the rest.
    pub trait Lane<A: MbfAlgorithm>: Send + Sync + Sized {
        /// The aggregate `x`, as the backend stores it, converting from
        /// and to the plain states.
        type X: From<Vec<A::M>> + Into<Vec<A::M>> + Sync;
        /// A changed `x[v]`, staged by the fold until the round commits.
        type Staged: Send;
        /// The buffers one hop writes and discards. A hop must never read
        /// what an earlier hop left here: the oracle hands each level
        /// task whichever scratch its pool has free.
        type Scratch: Default + Send;

        /// A lane of `n` slots, all `⊥`. Panics if `alg` cannot run on
        /// this lane (a dense lane of an algorithm without dense states).
        fn new(alg: &A, strategy: EngineStrategy, n: usize) -> Self;
        /// Rewrites slot `v` to `P_λ x[v]` — `x[v]` if `keep`, else `⊥` —
        /// and returns whether it differed.
        fn project(&mut self, alg: &A, x: &Self::X, v: NodeId, keep: bool) -> bool;
        /// Sets slot `v` to `r(y_λ[v] ⊕ x[v])` and returns whether it
        /// changed.
        fn absorb(&mut self, alg: &A, x: &Self::X, v: NodeId) -> bool;
        /// Corrupts one slot (the `oracle_level_loop` `poison_nan` fault).
        fn poison(&mut self, alg: &A);
        /// Seeds the engine with every vertex (`None`) or exactly `seeds`.
        fn mark_dirty(&mut self, g: &Graph, seeds: Option<&[NodeId]>);
        /// One filtered hop `y ← r^V A_λ y`, edge weights times `scale`,
        /// on the checked-out `scratch`: the work spent and whether any
        /// slot changed.
        fn hop(
            &mut self,
            alg: &A,
            g: &Graph,
            scratch: &mut Self::Scratch,
            scale: f64,
        ) -> (WorkStats, bool);
        /// Appends the slots the hops changed since the last drain.
        fn drain_change_log(&mut self, out: &mut Vec<NodeId>);
        /// Storage counters, charging the start-state rewrite and the
        /// pool peak; only the arena lane keeps any.
        fn store_stats(&self) -> StoreStats {
            StoreStats::default()
        }
        /// The aggregation's per-vertex fold for one round:
        /// `fold(lanes, v)` folds `y_λ[v]` over `lanes` (the levels
        /// `λ ≤ level(v)`, ascending), applies `r`, and stages the result
        /// iff it differs from `x[v]`. Called in parallel, at most once
        /// per vertex.
        fn folder<'a>(
            alg: &'a A,
            x: &'a mut Self::X,
        ) -> impl Fn(&[Level<Self>], NodeId) -> Option<Self::Staged> + Sync + 'a;
        /// Writes the staged values into `x`.
        fn commit(x: &mut Self::X, staged: Vec<(NodeId, Self::Staged)>);
        /// The plain states of `x`, read in place: one checkpoint
        /// capture.
        fn capture(x: &Self::X) -> Vec<A::M>;
    }

    /// A lane and its carry-over bookkeeping.
    pub struct Level<L> {
        pub(crate) lane: L,
        pub(super) carry: LevelCarry,
    }
}
pub(crate) use sealed::{Lane, Level};

/// `Λ + 1` fresh levels for `sim`, each sized once for the run. They are
/// unprimed, so every level's first round is the wholesale rewrite.
pub(crate) fn fresh_levels<A: MbfAlgorithm, L: Lane<A>>(
    alg: &A,
    sim: &SimulatedGraph,
    strategy: EngineStrategy,
) -> Vec<Level<L>> {
    let n = sim.augmented().n();
    (0..=sim.levels().lambda())
        .map(|_| Level {
            lane: L::new(alg, strategy, n),
            carry: LevelCarry::new(),
        })
        .collect()
}

/// The hop scratch of one oracle run, shared by its levels: a level
/// task checks a scratch out at its start and gives it back at its end.
/// A thread runs one level task at a time, so the pool never holds more
/// scratches than the run's pool has threads — not one per level.
pub(crate) struct ScratchPool<S>(Mutex<Vec<S>>);

impl<S: Default> ScratchPool<S> {
    /// An empty pool: checkouts create scratches on demand.
    pub(crate) fn new() -> Self {
        ScratchPool(Mutex::new(Vec::new()))
    }

    /// A free scratch, or a fresh one if none is free.
    fn checkout(&self) -> S {
        self.free().pop().unwrap_or_default()
    }

    /// Returns a scratch for the next level task to reuse.
    fn give_back(&self, scratch: S) {
        self.free().push(scratch);
    }

    /// A pool whose first checkouts hand out `scratches`.
    #[cfg(test)]
    pub(crate) fn with(scratches: Vec<S>) -> Self {
        ScratchPool(Mutex::new(scratches))
    }

    /// Scratches the pool holds: every one a run created, minus those
    /// dropped by panicking level tasks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.free().len()
    }

    /// The free list. A level task that panics drops its scratch
    /// instead of returning it, and never holds the lock while it runs,
    /// so a poisoned lock still guards a consistent list.
    fn free(&self) -> std::sync::MutexGuard<'_, Vec<S>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The owned oracle lane: `y_λ` as a `Vec<M>`, stepped by an
/// [`MbfEngine`]. The semantics reference, and the lane of
/// [`oracle_run_to_fixpoint`] and [`oracle_iteration`].
pub struct LevelScratch<A: MbfAlgorithm> {
    engine: MbfEngine<A>,
    y: Vec<A::M>,
    /// Scratch: the closure carry-over's `r(y_λ[v] ⊕ x[v])`.
    acc: A::M,
    zero: A::M,
}

impl<A: MbfAlgorithm> Lane<A> for LevelScratch<A> {
    type X = Vec<A::M>;
    type Staged = A::M;
    /// The owned engine keeps its shadow states itself.
    type Scratch = ();

    fn new(_: &A, strategy: EngineStrategy, n: usize) -> Self {
        let mut engine = MbfEngine::new(strategy);
        engine.enable_change_log();
        LevelScratch {
            engine,
            y: vec![A::M::zero(); n],
            acc: A::M::zero(),
            zero: A::M::zero(),
        }
    }

    fn project(&mut self, _: &A, x: &Self::X, v: NodeId, keep: bool) -> bool {
        let want = if keep { &x[v as usize] } else { &self.zero };
        let slot = &mut self.y[v as usize];
        let differs = slot != want;
        if differs {
            // `clone_from` reuses the slot's heap buffer.
            slot.clone_from(want);
        }
        differs
    }

    fn absorb(&mut self, alg: &A, x: &Self::X, v: NodeId) -> bool {
        let slot = &mut self.y[v as usize];
        self.acc.clone_from(slot);
        self.acc.add_assign(&x[v as usize]);
        alg.filter(&mut self.acc);
        let changed = self.acc != *slot;
        if changed {
            std::mem::swap(slot, &mut self.acc);
        }
        changed
    }

    fn poison(&mut self, _: &A) {
        if let Some(slot) = self.y.first_mut() {
            slot.poison();
        }
    }

    fn mark_dirty(&mut self, g: &Graph, seeds: Option<&[NodeId]>) {
        match seeds {
            None => self.engine.mark_all_dirty(g),
            Some(seeds) => self.engine.mark_dirty(g, seeds.iter().copied()),
        }
    }

    fn hop(&mut self, alg: &A, g: &Graph, _: &mut (), scale: f64) -> (WorkStats, bool) {
        self.engine.step(alg, g, &mut self.y, scale)
    }

    fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.engine.drain_change_log(out);
    }

    fn folder<'a>(
        alg: &'a A,
        x: &'a mut Self::X,
    ) -> impl Fn(&[Level<Self>], NodeId) -> Option<A::M> + Sync + 'a {
        let x: &Self::X = x;
        move |lanes, v| {
            let mut acc = A::M::zero();
            for level in lanes {
                acc.add_assign(&level.lane.y[v as usize]);
            }
            alg.filter(&mut acc);
            (acc != x[v as usize]).then_some(acc)
        }
    }

    fn commit(x: &mut Self::X, staged: Vec<(NodeId, A::M)>) {
        for (v, m) in staged {
            x[v as usize] = m;
        }
    }

    fn capture(x: &Self::X) -> Vec<A::M> {
        x.clone()
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
/// the same for every lane: what the level's last round observed and
/// which `y`-slots it moved. [`LevelCarry::start`] is the one place a
/// round's schedule is chosen. A fresh value (a new level, a checkpoint
/// resume) is unprimed and unclosed, so its first round is the
/// wholesale rewrite.
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
    /// This round's start-state rewrite seeds: every slot it rewrote.
    seeds: Vec<NodeId>,
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
/// lists exactly once per vertex, in ascending order: the co-walk under
/// the frontier-sized projection diff.
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

/// The oracle's fixpoint loop, shared by every lane type and entry
/// point: iterates from `states` (already past `executed` simulated
/// iterations) up to `h` in total, with every hop on a scratch checked
/// out of `scratch`, calling `on_round(round, x)` after every round that
/// changed something. Resuming from a recorded
/// `(states, executed)` pair on [`fresh_levels`] is bit-identical to the
/// uninterrupted run: an unprimed level rewrites wholesale on its first
/// round, which the carry-over schedules already prove equivalent to
/// carrying on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_loop<A, L>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    carry_over: bool,
    levels: &mut [Level<L>],
    scratch: &ScratchPool<L::Scratch>,
    states: Vec<A::M>,
    mut executed: usize,
    mut on_round: impl FnMut(usize, &L::X) -> Result<(), RunError>,
) -> Result<OracleRun<A::M>, RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    let g = sim.augmented();
    let n = g.n();
    debug_assert_eq!(n, states.len());
    let mut x = L::X::from(states);
    let mut work = WorkStats::new();
    let mut fixpoint = false;
    // `x`-slots the previous aggregation changed; `None` = unknown (no
    // previous round), forcing full diffs.
    let mut x_changed: Option<Vec<NodeId>> = None;
    while executed < h {
        // The level phase. The Λ+1 level contributions are independent:
        // one parallel task per level (`with_min_len(1)`: Λ is small but
        // each task is heavy), each leaving `(r^V A_λ)^d P_λ x` in its own
        // lane. Per-level work tallies merge through the fixed-shape
        // reduction tree.
        let (x_ref, x_changed_ref) = (&x, x_changed.as_deref());
        work += levels
            .par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .map(|(lambda, Level { lane, carry })| {
                let lambda = lambda as u32;
                let mut hop_scratch = scratch.checkout();
                // Fault-injection site: one level task fails (`panic`) or
                // corrupts its lane (`poison_nan`) while the sibling
                // levels keep running.
                if mte_faults::check_panic_or_poison(mte_faults::FaultSite::OracleLevelLoop) {
                    lane.poison(alg);
                }
                let keep = |v: NodeId| sim.levels().level(v) >= lambda;
                let before = lane.store_stats();
                let start = carry.start(carry_over, x_changed_ref);
                match start {
                    LevelStart::Wholesale | LevelStart::FullDiff => {
                        // Compare-and-assign every slot against the fresh
                        // projection `P_λ x`, seeding the differing ones
                        // (writing an identical state is a no-op, so the
                        // wholesale reference may compare too).
                        for v in 0..n as NodeId {
                            if lane.project(alg, x_ref, v, keep(v)) {
                                carry.seeds.push(v);
                            }
                        }
                    }
                    LevelStart::Closure(changed) => {
                        // Closure carry-over: fold this level's changed
                        // x-slots into its closure; every other slot
                        // already absorbed its x value. The engine's
                        // frontier is empty (the last hop changed
                        // nothing), so the seeds are the whole frontier.
                        for &v in changed {
                            if keep(v) && lane.absorb(alg, x_ref, v) {
                                carry.seeds.push(v);
                            }
                        }
                    }
                    // Frontier-sized diff: a slot can disagree with the
                    // fresh projection only if this level moved it last
                    // round or the aggregation changed its x source.
                    LevelStart::FrontierDiff(changed) => {
                        carry.frontier_diff(changed, |v| lane.project(alg, x_ref, v, keep(v)))
                    }
                }
                let seeds = (start != LevelStart::Wholesale).then_some(&carry.seeds[..]);
                lane.mark_dirty(g, seeds);
                // The rewrite's storage traffic; the hops account
                // themselves.
                let mut work = storage_delta(before, lane.store_stats());
                // y ← (r^V A_λ)^d y : d filtered hops on the scaled G';
                // once a hop changes nothing the level is at its fixpoint
                // and the remaining hops are identity.
                let scale = sim.level_scale(lambda);
                let mut closed = false;
                for _ in 0..sim.d() {
                    let (w, changed) = lane.hop(alg, g, &mut hop_scratch, scale);
                    work += w;
                    if !changed {
                        closed = true;
                        break;
                    }
                }
                // Record what this round moved, for the next round's diff
                // and this round's aggregation: rewrites plus hop changes.
                carry.finish(start, closed, |moved| lane.drain_change_log(moved));
                scratch.give_back(hop_scratch);
                work
            })
            .reduce(WorkStats::new, |mut a, b| {
                a += b;
                a
            });
        executed += 1;

        // The aggregation `x_v ← r(⊕_λ [level(v) ≥ λ] y_λ[v])`, folding
        // in ascending-λ order — a fixed combination order independent of
        // the thread count. It recomputes only the vertices some level
        // moved this round (a skipped vertex's fold inputs are unchanged,
        // so it would reproduce its current value bit for bit), unless a
        // level rewrote wholesale and has no moved set. Both paths stage
        // in ascending vertex order (chunk-order concatenation).
        let recompute = aggregation_set(levels.iter().map(|l| &l.carry));
        let staged: Vec<(NodeId, L::Staged)> = {
            let fold = L::folder(alg, &mut x);
            let levels: &[Level<L>] = levels;
            let stage =
                |v: NodeId| fold(&levels[..=sim.levels().level(v) as usize], v).map(|m| (v, m));
            match recompute.as_deref() {
                None => (0..n as NodeId)
                    .into_par_iter()
                    .flat_map_iter(stage)
                    .collect(),
                Some(list) => list.par_iter().flat_map_iter(|&v| stage(v)).collect(),
            }
        };
        if staged.is_empty() {
            fixpoint = true;
            break;
        }
        x_changed = Some(staged.iter().map(|&(v, _)| v).collect());
        L::commit(&mut x, staged);
        on_round(executed, &x)?;
    }
    // The Λ+1 lanes are live *simultaneously*: the run's arena high-water
    // mark is the sum of the per-lane peaks, not the max the per-hop
    // tallies fold to.
    work.arena_bytes = levels
        .iter()
        .map(|l| l.lane.store_stats().arena_bytes)
        .sum();
    Ok(OracleRun {
        states: x.into(),
        h_iterations: executed,
        fixpoint,
        work,
    })
}

/// [`oracle_loop`] on fresh `L` lanes with no round hook: the body of
/// [`oracle_run_with_schedule`] and [`oracle_iteration`].
fn run_lanes<A, L>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    carry_over: bool,
    states: Vec<A::M>,
) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    let levels = &mut fresh_levels::<A, L>(alg, sim, strategy);
    let scratch = &ScratchPool::new();
    match oracle_loop(
        alg,
        sim,
        h,
        carry_over,
        levels,
        scratch,
        states,
        0,
        |_, _| Ok(()),
    ) {
        Ok(run) => run,
        Err(e) => unreachable!("no-op round hook cannot fail: {e}"),
    }
}

/// Simulates **one** iteration of `alg` on `H`:
/// `x ← r^V (⊕_λ P_λ (r^V A_λ)^d P_λ x)`.
pub fn oracle_iteration<A>(alg: &A, sim: &SimulatedGraph, x: &[A::M]) -> (Vec<A::M>, WorkStats)
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let strategy = EngineStrategy::default();
    let run = run_lanes::<A, LevelScratch<A>>(alg, sim, 1, strategy, true, x.to_vec());
    (run.states, run.work)
}

/// [`oracle_run_to_fixpoint_with`] with the level schedule made explicit:
/// `carry_over: true` (the default everywhere else) carries each level's
/// buffer into the next round — its closure if the level reached its
/// fixpoint, else a diff against the fresh projection — and seeds only
/// the changed vertices; `false` restarts every level all-dirty each
/// round — the reference schedule, kept for ablation and differential
/// testing. Both produce bit-identical states, iteration counts, and
/// fixpoint flags on every lane `L`; only the work counters differ.
pub fn oracle_run_with_schedule<A, L>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    carry_over: bool,
) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    let states = initial_states(alg, sim.augmented().n());
    run_lanes::<A, L>(alg, sim, h, strategy, carry_over, states)
}

/// Iterates `alg` on `H` until a fixpoint, capped at `cap` iterations,
/// on the lane `L` with the given inner-engine strategy, starting from
/// `r^V x⁽⁰⁾` (Theorem 5.2 (1)). W.h.p. the fixpoint arrives after
/// `SPD(H) ∈ O(log² n)` iterations (Theorems 4.5 and 5.2 (2)).
///
/// The iteration map is deterministic, so a simulated `H`-iteration that
/// changes nothing proves every later iteration is the identity: the run
/// stops there, reports `fixpoint: true`, and `h_iterations` counts the
/// iterations actually executed (including the confirming one) — it may
/// be less than `cap`. The returned states are bit-identical to burning
/// all `cap` iterations, so the capped run *is* `A^cap(H)`.
pub fn oracle_run_to_fixpoint_with<A, L>(
    alg: &A,
    sim: &SimulatedGraph,
    cap: usize,
    strategy: EngineStrategy,
) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    oracle_run_with_schedule::<A, L>(alg, sim, cap, strategy, true)
}

/// Iterates `alg` on `H` to a fixpoint on the owned lane under the
/// default hybrid engine.
pub fn oracle_run_to_fixpoint<A>(alg: &A, sim: &SimulatedGraph, cap: usize) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let strategy = EngineStrategy::default();
    oracle_run_to_fixpoint_with::<A, LevelScratch<A>>(alg, sim, cap, strategy)
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
    use mte_algebra::DistanceMap;
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
        // Each H-iteration drives Λ+1 inner level loops, so the total
        // G'-hop count dominates the H-iteration count.
        assert!(run.work.iterations >= run.h_iterations as u64);
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
        assert_eq!(run.work.iterations, fix.work.iterations);
        // A budget too small to converge reports honestly.
        let short = oracle_run_to_fixpoint(&alg, &sim, 1);
        assert!(!short.fixpoint);
        assert_eq!(short.h_iterations, 1);
    }

    /// A gnm graph whose levels close within `d` hops in every round.
    fn closing_fixture() -> (mte_graph::Graph, SimulatedGraph) {
        let mut rng = StdRng::seed_from_u64(26);
        let g = gnm_graph(30, 70, 1.0..6.0, &mut rng);
        let d = 3 * (shortest_path_diameter(&g) as usize + 1);
        let sim = SimulatedGraph::without_hopset(&g, d, 0.15, &mut rng);
        (g, sim)
    }

    #[test]
    fn fresh_lanes_start_unclosed() {
        // A resume re-enters the loop on fresh levels: no level may claim
        // a closure it never computed, so the first round is the
        // wholesale rewrite. A closing round sets the flag.
        let (g, sim) = closing_fixture();
        let alg = SourceDetection::k_ssp(g.n(), 3);
        let mut levels = fresh_levels::<_, LevelScratch<_>>(&alg, &sim, EngineStrategy::Frontier);
        assert!(levels.iter().all(|l| !l.carry.closed && !l.carry.primed));
        let x = initial_states(&alg, g.n());
        let scratch = &ScratchPool::new();
        oracle_loop(&alg, &sim, 1, true, &mut levels, scratch, x, 0, |_, _| {
            Ok(())
        })
        .unwrap();
        assert!(levels.iter().all(|l| l.carry.closed));
    }

    /// The three lane types the shared loop runs, for the table-driven
    /// contract test.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Owned,
        Arena,
        Dense,
    }

    /// A carry-over run of `kind`'s lanes capped at `h` rounds, recording
    /// the rounds `on_round` saw.
    fn capped(
        kind: Kind,
        alg: &SourceDetection,
        sim: &SimulatedGraph,
        h: usize,
        rounds: &mut Vec<usize>,
    ) -> OracleRun<DistanceMap> {
        use crate::arena::ArenaLevel;
        use crate::dense::DenseLevel;
        let s = EngineStrategy::Frontier;
        let x = initial_states(alg, sim.augmented().n());
        let mut hook = |r: usize| -> Result<(), RunError> {
            rounds.push(r);
            Ok(())
        };
        match kind {
            Kind::Owned => {
                let levels = &mut fresh_levels::<_, LevelScratch<_>>(alg, sim, s);
                oracle_loop(
                    alg,
                    sim,
                    h,
                    true,
                    levels,
                    &ScratchPool::new(),
                    x,
                    0,
                    |r, _| hook(r),
                )
            }
            Kind::Arena => {
                let levels = &mut fresh_levels::<_, ArenaLevel>(alg, sim, s);
                oracle_loop(
                    alg,
                    sim,
                    h,
                    true,
                    levels,
                    &ScratchPool::new(),
                    x,
                    0,
                    |r, _| hook(r),
                )
            }
            Kind::Dense => {
                let levels = &mut fresh_levels::<_, DenseLevel<_>>(alg, sim, s);
                oracle_loop(
                    alg,
                    sim,
                    h,
                    true,
                    levels,
                    &ScratchPool::new(),
                    x,
                    0,
                    |r, _| hook(r),
                )
            }
        }
        .unwrap()
    }

    #[test]
    fn lane_contract_holds_on_every_backend() {
        let (g, sim) = closing_fixture();
        let alg = SourceDetection::apsp(g.n());
        let reference = |h| {
            let s = EngineStrategy::Frontier;
            oracle_run_with_schedule::<_, LevelScratch<_>>(&alg, &sim, h, s, false)
        };
        let full = reference(4 * g.n());
        let r = full.h_iterations;
        assert!(full.fixpoint && r >= 3, "{r} rounds");
        for kind in [Kind::Owned, Kind::Arena, Kind::Dense] {
            // h = 0: no round, not converged, the states r^V x⁽⁰⁾.
            let mut rounds = Vec::new();
            let run = capped(kind, &alg, &sim, 0, &mut rounds);
            assert_eq!((run.h_iterations, run.fixpoint), (0, false), "{kind:?}");
            assert_eq!(run.states, initial_states(&alg, g.n()), "{kind:?}");
            assert!(rounds.is_empty(), "{kind:?}");

            // Every cap up to the fixpoint matches the restart reference;
            // `on_round` sees each round that changed something, never
            // the confirming round `r`.
            for h in 1..=r {
                let want = reference(h);
                let mut rounds = Vec::new();
                let run = capped(kind, &alg, &sim, h, &mut rounds);
                assert_eq!(run.states, want.states, "{kind:?} h={h}");
                assert_eq!(run.h_iterations, want.h_iterations, "{kind:?} h={h}");
                assert_eq!(run.fixpoint, want.fixpoint, "{kind:?} h={h}");
                let fired: Vec<usize> = (1..=h.min(r - 1)).collect();
                assert_eq!(rounds, fired, "{kind:?} h={h}");
            }
        }
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

    /// A carry-over fixpoint run of lane `L` on `pool`'s scratches,
    /// under a dedicated pool of `threads` threads.
    fn run_on_pool<A, L>(
        alg: &A,
        sim: &SimulatedGraph,
        pool: &ScratchPool<L::Scratch>,
        threads: usize,
    ) -> OracleRun<A::M>
    where
        A: MbfAlgorithm<S = MinPlus>,
        L: Lane<A>,
    {
        let n = sim.augmented().n();
        let levels = &mut fresh_levels::<A, L>(alg, sim, EngineStrategy::Frontier);
        let x = initial_states(alg, n);
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool build cannot fail")
            .install(|| oracle_loop(alg, sim, 4 * n, true, levels, pool, x, 0, |_, _| Ok(())))
            .unwrap()
    }

    /// Asserts that runs on junk-filled scratches equal runs on fresh
    /// ones, field by field, under 1 and 4 threads.
    fn assert_scratch_is_never_read<A, L>(
        alg: &A,
        sim: &SimulatedGraph,
        junk: impl Fn() -> L::Scratch,
    ) where
        A: MbfAlgorithm<S = MinPlus>,
        L: Lane<A>,
    {
        let lanes = sim.levels().lambda() as usize + 1;
        for threads in [1usize, 4] {
            let fresh = run_on_pool::<A, L>(alg, sim, &ScratchPool::new(), threads);
            assert!(fresh.fixpoint, "t={threads}");
            // Every checkout finds junk: one per level is more than the
            // level tasks in flight.
            let junk_pool = ScratchPool::with((0..lanes).map(|_| junk()).collect());
            let stale = run_on_pool::<A, L>(alg, sim, &junk_pool, threads);
            assert_eq!(stale.states, fresh.states, "t={threads}");
            assert_eq!(stale.h_iterations, fresh.h_iterations, "t={threads}");
            assert_eq!(stale.fixpoint, fresh.fixpoint, "t={threads}");
            assert_eq!(stale.work, fresh.work, "t={threads}");
            assert_eq!(junk_pool.len(), lanes, "t={threads}: a scratch was lost");
        }
    }

    /// A fixture whose levels never close within `d = 2` hops: rounds
    /// start from the projection diff on top of a residual frontier, so
    /// a hop's first frontier vertices may have no dirty neighbour (the
    /// dense engine's write-nothing path) on a scratch another level
    /// wrote last.
    fn hop_limited_fixture() -> (mte_graph::Graph, SimulatedGraph) {
        let mut rng = StdRng::seed_from_u64(29);
        let g = gnm_graph(160, 480, 1.0..6.0, &mut rng);
        let sim = SimulatedGraph::without_hopset(&g, 2, 0.15, &mut rng);
        (g, sim)
    }

    #[test]
    fn stale_scratch_contents_are_never_read() {
        use crate::arena::{ArenaLevel, ArenaScratch};
        use crate::dense::{DenseLevel, DenseScratch};
        use crate::frt::le_list::{LeListAlgorithm, Ranks};
        use std::sync::Arc;

        for (g, sim) in [closing_fixture(), hop_limited_fixture()] {
            let n = sim.augmented().n();
            let ranks = Arc::new(Ranks::sample(n, &mut StdRng::seed_from_u64(27)));
            let le = LeListAlgorithm::new(ranks);
            assert_scratch_is_never_read::<_, ArenaLevel>(&le, &sim, || ArenaScratch::junk(n));
            let apsp = SourceDetection::apsp(g.n());
            assert_scratch_is_never_read::<_, ArenaLevel>(&apsp, &sim, || ArenaScratch::junk(n));
            let junk = || DenseScratch::junk(n);
            assert_scratch_is_never_read::<_, DenseLevel<_>>(&apsp, &sim, junk);
        }
    }

    #[test]
    fn checkout_pool_holds_at_most_one_scratch_per_thread() {
        use crate::arena::ArenaLevel;
        use crate::dense::DenseLevel;

        let (g, sim) = hop_limited_fixture();
        let lanes = sim.levels().lambda() as usize + 1;
        assert!(lanes > 4, "{lanes} levels cannot exceed the 4-thread bound");
        let alg = SourceDetection::apsp(g.n());
        for threads in [1usize, 4] {
            let pool = ScratchPool::new();
            run_on_pool::<_, ArenaLevel>(&alg, &sim, &pool, threads);
            assert!(
                (1..=threads).contains(&pool.len()),
                "arena t={threads}: {}",
                pool.len()
            );
            let pool = ScratchPool::new();
            run_on_pool::<_, DenseLevel<_>>(&alg, &sim, &pool, threads);
            assert!(
                (1..=threads).contains(&pool.len()),
                "dense t={threads}: {}",
                pool.len()
            );
        }
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
        let run = |s| oracle_run_to_fixpoint_with::<_, LevelScratch<_>>(&alg, &sim, 4 * g.n(), s);
        let (dense, frontier) = (run(EngineStrategy::Dense), run(EngineStrategy::Frontier));
        assert_eq!(dense.states, frontier.states);
        assert_eq!(dense.h_iterations, frontier.h_iterations);
        assert!(frontier.work.edge_relaxations <= dense.work.edge_relaxations);
        // Convergence metadata is strategy-invariant (hop counts are
        // not: the frontier engine confirms levels with fewer hops).
        assert_eq!(dense.fixpoint, frontier.fixpoint);
        assert!(dense.fixpoint);
    }
}
