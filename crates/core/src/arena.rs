//! The arena-backed engine: MBF-like iteration over the epoch-arena
//! state store ([`mte_algebra::store::EpochStore`]).
//!
//! # Mapping back to the paper
//!
//! The paper iterates `x ← r^V A x` over a state vector `x ∈ D^V`
//! (Definition 2.11) and charges each iteration `O(Σ_v |x_v|)` work —
//! per **list entry**, never per vertex (Lemma 2.3, Lemma 7.8). The
//! owned backend ([`crate::engine::MbfEngine`], `Vec<A::M>`) breaks that accounting on
//! real hardware: every touched vertex's state is rewritten wholesale
//! into a per-vertex heap buffer, so a hop pays copy traffic per
//! *vertex*, changed or not. Here the whole vector `x` lives in one
//! [`EpochStore`]: `x_v` is a `(offset, len)` **span** into a shared
//! entry pool, a hop appends only the states that actually changed (the
//! next **epoch**) and commits by retargeting spans — an unchanged
//! vertex keeps its old span at zero cost (copy-on-write), which is
//! exactly the `Σ|x_v|`-over-*changed*-states cost the lemmas charge.
//!
//! # Scheduling and determinism
//!
//! [`ArenaEngine`] drives the *same* `FrontierSchedule` as the owned
//! engine — same frontier, same touched list, same degree-balanced
//! chunks — so the two backends execute identical hops and their
//! outputs are bit-identical by construction (differential-tested by
//! `tests/schedule_equivalence.rs`). During a hop, each scheduling
//! chunk writes its recomputed states into its own **chunk append
//! region** (plain `Vec`s, one per chunk — no synchronization, no
//! `unsafe`); the commit concatenates the regions into the pool in
//! chunk order, so the pool layout is a pure function of the schedule
//! and the inputs, never of `MTE_THREADS`.
//!
//! The regions live only for one hop, so they are not part of the
//! engine: a step borrows them from an [`ArenaScratch`] the caller
//! passes in. Every buffer is cleared before the step writes it and
//! nothing a previous step left is ever read, so any scratch serves any
//! engine. A plain engine run owns one; the oracle checks one out per
//! level task from a pool of at most one per worker thread, instead of
//! keeping `Λ + 1` sets of regions alive.
//!
//! # The algorithm hook
//!
//! [`ArenaMbfAlgorithm`] is the span-level counterpart of
//! [`MbfAlgorithm::recompute_into`]: [`ArenaMbfAlgorithm::recompute_span`]
//! reads neighbor states as borrowed [`DistanceSlice`]s straight out of
//! the pool and appends the result to the chunk region through a
//! [`SpanOut`]. The default implementation is the literal
//! merge-everything-then-filter pipeline over spans; `LeListAlgorithm`
//! overrides it with the rank-domination probe reading the pool's rank
//! column, `SourceDetection` with the top-k admission threshold. Every
//! override **must** be bit-identical to the owned
//! `recompute_into` on exported states — the equivalence suite
//! differential-tests engine, oracle, and the FRT pipeline across both
//! backends and `MTE_THREADS ∈ {1, 4}`.
//!
//! # New-entry masks (semi-naive hops)
//!
//! Propagating only *new* facts is the semi-naive evaluation rule, and
//! it is what the paper's `Σ|x_v|` accounting charges: an LE iteration
//! pays per entry that does work. The engine therefore records, for
//! every vertex a hop changes, which entries of its new state are new:
//! the change comparison against the old span is one co-walk of the two
//! node-sorted states that also yields a `u64` **new-entry mask** — bit
//! `i` set iff entry `i` of the new state is not in the old state with
//! an identical `(node, dist)`. States longer than 64 entries get
//! [`MASK_ALL`]. The masks live in one `Vec<u64>` per engine (8 B per
//! vertex; no delta entries are ever copied) and reach the kernels
//! through [`RecomputeCtx::neighbor_new_mask`]. An external rewrite
//! ([`ArenaEngine::mark_dirty`], [`ArenaEngine::mark_all_dirty`],
//! [`ArenaEngine::prime`]) resets every mask to [`MASK_ALL`], so every
//! neighbor is read in full until the next commit records fresh masks.
//!
//! **Why reading only the masked entries is bit-identical** (for the
//! LE lists, whose kernel uses it):
//!
//! * By the closed-neighborhood schedule, a vertex `v` recomputed
//!   because its neighbor `w` changed has already absorbed `w`'s
//!   pre-hop state — the premise that lets kernels skip clean neighbors
//!   (see [`RecomputeCtx`]). An entry with a clear mask bit is an entry
//!   of that pre-hop state.
//! * Absorbing `(u, d)` leaves in `v`'s state an entry with
//!   `dist ≤ d` and `rank ≤ rank(u)`: either `(u, d')` itself with
//!   `d' ≤ d`, or the entry that dominated it. Such a witness persists:
//!   min-merging only lowers its distance, and if the filter drops it,
//!   its dominator is a witness too (domination is transitive).
//! * The LE kernel rejects an incoming `(u, d)` iff `v`'s base holds an
//!   entry with `dist ≤ d` and `rank ≤ rank(u)` (equal rank is exactly
//!   the echo case, lower rank the domination case), so it rejects
//!   every absorbed entry. Skipping them changes neither the admitted
//!   set nor `entries_processed`.
//!
//! The oracle's arena lane ([`ArenaLevel`], the FRT path) keeps
//! each level's `y_λ` in its own pool lane — `O(Λ)` buffers in total
//! instead of `Θ(Λ·n)` per-vertex maps — and runs the one oracle loop of
//! [`crate::oracle`], stepping on checked-out [`ArenaScratch`] regions.

use crate::checkpoint::{drive, Backend, Checkpoint, CheckpointPolicy};
use crate::engine::{initial_states, EngineStrategy, FrontierSchedule, MbfAlgorithm, MbfRun};
use crate::error::Degradation;
use crate::oracle::{Lane, Level};
use crate::work::WorkStats;
use mte_algebra::store::{DistanceSlice, EpochStore, SpanOut, StoreStats};
use mte_algebra::{Dist, DistanceMap, MinPlus, NodeId, Semimodule};
use mte_graph::Graph;
use rayon::prelude::*;
use std::cell::RefCell;

/// Outcome of one span recomputation (the arena counterpart of
/// `recompute_into`'s `(entries, relaxations)` pair).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanRecompute {
    /// Entries processed (the paper's `Σ|x|` work term; pruned paths
    /// count admitted entries only, like the owned overrides).
    pub entries: u64,
    /// Edge relaxations performed.
    pub relaxations: u64,
    /// `true` asserts the result is **bit-identical to the current
    /// span** and nothing was written to the output: the engine keeps
    /// the old span without copying or comparing. The hint must be
    /// exact — a wrong hint is a correctness bug, not a performance
    /// one.
    pub unchanged_hint: bool,
}

thread_local! {
    /// Per-thread accumulator for span recomputations that build their
    /// result in an owned map before appending (the default path and
    /// the pruned source-detection override).
    static ARENA_ACC: RefCell<DistanceMap> = RefCell::new(DistanceMap::new());
}

/// Runs `f` with this thread's recompute accumulator. Falls back to a
/// fresh map on re-entrant use instead of panicking, mirroring
/// [`mte_algebra::merge::with_dist_scratch`].
pub fn with_arena_acc<R>(f: impl FnOnce(&mut DistanceMap) -> R) -> R {
    ARENA_ACC.with(|cell| match cell.try_borrow_mut() {
        Ok(mut acc) => f(&mut acc),
        Err(_) => f(&mut DistanceMap::new()),
    })
}

/// An MBF-like algorithm over min-plus distance maps that can recompute
/// straight out of (and into) the epoch-arena store. See the module
/// docs; the owned [`MbfAlgorithm`] methods remain the semantics
/// reference.
pub trait ArenaMbfAlgorithm: MbfAlgorithm<S = MinPlus, M = DistanceMap> {
    /// Whether the algorithm reads the pool's per-entry rank column
    /// (via [`mte_algebra::store::DistanceSlice::ranks`] or
    /// [`ArenaMbfAlgorithm::entry_aux`]). Off by default: the store
    /// then skips the 4 B/entry column entirely — sssp- and
    /// source-detection-style appends carried it as dead traffic. The
    /// LE lists opt in (their domination probe reads ranks straight
    /// from the pool).
    const USES_RANK_COLUMN: bool = false;

    /// Rank-column value stored alongside an entry with key `node`.
    /// Must be a **pure function of the key** (identical entries ⇒
    /// identical aux), since the engine's change detection compares
    /// entries only. The LE lists store the node's permutation rank;
    /// the default is 0. Never consulted when
    /// [`ArenaMbfAlgorithm::USES_RANK_COLUMN`] is off.
    #[inline]
    fn entry_aux(&self, _node: NodeId) -> u32 {
        0
    }

    /// [`MbfAlgorithm::state_size`] for a borrowed span. Must agree
    /// with `state_size` on the materialized map; the default matches
    /// the distance-map convention `|x|.max(1)`.
    #[inline]
    fn slice_size(&self, x: &DistanceSlice<'_>) -> usize {
        x.len().max(1)
    }

    /// Recomputes `v`'s next state `r(x_v ⊕ ⊕_w a_vw x_w)` from the
    /// span-backed state vector, appending the resulting entries (with
    /// their rank column) to `out` — or writing nothing and setting
    /// [`SpanRecompute::unchanged_hint`] when the result provably
    /// equals the current span. Must be bit-identical to
    /// [`MbfAlgorithm::recompute_into`] on exported states.
    ///
    /// `ctx` reports which neighbor states are **dirty** (may differ
    /// from what `v` last absorbed). Algorithms whose filter is
    /// *absorption-stable* (see [`RecomputeCtx::neighbor_dirty`]) may
    /// skip merging clean neighbors — their contributions are provably
    /// identities — as the LE-list and source-detection overrides do;
    /// the default implementation merges everything unconditionally.
    fn recompute_span(
        &self,
        v: NodeId,
        g: &Graph,
        weight_scale: f64,
        states: &EpochStore,
        _ctx: &RecomputeCtx<'_>,
        out: &mut SpanOut<'_>,
    ) -> SpanRecompute {
        default_recompute_span(self, v, g, weight_scale, states, out)
    }
}

/// New-entry mask value meaning "unknown: read the whole state" (see
/// [`RecomputeCtx::neighbor_new_mask`]).
pub const MASK_ALL: u64 = !0;

/// Per-hop context handed to [`ArenaMbfAlgorithm::recompute_span`]:
/// which states moved since each vertex last absorbed them, and which
/// of their entries are new.
///
/// # Absorption stability
///
/// The engine guarantees: whenever a neighbor `w`'s state changes at
/// hop `t`, every `v ∈ N[w]` is recomputed at hop `t + 1` (the
/// closed-neighborhood schedule). So if `w` is **not** dirty now, `v`
/// has already merged `a_vw x_w` (with the current `x_w`) in an earlier
/// recompute. For a filter where absorbed contributions stay absorbed —
/// entry values only improve, and an entry the filter ever discarded is
/// justified by witnesses that persist (LE rank domination and the
/// source-detection top-k both qualify; the engine's own docs call the
/// general case unsound) — re-merging a clean neighbor is the identity,
/// and skipping it is bit-identical. External edits break the "already
/// absorbed" premise for the **edited vertex itself**, so
/// [`ArenaEngine::mark_dirty`] taints its vertices:
/// [`RecomputeCtx::require_full`] forces their next recomputation to
/// merge every neighbor once.
///
/// # New-entry masks
///
/// The same premise, applied per entry: a dirty neighbor `w`'s entries
/// that were already in its state before its last change have been
/// absorbed too. [`RecomputeCtx::neighbor_new_mask`] marks the others
/// (see the module docs for the argument that LE kernels may skip the
/// unmarked ones bit-identically). Edits to `w` itself reset the masks
/// to [`MASK_ALL`] ([`ArenaEngine::mark_dirty`] and friends), so an
/// externally written state is always read in full once.
pub struct RecomputeCtx<'a> {
    sched: &'a FrontierSchedule,
    taint: &'a crate::engine::TaintTable,
    new_masks: &'a [u64],
}

impl RecomputeCtx<'_> {
    /// `true` iff `w`'s state may differ from what `v` last absorbed
    /// (`w` is on the frontier seeding this hop).
    #[inline]
    pub fn neighbor_dirty(&self, w: NodeId) -> bool {
        self.sched.on_frontier(w)
    }

    /// `true` iff `v`'s own state was externally rewritten since its
    /// last recomputation: it has absorbed nothing, so this
    /// recomputation must merge every neighbor regardless of dirtiness.
    #[inline]
    pub fn require_full(&self, v: NodeId) -> bool {
        self.taint.is_tainted(v)
    }

    /// The new-entry mask of dirty neighbor `w`: bit `i` is set iff
    /// entry `i` of `w`'s state was not in its state before its last
    /// change with an identical `(node, dist)`. [`MASK_ALL`] means
    /// unknown (never recorded, reset by an external edit, or a state
    /// longer than 64 entries): read every entry. Bits past the end of
    /// the span a reader sees carry no entry and must be ignored.
    #[inline]
    pub fn neighbor_new_mask(&self, w: NodeId) -> u64 {
        self.new_masks[w as usize]
    }
}

/// Compares `v`'s recomputed state `new` against its current state
/// `old` in one co-walk, returning whether they differ and `new`'s
/// new-entry mask (see [`RecomputeCtx::neighbor_new_mask`]). A bit is
/// cleared only for an entry found in `old`, and a matched entry
/// advances the walk, so `mask == 0` with equal lengths implies
/// `new == old` — the change flag is exact even for unsorted outputs.
fn diff_mask(old: &[(NodeId, Dist)], new: &[(NodeId, Dist)]) -> (bool, u64) {
    if new.len() > 64 {
        return (old != new, MASK_ALL);
    }
    let mut mask = 0u64;
    let mut j = 0;
    for (i, e) in new.iter().enumerate() {
        while j < old.len() && old[j].0 < e.0 {
            j += 1;
        }
        if j < old.len() && old[j] == *e {
            j += 1;
        } else {
            mask |= 1 << i;
        }
    }
    (mask != 0 || old.len() != new.len(), mask)
}

/// The literal merge-everything-then-filter recomputation over spans —
/// the arena counterpart of the default [`MbfAlgorithm::recompute_into`]
/// body, provided as a free function so overriding implementations can
/// fall back to it.
///
/// Assumes (like every distance-map algorithm in the catalog) that
/// `propagate_into` is the fused min-plus merge `acc ← acc ⊕ (s ⊙ x)`.
pub fn default_recompute_span<A: ArenaMbfAlgorithm + ?Sized>(
    alg: &A,
    v: NodeId,
    g: &Graph,
    weight_scale: f64,
    states: &EpochStore,
    out: &mut SpanOut<'_>,
) -> SpanRecompute {
    with_arena_acc(|acc| {
        let base = states.get(v);
        // a_vv = 1: keep the node's own state.
        acc.assign_from_entries(base.entries);
        let mut entries = alg.slice_size(&base) as u64;
        let mut relaxations = 0u64;
        for &(w, ew) in g.neighbors(v) {
            let coeff = alg.edge_coeff(v, w, ew * weight_scale);
            let nb = states.get(w);
            acc.merge_scaled_entries(nb.entries, coeff.0);
            entries += alg.slice_size(&nb) as u64;
            relaxations += 1;
        }
        alg.filter(acc);
        for (u, d) in acc.iter() {
            out.push(u, d, alg.entry_aux(u));
        }
        SpanRecompute {
            entries,
            relaxations,
            unchanged_hint: false,
        }
    })
}

/// Storage counters of a [`StoreStats`] snapshot folded into the
/// work-accounting shape.
fn storage_work(stats: StoreStats) -> WorkStats {
    WorkStats {
        bytes_copied: stats.bytes_copied,
        alloc_count: stats.alloc_count,
        arena_bytes: stats.arena_bytes,
        ..WorkStats::default()
    }
}

/// Storage-counter delta between two snapshots (`arena_bytes` is a
/// high-water mark: the later snapshot wins).
pub(crate) fn storage_delta(before: StoreStats, after: StoreStats) -> WorkStats {
    WorkStats {
        bytes_copied: after.bytes_copied - before.bytes_copied,
        alloc_count: after.alloc_count - before.alloc_count,
        arena_bytes: after.arena_bytes,
        ..WorkStats::default()
    }
}

/// Per-vertex outcome record inside a chunk append region.
#[derive(Clone, Copy, Debug)]
struct Rec {
    /// Offset of this vertex's output inside the chunk region (0-length
    /// and meaningless when unchanged).
    off: u32,
    len: u32,
    entries: u64,
    relaxations: u64,
    changed: bool,
    /// New-entry mask of the output (meaningful only when changed).
    mask: u64,
}

/// One chunk's append region: the entry/rank columns the chunk's
/// recomputations write (changed states only — unchanged output is
/// truncated away immediately), plus the per-vertex records. Slot `i`
/// of an [`ArenaScratch`] serves chunk `i` of whichever hop runs on it,
/// and the hop clears it before writing.
#[derive(Clone, Debug, Default)]
struct ChunkBuf {
    entries: Vec<(NodeId, Dist)>,
    ranks: Vec<u32>,
    recs: Vec<Rec>,
}

/// The hop-lifetime buffers of an [`ArenaEngine::step`]: one append
/// region per scheduling chunk and the hop's per-touched-position
/// changed flags. A step clears each buffer before writing it and never
/// reads what an earlier step left, so one scratch serves any engine,
/// lane or hop; only its capacity carries over.
#[derive(Clone, Debug, Default)]
pub struct ArenaScratch {
    chunks: Vec<ChunkBuf>,
    changed: Vec<bool>,
}

#[cfg(test)]
impl ArenaScratch {
    /// A scratch whose every buffer holds junk a hop must never read:
    /// out-of-range entries, bogus records, set changed flags.
    pub(crate) fn junk(n: usize) -> Self {
        let junk_region = ChunkBuf {
            entries: vec![(n as NodeId + 7, Dist::new(0.5)); 3 * n],
            ranks: vec![u32::MAX; 3 * n],
            recs: vec![
                Rec {
                    off: u32::MAX,
                    len: 5,
                    entries: 77,
                    relaxations: 88,
                    changed: true,
                    mask: 0,
                };
                n
            ],
        };
        ArenaScratch {
            chunks: vec![junk_region; 16],
            changed: vec![true; 3 * n],
        }
    }
}

/// The arena-backed iteration engine: the `FrontierSchedule` of the
/// owned [`crate::engine::MbfEngine`] driving copy-on-write hops over an
/// [`EpochStore`]. The engine keeps what must persist between hops
/// (schedule, taints, new-entry masks); the store and the hop's
/// [`ArenaScratch`] are passed per step, so callers (the oracle) can own
/// several state vectors and share scratch between them.
#[derive(Clone, Debug)]
pub struct ArenaEngine {
    sched: FrontierSchedule,
    /// Taints for externally rewritten vertices (see
    /// [`RecomputeCtx::require_full`]): a tainted `v` must do one
    /// full-merge recomputation. Cleared per vertex when it is
    /// recomputed, wholesale on [`ArenaEngine::mark_all_dirty`].
    taint: crate::engine::TaintTable,
    /// Per-vertex new-entry masks, written at commit for every changed
    /// vertex and reset to [`MASK_ALL`] by external edits (see
    /// [`RecomputeCtx::neighbor_new_mask`]).
    new_masks: Vec<u64>,
}

impl ArenaEngine {
    /// A fresh engine with the given scheduling strategy.
    pub fn new(strategy: EngineStrategy) -> Self {
        ArenaEngine {
            sched: FrontierSchedule::new(strategy),
            taint: crate::engine::TaintTable::new(),
            new_masks: Vec::new(),
        }
    }

    /// Resets every new-entry mask to [`MASK_ALL`]: some state was
    /// written outside the engine, so neighbors read it in full until
    /// the next commit records fresh masks.
    fn invalidate_masks(&mut self, n: usize) {
        self.new_masks.clear();
        self.new_masks.resize(n, MASK_ALL);
    }

    /// The engine's scheduling strategy.
    pub fn strategy(&self) -> EngineStrategy {
        self.sched.strategy()
    }

    /// The frontier list: ascending, no duplicates.
    pub fn frontier(&self) -> &[NodeId] {
        self.sched.frontier()
    }

    /// See [`crate::engine::MbfEngine::enable_change_log`].
    pub fn enable_change_log(&mut self) {
        self.sched.enable_change_log();
    }

    /// See [`crate::engine::MbfEngine::drain_change_log`].
    pub fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.sched.drain_change_log(out);
    }

    /// See [`crate::engine::MbfEngine::mark_all_dirty`]. Also clears
    /// all taints: the next hop merges every neighbor of every vertex
    /// anyway (the whole graph is on the frontier). Invalidates the
    /// new-entry masks.
    pub fn mark_all_dirty(&mut self, g: &Graph) {
        self.sched.mark_all_dirty(g);
        self.taint.reset(g.n());
        self.invalidate_masks(g.n());
    }

    /// Sizes the schedule and taint table for `g` with an **empty**
    /// frontier (cf. [`crate::engine::MbfEngine::prime`]): a following
    /// [`ArenaEngine::mark_dirty`] then seeds exactly its vertices
    /// instead of falling back to the all-dirty restart. Used by the
    /// checkpoint-resume path. Invalidates the new-entry masks.
    pub fn prime(&mut self, g: &Graph) {
        self.sched.ensure_sized(g);
        self.taint.ensure_sized(g.n());
        self.invalidate_masks(g.n());
    }

    /// See [`crate::engine::MbfEngine::mark_dirty`]. The seeded
    /// vertices are additionally **tainted**: their states were
    /// rewritten outside the engine, so their next recomputation must
    /// merge every neighbor (see [`RecomputeCtx::require_full`]). Also
    /// invalidates the new-entry masks, so the seeded states are read
    /// in full by their neighbors.
    pub fn mark_dirty(&mut self, g: &Graph, vs: impl IntoIterator<Item = NodeId>) {
        if !self.sched.sized_for(g.n()) {
            // Falls back to an all-dirty restart inside the schedule;
            // keep the taint table and masks in sync.
            self.mark_all_dirty(g);
            return;
        }
        self.invalidate_masks(g.n());
        let taint = &mut self.taint;
        self.sched
            .mark_dirty(g, vs.into_iter().inspect(|&v| taint.taint(v)));
    }

    /// One hop `x ← r^V A x` over the span-backed state vector, with
    /// all edge weights multiplied by `weight_scale`, writing its chunk
    /// regions into `scratch` (whose prior contents it never reads).
    /// Bit-identical to [`crate::engine::MbfEngine::step`] on the
    /// exported states; returns the work spent (including storage
    /// counters) and whether any state changed.
    pub fn step<A: ArenaMbfAlgorithm>(
        &mut self,
        alg: &A,
        g: &Graph,
        store: &mut EpochStore,
        scratch: &mut ArenaScratch,
        weight_scale: f64,
    ) -> (WorkStats, bool) {
        let n = g.n();
        assert_eq!(n, store.len(), "state store / graph size mismatch");
        if !self.sched.sized_for(n) {
            self.mark_all_dirty(g);
        }
        self.sched.plan_hop(g);
        let touched: &[NodeId] = self.sched.touched();
        let chunks: &[std::ops::Range<usize>] = self.sched.chunks();
        let k = chunks.len();
        if scratch.chunks.len() < k {
            scratch.chunks.resize_with(k, ChunkBuf::default);
        }

        // Recompute phase: each chunk pulls its vertices' next states
        // out of the (immutably shared) store and writes them into its
        // own append region — disjoint plain buffers, no aliasing, no
        // synchronization. Unchanged output is truncated away on the
        // spot, so quiescent vertices contribute zero bytes.
        let store_ref: &EpochStore = store;
        let ctx = RecomputeCtx {
            sched: &self.sched,
            taint: &self.taint,
            new_masks: &self.new_masks,
        };
        scratch.chunks[..k]
            .par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .for_each(|(ci, buf)| {
                buf.entries.clear();
                buf.ranks.clear();
                buf.recs.clear();
                for p in chunks[ci].clone() {
                    let v = touched[p];
                    let start = buf.entries.len();
                    let r = {
                        let mut out = SpanOut::with_rank_column(
                            &mut buf.entries,
                            &mut buf.ranks,
                            A::USES_RANK_COLUMN,
                        );
                        alg.recompute_span(v, g, weight_scale, store_ref, &ctx, &mut out)
                    };
                    let len = buf.entries.len() - start;
                    let (changed, mask) = if r.unchanged_hint {
                        debug_assert_eq!(len, 0, "unchanged_hint with written output");
                        (false, 0)
                    } else {
                        diff_mask(store_ref.get(v).entries, &buf.entries[start..])
                    };
                    if !changed {
                        // Copy-on-write: the vertex keeps its old span;
                        // the speculative output never reaches the pool.
                        buf.entries.truncate(start);
                        buf.ranks.truncate(start);
                    }
                    buf.recs.push(Rec {
                        off: start as u32,
                        len: if changed { len as u32 } else { 0 },
                        entries: r.entries,
                        relaxations: r.relaxations,
                        changed,
                        mask,
                    });
                }
            });

        // Commit phase (sequential, deterministic): open the next
        // epoch — possibly compacting first — then concatenate the
        // chunk regions into the pool in chunk order and retarget the
        // spans of changed vertices.
        //
        // Fault-injection site: a `panic` here unwinds with the commit
        // not yet applied, leaving the store on the previous epoch.
        if mte_faults::check_for(
            mte_faults::FaultSite::EngineHopCommit,
            &[mte_faults::FaultKind::Panic],
        )
        .is_some()
        {
            mte_faults::trigger_panic(mte_faults::FaultSite::EngineHopCommit);
        }
        let before = store.stats();
        let total_new: usize = scratch.chunks[..k].iter().map(|b| b.entries.len()).sum();
        store.begin_epoch(total_new);
        scratch.changed.clear();
        let mut entries = 0u64;
        let mut relaxations = 0u64;
        let mut any_changed = false;
        for (ci, buf) in scratch.chunks[..k].iter().enumerate() {
            let base = store.append_region(&buf.entries, &buf.ranks);
            debug_assert_eq!(buf.recs.len(), chunks[ci].len());
            for (rec, p) in buf.recs.iter().zip(chunks[ci].clone()) {
                entries += rec.entries;
                relaxations += rec.relaxations;
                if rec.changed {
                    store.set_span(touched[p], base + rec.off, rec.len);
                    self.new_masks[touched[p] as usize] = rec.mask;
                    any_changed = true;
                }
                scratch.changed.push(rec.changed);
            }
        }
        debug_assert_eq!(scratch.changed.len(), touched.len());

        // Every touched vertex was recomputed (tainted ones with full
        // merges), so its taint is discharged.
        for &v in touched {
            self.taint.discharge(v);
        }

        let touched_vertices = touched.len() as u64;
        let changed: &[bool] = &scratch.changed;
        self.sched.refresh(g, |p| changed[p]);

        let mut work = WorkStats {
            iterations: 1,
            entries_processed: entries,
            edge_relaxations: relaxations,
            touched_vertices,
            ..WorkStats::default()
        };
        work += storage_delta(before, store.stats());
        (work, any_changed)
    }
}

/// Builds the initial span-backed state vector `r^V x⁽⁰⁾`: one pool
/// bulk-load instead of `n` per-vertex map buffers. The rank column is
/// allocated only when the algorithm opts in
/// ([`ArenaMbfAlgorithm::USES_RANK_COLUMN`]).
pub fn initial_store<A: ArenaMbfAlgorithm>(alg: &A, n: usize) -> EpochStore {
    let states = initial_states(alg, n);
    let mut store = EpochStore::with_rank_column(n, A::USES_RANK_COLUMN);
    store.import(&states, |u| alg.entry_aux(u));
    store
}

/// Iterates the arena backend to the fixpoint, capped at `cap` hops
/// (cf. [`crate::engine::run_to_fixpoint_with`]: the confirming hop is
/// counted).
pub fn run_to_fixpoint_arena_with<A: ArenaMbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
) -> MbfRun<DistanceMap> {
    let backend = ArenaBackend::new(alg, g, strategy, None);
    let policy = CheckpointPolicy::disabled();
    match drive(alg, g, backend, 0, cap, policy, |_| Ok(())) {
        Ok((run, _)) => run,
        Err(e) => unreachable!("no-op sink cannot fail: {e}"),
    }
}

/// The arena backend of the fixpoint driver: an [`ArenaEngine`], the
/// epoch pool it steps, and the one hop scratch its steps share.
pub(crate) struct ArenaBackend {
    engine: ArenaEngine,
    store: EpochStore,
    scratch: ArenaScratch,
    /// The initial pool load, charged before the first hop.
    setup: WorkStats,
}

impl ArenaBackend {
    /// `r^V x⁽⁰⁾` bulk-loaded into a fresh pool with every vertex dirty,
    /// or `from`'s states with exactly its recorded frontier seeded (and
    /// tainted: those spans were written outside the engine).
    pub(crate) fn new<A: ArenaMbfAlgorithm>(
        alg: &A,
        g: &Graph,
        strategy: EngineStrategy,
        from: Option<&Checkpoint<DistanceMap>>,
    ) -> Self {
        let mut engine = ArenaEngine::new(strategy);
        let store = match from {
            None => {
                engine.mark_all_dirty(g);
                initial_store(alg, g.n())
            }
            Some(ckpt) => {
                engine.prime(g);
                engine.mark_dirty(g, ckpt.frontier.iter().copied());
                let mut store = EpochStore::with_rank_column(g.n(), A::USES_RANK_COLUMN);
                store.import(&ckpt.states, |u| alg.entry_aux(u));
                store
            }
        };
        let setup = storage_work(store.stats());
        ArenaBackend {
            engine,
            store,
            scratch: ArenaScratch::default(),
            setup,
        }
    }
}

impl<A: ArenaMbfAlgorithm> Backend<A> for ArenaBackend {
    fn hop(&mut self, alg: &A, g: &Graph) -> (WorkStats, bool) {
        self.engine
            .step(alg, g, &mut self.store, &mut self.scratch, 1.0)
    }

    fn frontier(&self) -> &[NodeId] {
        self.engine.frontier()
    }

    /// Reads the pool through the raw span accessor: a capture records
    /// the true epoch state without consuming `arena_span_read` fault
    /// arrivals.
    fn capture(&self) -> Vec<DistanceMap> {
        self.store.export_raw()
    }

    fn setup_work(&self) -> WorkStats {
        self.setup
    }

    fn finish(self) -> (Vec<DistanceMap>, Vec<Degradation>) {
        (self.store.export(), Vec::new())
    }
}

// ---------------------------------------------------------------------
// The arena oracle: Λ+1 level lanes over one shared arena scratch.
// ---------------------------------------------------------------------

/// The arena oracle lane, the one `FrtEmbedding::sample` runs: `y_λ` as
/// one pool lane and span table, stepped by an [`ArenaEngine`] — `O(Λ)`
/// buffers in total, no per-vertex maps. Its hops write into an
/// [`ArenaScratch`] the oracle checks out per level task.
pub struct ArenaLevel {
    engine: ArenaEngine,
    store: EpochStore,
}

impl<A: ArenaMbfAlgorithm> Lane<A> for ArenaLevel {
    type X = Vec<DistanceMap>;
    type Staged = DistanceMap;
    type Scratch = ArenaScratch;

    fn new(_: &A, strategy: EngineStrategy, n: usize) -> Self {
        let mut engine = ArenaEngine::new(strategy);
        engine.enable_change_log();
        ArenaLevel {
            engine,
            store: EpochStore::with_rank_column(n, A::USES_RANK_COLUMN),
        }
    }

    fn project(&mut self, alg: &A, x: &Self::X, v: NodeId, keep: bool) -> bool {
        let want: &[(NodeId, Dist)] = if keep { x[v as usize].entries() } else { &[] };
        let differs = self.store.get(v).entries != want;
        if differs {
            self.store.assign(v, want, |u| alg.entry_aux(u));
        }
        differs
    }

    /// Appends the merged span only when it differs, so a round after a
    /// small aggregation change copies a handful of spans instead of
    /// re-projecting the lane.
    fn absorb(&mut self, alg: &A, x: &Self::X, v: NodeId) -> bool {
        with_arena_acc(|acc| {
            acc.assign_from_entries(self.store.get(v).entries);
            acc.merge_min_entries(x[v as usize].entries());
            alg.filter(acc);
            let changed = acc.entries() != self.store.get(v).entries;
            if changed {
                self.store.assign(v, acc.entries(), |u| alg.entry_aux(u));
            }
            changed
        })
    }

    fn poison(&mut self, alg: &A) {
        if !self.store.is_empty() {
            let mut state = self.store.get_raw(0).to_map();
            state.poison();
            self.store.assign(0, state.entries(), |u| alg.entry_aux(u));
        }
    }

    fn mark_dirty(&mut self, g: &Graph, seeds: Option<&[NodeId]>) {
        match seeds {
            None => self.engine.mark_all_dirty(g),
            Some(seeds) => self.engine.mark_dirty(g, seeds.iter().copied()),
        }
    }

    fn hop(
        &mut self,
        alg: &A,
        g: &Graph,
        scratch: &mut ArenaScratch,
        scale: f64,
    ) -> (WorkStats, bool) {
        self.engine.step(alg, g, &mut self.store, scratch, scale)
    }

    fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.engine.drain_change_log(out);
    }

    fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    fn folder<'a>(
        alg: &'a A,
        x: &'a mut Self::X,
    ) -> impl Fn(&[Level<Self>], NodeId) -> Option<DistanceMap> + Sync + 'a {
        let x: &Self::X = x;
        move |lanes, v| {
            let mut acc = DistanceMap::new();
            for level in lanes {
                acc.merge_min_entries(level.lane.store.get(v).entries);
            }
            alg.filter(&mut acc);
            (acc != x[v as usize]).then_some(acc)
        }
    }

    fn commit(x: &mut Self::X, staged: Vec<(NodeId, DistanceMap)>) {
        for (v, m) in staged {
            x[v as usize] = m;
        }
    }
    fn capture(x: &Self::X) -> Vec<DistanceMap> {
        x.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
    use crate::engine::{run_to_fixpoint_with, MbfEngine};
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arena_sssp_matches_owned_engine() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = gnm_graph(60, 150, 1.0..9.0, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 3);
        for strategy in [
            EngineStrategy::Dense,
            EngineStrategy::Frontier,
            EngineStrategy::default(),
        ] {
            let owned = run_to_fixpoint_with(&alg, &g, g.n() + 1, strategy);
            let arena = run_to_fixpoint_arena_with(&alg, &g, g.n() + 1, strategy);
            assert_eq!(owned.states, arena.states, "{strategy:?}");
            assert_eq!(owned.iterations, arena.iterations);
            assert_eq!(owned.fixpoint, arena.fixpoint);
            // The schedule is shared, so touched counts agree exactly;
            // the arena may skip provably-absorbed merges, so its
            // relaxation count can only be lower.
            assert!(
                arena.work.edge_relaxations <= owned.work.edge_relaxations,
                "{strategy:?}"
            );
            assert_eq!(owned.work.touched_vertices, arena.work.touched_vertices);
        }
    }

    #[test]
    fn arena_copy_on_write_beats_owned_copy_traffic() {
        // On a path, the SSSP wave is O(1) vertices per hop: the owned
        // backend still rewrites every touched state while the arena
        // appends only the wave.
        let g = path_graph(256, 1.0);
        let alg = SourceDetection::sssp(g.n(), 0);
        let owned = run_to_fixpoint_with(&alg, &g, g.n() + 1, EngineStrategy::Frontier);
        let arena = run_to_fixpoint_arena_with(&alg, &g, g.n() + 1, EngineStrategy::Frontier);
        assert_eq!(owned.states, arena.states);
        assert!(
            arena.work.bytes_copied * 2 < owned.work.bytes_copied,
            "arena {} !< owned {} / 2",
            arena.work.bytes_copied,
            owned.work.bytes_copied
        );
        assert!(arena.work.alloc_count < owned.work.alloc_count);
        assert!(arena.work.arena_bytes > 0 && owned.work.arena_bytes == 0);
    }

    #[test]
    fn rank_column_is_per_algorithm_and_cuts_append_traffic() {
        use crate::frt::le_list::{LeListAlgorithm, Ranks};
        use mte_algebra::store::{ENTRY_BYTES, ENTRY_BYTES_UNRANKED};
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(73);
        let g = gnm_graph(50, 140, 1.0..8.0, &mut rng);

        // Source detection never reads ranks: its store is unranked and
        // every entry costs 16 B instead of 20 — the ROADMAP's "20%
        // dead rank traffic" item.
        let sssp = SourceDetection::sssp(g.n(), 0);
        const { assert!(!SourceDetection::USES_RANK_COLUMN) };
        let store = initial_store(&sssp, g.n());
        assert!(!store.is_ranked());
        assert_eq!(store.entry_bytes(), ENTRY_BYTES_UNRANKED);
        let run = run_to_fixpoint_arena_with(&sssp, &g, g.n() + 1, EngineStrategy::Frontier);
        let owned = run_to_fixpoint_with(&sssp, &g, g.n() + 1, EngineStrategy::Frontier);
        assert_eq!(run.states, owned.states);

        // The LE lists opt in; their probe needs the pool ranks.
        const { assert!(LeListAlgorithm::USES_RANK_COLUMN) };
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let le_store = initial_store(&LeListAlgorithm::new(ranks), g.n());
        assert!(le_store.is_ranked());
        assert_eq!(le_store.entry_bytes(), ENTRY_BYTES);
    }

    #[test]
    fn arena_step_survives_external_edits_and_compaction() {
        let mut rng = StdRng::seed_from_u64(72);
        let g = gnm_graph(40, 100, 1.0..6.0, &mut rng);
        let alg = SourceDetection::k_ssp(g.n(), 3);

        let mut owned_states = initial_states(&alg, g.n());
        let mut owned_engine = MbfEngine::new(EngineStrategy::Frontier);
        owned_engine.mark_all_dirty(&g);
        let mut store = initial_store(&alg, g.n());
        let mut engine = ArenaEngine::new(EngineStrategy::Frontier);
        engine.mark_all_dirty(&g);
        let scratch = &mut ArenaScratch::default();

        for round in 0..6u64 {
            // External sparse edit on both backends.
            let v = (round * 7 % g.n() as u64) as NodeId;
            let edit = alg.init((v + 1) % g.n() as NodeId);
            owned_states[v as usize] = edit.clone();
            owned_engine.mark_dirty(&g, [v]);
            store.assign(v, edit.entries(), |u| alg.entry_aux(u));
            engine.mark_dirty(&g, [v]);
            // Interleave a forced compaction: spans move, states must
            // not.
            if round % 2 == 1 {
                store.compact();
            }
            for _ in 0..3 {
                owned_engine.step(&alg, &g, &mut owned_states, 1.0);
                engine.step(&alg, &g, &mut store, scratch, 1.0);
            }
            assert_eq!(store.export(), owned_states, "round {round}");
        }
    }

    /// The LE twin of the test above, compared after **every** hop: an
    /// external edit must reset the new-entry masks, or a neighbor of
    /// the edited vertex would skip entries it never absorbed.
    #[test]
    fn arena_le_step_survives_external_edits_and_compaction() {
        use crate::frt::le_list::{LeListAlgorithm, Ranks};
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(74);
        let g = gnm_graph(40, 100, 1.0..6.0, &mut rng);
        let alg = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));

        let mut owned_states = initial_states(&alg, g.n());
        let mut owned_engine = MbfEngine::new(EngineStrategy::Frontier);
        owned_engine.mark_all_dirty(&g);
        let mut store = initial_store(&alg, g.n());
        let mut engine = ArenaEngine::new(EngineStrategy::Frontier);
        engine.mark_all_dirty(&g);
        let scratch = &mut ArenaScratch::default();

        for round in 0..8u64 {
            let v = (round * 7 % g.n() as u64) as NodeId;
            let edit = alg.init((v + 1) % g.n() as NodeId);
            owned_states[v as usize] = edit.clone();
            owned_engine.mark_dirty(&g, [v]);
            store.assign(v, edit.entries(), |u| alg.entry_aux(u));
            engine.mark_dirty(&g, [v]);
            store.compact();
            for hop in 0..3 {
                let (wo, co) = owned_engine.step(&alg, &g, &mut owned_states, 1.0);
                let (wa, ca) = engine.step(&alg, &g, &mut store, scratch, 1.0);
                assert_eq!(store.export(), owned_states, "round {round} hop {hop}");
                assert_eq!(ca, co, "round {round} hop {hop}");
                assert_eq!(wa.entries_processed, wo.entries_processed);
            }
        }
    }
}
