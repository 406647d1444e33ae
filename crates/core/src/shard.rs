//! The **fault-tolerant sharded engine**: vertex-range shards with
//! typed exchange, deterministic re-execution, and quarantine.
//!
//! The paper's PRAM construction decomposes each MBF hop into
//! independent per-vertex work recombined through a reduction — the
//! seam the worker pool's fixed-shape reduction tree and the
//! degree-balanced chunking already exploit. This module promotes that
//! seam to real **vertex-range shards** in the style of the MPC
//! construction of "Tree Embedding in High Dimensions" (arXiv
//! 2510.22490): each shard owns a contiguous vertex range, runs every
//! hop shard-locally against its own state mirror, and recombines with
//! its siblings through explicit typed [`ExchangeMsg`] values carrying
//! **only cross-shard frontier entries** — the changed states with an
//! edge into another shard's range.
//!
//! # Protocol
//!
//! Every live shard holds a full-length *mirror* of the state vector
//! that is authoritative on its owned ranges and fresh on their closed
//! neighborhood (it receives every remote change adjacent to its
//! ranges). One hop is a barriered round:
//!
//! 1. **Local recompute** (parallel, panic-isolated per shard): each
//!    shard pull-recomputes the owned closed neighborhood of its dirty
//!    set against its mirror and *stages* the changed entries. Nothing
//!    is committed.
//! 2. **Exchange build** (deterministic coordinator order): for every
//!    ordered pair of live shards one [`ExchangeMsg`] is built — even
//!    when empty, so a *missing* message is detectable — carrying the
//!    sender's changed entries that have an edge into the receiver's
//!    ranges, a per-message sequence number, and an order-sensitive
//!    FNV-1a digest over the canonical (ascending-node) entry order.
//! 3. **Validation**: receivers check sequence number, per-channel
//!    message count (drop/duplicate), ascending entry order, sender
//!    ownership of every entry, digest, and per-entry sanity. Any
//!    mismatch is a typed [`RunError::ShardExchangeCorrupt`] — never a
//!    silently wrong embedding.
//! 4. **Commit**: only after every message validated and the fault
//!    audit came back clean are owned changes and validated deliveries
//!    applied to the mirrors. A failed hop therefore leaves every
//!    mirror at its hop-entry state, which is what makes re-execution
//!    exact (the PR 8 checkpoint skip-exactness argument: identical
//!    inputs, deterministic recompute, identical outputs).
//!
//! # Supervision
//!
//! [`ShardSupervisor`] re-executes a failed hop from its hop-entry
//! state up to a bounded retry budget
//! ([`Degradation::ShardReExecuted`]); when the budget is exhausted
//! and a culprit shard is attributable (panic origin, corrupt channel
//! sender, or insane staged entry), the culprit's vertex ranges are
//! **quarantined** and taken over by a sibling shard — the sibling
//! copies the authoritative and halo states for those ranges out of
//! the quarantined shard's hop-entry mirror
//! ([`Degradation::ShardQuarantined`]) — and the hop re-runs under the
//! new ownership. With one live shard left, failures surface as
//! [`RunError::RetriesExhausted`].
//!
//! # Invariant
//!
//! Because every hop recomputes exactly the unsharded engine's touched
//! set against hop-entry states, engine outputs are **bit-identical
//! across shard counts, `MTE_THREADS`, and every survivable fault
//! arrival** — enforced by `tests/shard_equivalence.rs` and
//! `tests/shard_faults.rs`.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mte_algebra::{NodeId, Semimodule};
use mte_faults::{self as faults, FaultKind, FaultSite};
use mte_graph::Graph;

use crate::engine::{initial_states, MbfAlgorithm};
use crate::error::{check_states, panic_to_error, Degradation, RunError, RunReport};
use crate::work::WorkStats;

/// Model-level bytes per exchanged state entry (node id + value), the
/// same unit as the engine's `OWNED_ENTRY_BYTES`.
pub const EXCHANGE_ENTRY_BYTES: u64 = 16;

/// Model-level bytes per message header (channel, hop, seq, digest,
/// length).
pub const EXCHANGE_HEADER_BYTES: u64 = 32;

/// The message-level fault kinds the exchange sites accept.
const MSG_KINDS: [FaultKind; 4] = [
    FaultKind::DropMsg,
    FaultKind::DupMsg,
    FaultKind::ReorderMsg,
    FaultKind::CorruptMsg,
];

// ---------------------------------------------------------------------
// Partitioning.

/// A partition of `0..n` into contiguous vertex ranges, one per shard
/// slot. Degree-balanced: range boundaries are cut on the cumulative
/// `deg(v) + 1` cost prefix, the same cost model as the frontier
/// schedule's chunking, so shards carry comparable relaxation work on
/// skewed graphs. A pure function of `(graph, shards)` — partitioning
/// never depends on thread count or timing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// `starts[i]..starts[i + 1]` is slot `i`'s range; `starts[0] == 0`
    /// and `starts[shards] == n`. Ranges may be empty on tiny graphs.
    starts: Vec<NodeId>,
}

impl ShardSpec {
    /// Cuts `g`'s vertex set into `shards` contiguous degree-balanced
    /// ranges.
    pub fn balanced(g: &Graph, shards: usize) -> ShardSpec {
        assert!(shards >= 1, "a spec needs at least one shard");
        let n = g.n();
        let total: u64 = (0..n as NodeId).map(|v| g.degree(v) as u64 + 1).sum();
        let k = shards as u64;
        let mut starts = Vec::with_capacity(shards + 1);
        starts.push(0);
        let mut acc = 0u64;
        for v in 0..n as NodeId {
            acc += g.degree(v) as u64 + 1;
            let closed = starts.len() as u64 - 1;
            // Same boundary rule as the hop chunker: close range `closed`
            // once its share of the total cost is met, keeping the last
            // range open for the remainder.
            if closed + 1 < k && acc * k >= (closed + 1) * total {
                starts.push(v + 1);
            }
        }
        while starts.len() < shards + 1 {
            starts.push(n as NodeId);
        }
        ShardSpec { starts }
    }

    /// Number of shard slots (quarantined slots keep their ranges in
    /// the spec; ownership moves in the engine).
    pub fn shard_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Vertices covered.
    pub fn n(&self) -> usize {
        *self.starts.last().expect("spec has a sentinel") as usize
    }

    /// Slot `i`'s contiguous range.
    pub fn range(&self, i: usize) -> Range<NodeId> {
        self.starts[i]..self.starts[i + 1]
    }

    /// The slot whose range contains `v`.
    pub fn slot_of(&self, v: NodeId) -> usize {
        // Binary search over range starts; `partition_point` returns the
        // first start beyond `v`, whose predecessor owns it. Empty
        // ranges are skipped naturally (their start equals the next).
        self.starts.partition_point(|&s| s <= v) - 1
    }
}

// ---------------------------------------------------------------------
// Exchange messages.

/// One cross-shard frontier entry: a changed vertex and its new state.
#[derive(Clone, Debug, PartialEq)]
pub struct ExchangeEntry<M> {
    /// The changed vertex (owned by the sending shard).
    pub node: NodeId,
    /// Its post-hop state.
    pub state: M,
}

/// A typed cross-shard exchange message — the **only** sanctioned way
/// state crosses a shard boundary (enforced by the `shard-isolation`
/// rule of `cargo xtask analyze`). One message per ordered pair of
/// live shards per hop, empty when the sender has no boundary changes
/// for the receiver, so a dropped message is always detectable.
#[derive(Clone, Debug, PartialEq)]
pub struct ExchangeMsg<M> {
    /// Sending shard id.
    pub from_shard: u32,
    /// Receiving shard id.
    pub to_shard: u32,
    /// 1-based hop this exchange serves.
    pub hop: u64,
    /// Per-message sequence number; the protocol sends exactly one
    /// message per channel per hop, so `seq == hop` — a duplicate,
    /// reordered, or replayed message breaks the equation.
    pub seq: u64,
    /// Order-sensitive FNV-1a checksum over the canonical
    /// (ascending-node) entry order, mixed with the channel and hop.
    pub digest: u64,
    /// The cross-shard frontier entries, ascending by node.
    pub entries: Vec<ExchangeEntry<M>>,
}

#[inline]
fn fnv_step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The canonical message digest: FNV-1a over channel, hop, entry count
/// and the entry nodes **in order** — so dropped, injected, renamed,
/// and reordered entries all shift the checksum.
pub fn exchange_digest(from_shard: u32, to_shard: u32, hop: u64, nodes: &[NodeId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv_step(h, from_shard as u64);
    h = fnv_step(h, to_shard as u64);
    h = fnv_step(h, hop);
    h = fnv_step(h, nodes.len() as u64);
    for &v in nodes {
        h = fnv_step(h, v as u64 + 1);
    }
    h
}

// ---------------------------------------------------------------------
// Engine state.

/// One shard's private state. Cross-shard code must not reach into
/// this store directly — every access outside the commit/transfer seam
/// is a `shard-isolation` finding.
#[derive(Clone, Debug)]
struct ShardState<M> {
    /// Still executing (false once quarantined).
    live: bool,
    /// Spec slots this shard currently owns (its own, plus any taken
    /// over from quarantined siblings).
    owned_slots: Vec<usize>,
    /// Full-length state mirror: authoritative on owned ranges, fresh
    /// on their closed neighborhood, stale (and never read) elsewhere.
    mirror: Vec<M>,
    /// Vertices whose state changed last hop and are relevant here:
    /// owned changes plus delivered remote changes. Sorted ascending.
    dirty: Vec<NodeId>,
}

/// Per-shard output of the parallel recompute phase.
struct ShardHopOut<M> {
    /// Owned vertices whose recomputed state differs, ascending, with
    /// the staged new state.
    changed: Vec<(NodeId, M)>,
    entries: u64,
    relaxations: u64,
    touched: u64,
    bytes: u64,
}

/// Everything a successful hop attempt staged; applied by
/// [`ShardedEngine::commit`], dropped wholesale on failure.
struct StagedHop<M> {
    /// Per shard slot: staged owned changes.
    changed: Vec<Vec<(NodeId, M)>>,
    /// Per shard slot: validated deliveries to apply to the mirror.
    deliveries: Vec<Vec<(NodeId, M)>>,
    /// Work delta for this hop (including exchange volume).
    work: WorkStats,
    /// Fold of every message digest in build order.
    hop_digest: u64,
    /// Whether any shard changed any state.
    changed_any: bool,
}

/// A hop attempt failed; mirrors are untouched (commit never ran).
struct HopFailure {
    error: RunError,
    /// The shard to blame, when attributable: the panicking shard, the
    /// corrupt channel's sender, or the owner of an insane staged
    /// entry.
    culprit: Option<u32>,
}

/// Result of a sharded fixpoint run, mirroring
/// [`MbfRun`](crate::engine::MbfRun) plus the exchange digests.
#[derive(Clone, Debug)]
pub struct ShardedRun<M> {
    /// Final states, gathered from the owning shards' mirrors —
    /// bit-identical to the unsharded engine's.
    pub states: Vec<M>,
    /// Hops executed (the confirming hop included, like the unsharded
    /// fixpoint driver).
    pub iterations: usize,
    /// Whether the fixpoint was reached within the cap.
    pub fixpoint: bool,
    /// Work accounting, including `shard_msgs`/`shard_msg_bytes`.
    pub work: WorkStats,
    /// One digest per committed hop: the fold of every exchange
    /// message's digest in canonical build order. A pure function of
    /// the input, so stable across `MTE_THREADS` and re-execution.
    pub hop_digests: Vec<u64>,
}

/// Retry/quarantine budget of the [`ShardSupervisor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Re-executions of a failed hop before the culprit is quarantined
    /// (or, with no culprit/sibling, the run fails).
    pub max_hop_retries: u32,
    /// Whether an attributable repeat offender may be quarantined and
    /// its ranges taken over by a sibling.
    pub allow_quarantine: bool,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            max_hop_retries: 2,
            allow_quarantine: true,
        }
    }
}

/// The sharded engine: owns the shard states and drives barriered
/// hops. Use [`try_run_sharded_to_fixpoint_with`] (fail-fast) or
/// [`ShardSupervisor`] (re-execution + quarantine) instead of driving
/// it manually.
pub struct ShardedEngine<A: MbfAlgorithm> {
    spec: ShardSpec,
    /// Spec slot -> owning shard id (quarantine reassigns).
    slot_owner: Vec<u32>,
    shards: Vec<ShardState<A::M>>,
    /// Committed hops.
    hop: u64,
    work: WorkStats,
    hop_digests: Vec<u64>,
}

impl<A: MbfAlgorithm> ShardedEngine<A> {
    /// A fresh engine over `spec`, every shard holding the filtered
    /// initial states and an all-dirty first frontier (the first hop
    /// recomputes every owned vertex, like the unsharded engine's
    /// `mark_all_dirty`).
    pub fn new(alg: &A, g: &Graph, spec: ShardSpec) -> Self {
        assert_eq!(spec.n(), g.n(), "spec must cover the graph");
        let k = spec.shard_count();
        let init = initial_states(alg, g.n());
        let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let shards: Vec<ShardState<A::M>> = (0..k)
            .map(|i| ShardState {
                live: true,
                owned_slots: vec![i],
                mirror: init.clone(),
                dirty: all.clone(),
            })
            .collect();
        // Each shard materializes one full-length mirror.
        let work = WorkStats {
            alloc_count: k as u64,
            ..WorkStats::default()
        };
        ShardedEngine {
            slot_owner: (0..k as u32).collect(),
            spec,
            shards,
            hop: 0,
            work,
            hop_digests: Vec::new(),
        }
    }

    /// The current owner shard of vertex `v`.
    fn owner(&self, v: NodeId) -> u32 {
        self.slot_owner[self.spec.slot_of(v)]
    }

    /// Live shard ids, ascending.
    fn live_ids(&self) -> Vec<u32> {
        (0..self.shards.len() as u32)
            .filter(|&i| self.shards[i as usize].live)
            .collect()
    }

    /// Does `v` have an edge into (or live in) a range owned by `t`?
    fn crosses_into(&self, g: &Graph, v: NodeId, t: u32) -> bool {
        g.neighbors(v).iter().any(|&(w, _)| self.owner(w) == t)
    }

    /// One hop **attempt**: recompute, exchange, validate, audit —
    /// staging everything and mutating nothing. On `Err` the engine is
    /// still exactly at its hop-entry state.
    fn hop_attempt(&self, alg: &A, g: &Graph) -> Result<StagedHop<A::M>, HopFailure> {
        let hop = self.hop + 1;
        let serial = faults::fired_serial();
        let k = self.shards.len();

        // Phase 1: shard-local recompute (parallel, panic-isolated).
        let shards = &self.shards;
        let task = |sid: usize| -> ShardHopOut<A::M> {
            let st = &shards[sid];
            if !st.live {
                return ShardHopOut {
                    changed: Vec::new(),
                    entries: 0,
                    relaxations: 0,
                    touched: 0,
                    bytes: 0,
                };
            }
            // Owned closed neighborhood of the dirty set — exactly the
            // unsharded schedule's touched set restricted to this shard.
            let mut touched: Vec<NodeId> = Vec::new();
            for &d in &st.dirty {
                if self.owner(d) as usize == sid {
                    touched.push(d);
                }
                for &(w, _) in g.neighbors(d) {
                    if self.owner(w) as usize == sid {
                        touched.push(w);
                    }
                }
            }
            touched.sort_unstable();
            touched.dedup();
            let mut out = ShardHopOut {
                changed: Vec::new(),
                entries: 0,
                relaxations: 0,
                touched: touched.len() as u64,
                bytes: 0,
            };
            let mut scratch = <A::M as Semimodule<A::S>>::zero();
            for &v in &touched {
                let (e, r) = alg.recompute_into(v, g, 1.0, &st.mirror, &mut scratch);
                out.entries += e;
                out.relaxations += r;
                if scratch != st.mirror[v as usize] {
                    out.bytes += EXCHANGE_ENTRY_BYTES * alg.state_size(&scratch) as u64;
                    let staged =
                        std::mem::replace(&mut scratch, <A::M as Semimodule<A::S>>::zero());
                    out.changed.push((v, staged));
                }
            }
            if faults::check_panic_or_poison(FaultSite::ShardHopExec) {
                if let Some((_, m)) = out.changed.first_mut() {
                    m.poison();
                }
            }
            out
        };
        let results = match catch_unwind(AssertUnwindSafe(|| rayon::execute_isolated(k, task))) {
            Ok(results) => results,
            // A pool-level panic (e.g. the worker_chunk site) aborts the
            // whole phase; no single shard is to blame.
            Err(payload) => {
                return Err(HopFailure {
                    error: panic_to_error(payload),
                    culprit: None,
                })
            }
        };
        let mut outs: Vec<ShardHopOut<A::M>> = Vec::with_capacity(k);
        for (sid, r) in results.into_iter().enumerate() {
            match r {
                Ok(out) => outs.push(out),
                Err(payload) => {
                    return Err(HopFailure {
                        error: panic_to_error(payload),
                        culprit: Some(sid as u32),
                    })
                }
            }
        }

        // Phase 2: build + tamper + validate the exchange, in
        // deterministic coordinator order.
        let mut work = WorkStats {
            iterations: 1,
            ..WorkStats::default()
        };
        let mut hop_digest = 0xcbf2_9ce4_8422_2325u64;
        for out in &outs {
            work.entries_processed += out.entries;
            work.edge_relaxations += out.relaxations;
            work.touched_vertices += out.touched;
            work.bytes_copied += out.bytes;
        }
        let live = self.live_ids();
        let mut queue: Vec<ExchangeMsg<A::M>> = Vec::new();
        for &s in &live {
            for &t in &live {
                if s == t {
                    continue;
                }
                let entries: Vec<ExchangeEntry<A::M>> = outs[s as usize]
                    .changed
                    .iter()
                    .filter(|(v, _)| self.crosses_into(g, *v, t))
                    .map(|(v, m)| ExchangeEntry {
                        node: *v,
                        state: m.clone(),
                    })
                    .collect();
                let nodes: Vec<NodeId> = entries.iter().map(|e| e.node).collect();
                let digest = exchange_digest(s, t, hop, &nodes);
                work.shard_msgs += 1;
                work.shard_msg_bytes +=
                    EXCHANGE_HEADER_BYTES + EXCHANGE_ENTRY_BYTES * entries.len() as u64;
                hop_digest = fnv_step(hop_digest, digest);
                let mut msg = ExchangeMsg {
                    from_shard: s,
                    to_shard: t,
                    hop,
                    seq: hop,
                    digest,
                    entries,
                };
                // The send-side loss model: tampering is applied after
                // the digest is sealed, so validation must catch it.
                match faults::check_handled(FaultSite::ShardExchangeSend, &MSG_KINDS) {
                    Some(FaultKind::DropMsg) => {}
                    Some(FaultKind::DupMsg) => {
                        queue.push(msg.clone());
                        queue.push(msg);
                    }
                    Some(FaultKind::ReorderMsg) => {
                        msg.entries.reverse();
                        queue.push(msg);
                    }
                    Some(FaultKind::CorruptMsg) => {
                        tamper_corrupt(&mut msg);
                        queue.push(msg);
                    }
                    _ => queue.push(msg),
                }
            }
        }

        // Phase 3: deliver + validate. `seen[s * k + t]` counts the
        // messages accepted on channel s -> t this hop.
        let mut seen = vec![0u32; k * k];
        let mut deliveries: Vec<Vec<(NodeId, A::M)>> = (0..k).map(|_| Vec::new()).collect();
        for msg in queue {
            let copies = match faults::check_handled(FaultSite::ShardExchangeRecv, &MSG_KINDS) {
                Some(FaultKind::DropMsg) => Vec::new(),
                Some(FaultKind::DupMsg) => vec![msg.clone(), msg],
                Some(FaultKind::ReorderMsg) => {
                    let mut m = msg;
                    m.entries.reverse();
                    vec![m]
                }
                Some(FaultKind::CorruptMsg) => {
                    let mut m = msg;
                    tamper_corrupt(&mut m);
                    vec![m]
                }
                _ => vec![msg],
            };
            for msg in copies {
                self.validate_msg(g, hop, &msg)
                    .map_err(|detail| HopFailure {
                        error: RunError::ShardExchangeCorrupt {
                            from_shard: msg.from_shard,
                            to_shard: msg.to_shard,
                            hop,
                            detail,
                        },
                        culprit: Some(msg.from_shard),
                    })?;
                let slot = &mut seen[msg.from_shard as usize * k + msg.to_shard as usize];
                *slot += 1;
                if *slot > 1 {
                    return Err(HopFailure {
                        error: RunError::ShardExchangeCorrupt {
                            from_shard: msg.from_shard,
                            to_shard: msg.to_shard,
                            hop,
                            detail: "duplicate message on channel".to_owned(),
                        },
                        culprit: Some(msg.from_shard),
                    });
                }
                deliveries[msg.to_shard as usize]
                    .extend(msg.entries.into_iter().map(|e| (e.node, e.state)));
            }
        }
        // The drop barrier: every live ordered pair must have delivered
        // exactly one message.
        for &s in &live {
            for &t in &live {
                if s != t && seen[s as usize * k + t as usize] == 0 {
                    return Err(HopFailure {
                        error: RunError::ShardExchangeCorrupt {
                            from_shard: s,
                            to_shard: t,
                            hop,
                            detail: "message missing at hop barrier (dropped)".to_owned(),
                        },
                        culprit: Some(s),
                    });
                }
            }
        }

        // Phase 4: audit. Attribute an insane staged entry to its
        // owner; an unhandled fire (e.g. shard_hop_exec poison) is the
        // ground truth either way.
        let insane = outs.iter().enumerate().find_map(|(sid, out)| {
            out.changed
                .iter()
                .find(|(_, m)| !m.is_sane())
                .map(|(v, _)| (sid as u32, *v))
        });
        if let Some(fired) = faults::first_unhandled_since(serial) {
            return Err(HopFailure {
                error: RunError::InjectedFault {
                    site: fired.site,
                    kind: fired.kind,
                },
                culprit: insane.map(|(sid, _)| sid),
            });
        }
        if let Some((sid, v)) = insane {
            return Err(HopFailure {
                error: RunError::CorruptState { vertex: v },
                culprit: Some(sid),
            });
        }

        let changed_any = outs.iter().any(|o| !o.changed.is_empty());
        Ok(StagedHop {
            changed: outs.into_iter().map(|o| o.changed).collect(),
            deliveries,
            work,
            hop_digest,
            changed_any,
        })
    }

    /// Structural validation of one received message (sequence, order,
    /// ownership, digest, sanity). Returns the failure detail.
    fn validate_msg(&self, g: &Graph, hop: u64, msg: &ExchangeMsg<A::M>) -> Result<(), String> {
        if msg.hop != hop || msg.seq != hop {
            return Err(format!(
                "sequence number mismatch: got hop {}/seq {}, expected {hop}",
                msg.hop, msg.seq
            ));
        }
        let n = g.n() as NodeId;
        let mut prev: Option<NodeId> = None;
        for e in &msg.entries {
            if e.node >= n {
                return Err(format!("entry node {} out of range", e.node));
            }
            if self.owner(e.node) != msg.from_shard {
                return Err(format!(
                    "entry node {} not owned by sending shard {}",
                    e.node, msg.from_shard
                ));
            }
            if prev.is_some_and(|p| p >= e.node) {
                return Err("entries not in canonical ascending order".to_owned());
            }
            prev = Some(e.node);
            if !e.state.is_sane() {
                return Err(format!("entry state for node {} fails sanity", e.node));
            }
        }
        let nodes: Vec<NodeId> = msg.entries.iter().map(|e| e.node).collect();
        let expect = exchange_digest(msg.from_shard, msg.to_shard, hop, &nodes);
        if expect != msg.digest {
            return Err(format!(
                "digest mismatch: message carries {:#018x}, canonical order gives {expect:#018x}",
                msg.digest
            ));
        }
        Ok(())
    }

    /// Applies a validated staged hop: owned commits, deliveries, next
    /// dirty sets, accounting. Infallible — all validation happened in
    /// [`Self::hop_attempt`].
    fn commit(&mut self, staged: StagedHop<A::M>) {
        let StagedHop {
            changed,
            deliveries,
            work,
            hop_digest,
            ..
        } = staged;
        for (sid, (changes, delivered)) in changed.into_iter().zip(deliveries).enumerate() {
            let st = &mut self.shards[sid];
            let mut dirty: Vec<NodeId> = Vec::with_capacity(changes.len() + delivered.len());
            for (v, m) in changes {
                dirty.push(v);
                // Owned commit: the shard's own staged recompute result
                // lands in its authoritative range.
                st.mirror[v as usize] = m; // analyze: shard-ok(owner-side commit seam: staged owned changes land post-validation)
            }
            for (v, m) in delivered {
                dirty.push(v);
                // Halo commit: a validated exchange entry updates this
                // shard's copy of the remote boundary vertex.
                st.mirror[v as usize] = m; // analyze: shard-ok(receiver-side commit seam: validated exchange deliveries only)
            }
            dirty.sort_unstable();
            dirty.dedup();
            st.dirty = dirty;
        }
        self.hop += 1;
        self.work += work;
        self.hop_digests.push(hop_digest);
    }

    /// Quarantines shard `dead` and hands its slots to the next live
    /// sibling (cyclic id order): authoritative states for the dead
    /// shard's ranges **and** their halo are copied out of the dead
    /// shard's hop-entry mirror — intact, because commit never ran on
    /// the failed hop — and the dirty set migrates with them. Returns
    /// the sibling, or `None` when no live sibling exists.
    fn quarantine(&mut self, dead: u32, g: &Graph) -> Option<u32> {
        if !self.shards[dead as usize].live {
            return None;
        }
        let k = self.shards.len() as u32;
        let sib = (1..k)
            .map(|off| (dead + off) % k)
            .find(|&i| self.shards[i as usize].live)?;
        let slots = std::mem::take(&mut self.shards[dead as usize].owned_slots);
        let dirty = std::mem::take(&mut self.shards[dead as usize].dirty);
        self.shards[dead as usize].live = false;
        for &slot in &slots {
            self.slot_owner[slot] = sib;
        }
        // Two disjoint shard borrows for the state transfer.
        let (a, b) = (dead.min(sib) as usize, dead.max(sib) as usize);
        let (lo, hi) = self.shards.split_at_mut(b);
        let (dead_st, sib_st) = if (dead as usize) < (sib as usize) {
            (&lo[a], &mut hi[0])
        } else {
            (&hi[0], &mut lo[a])
        };
        for &slot in &slots {
            for v in self.spec.range(slot) {
                // Takeover transfer seam: the sibling adopts the
                // quarantined shard's authoritative states...
                sib_st.mirror[v as usize] = dead_st.mirror[v as usize].clone(); // analyze: shard-ok(quarantine state transfer: adopting the dead shard's authoritative range)
                for &(w, _) in g.neighbors(v) {
                    // ...and its halo, which the sibling may never have
                    // received (it was not adjacent to these ranges).
                    // analyze: shard-ok(quarantine halo transfer: boundary copies the sibling never received)
                    sib_st.mirror[w as usize] = dead_st.mirror[w as usize].clone();
                }
            }
        }
        sib_st.owned_slots.extend(slots);
        sib_st.owned_slots.sort_unstable();
        let mut merged = std::mem::take(&mut sib_st.dirty);
        merged.extend(dirty);
        merged.sort_unstable();
        merged.dedup();
        sib_st.dirty = merged;
        Some(sib)
    }

    /// Gathers the final global state vector from the owning shards'
    /// mirrors, in vertex order.
    fn gather_states(&self) -> Vec<A::M> {
        let mut out = Vec::with_capacity(self.spec.n());
        for slot in 0..self.spec.shard_count() {
            let owner = self.slot_owner[slot] as usize;
            for v in self.spec.range(slot) {
                // Gather seam: read-only export of authoritative states.
                out.push(self.shards[owner].mirror[v as usize].clone()); // analyze: shard-ok(gather seam: read-only export of owned ranges into the result vector)
            }
        }
        out
    }
}

/// Deterministic bit-level tamper for `corrupt_msg`: flip the low bit
/// of the first entry's node id, or of the digest when the message is
/// empty. Either way the receiver's canonical-recompute must disagree.
fn tamper_corrupt<M>(msg: &mut ExchangeMsg<M>) {
    match msg.entries.first_mut() {
        Some(e) => e.node ^= 1,
        None => msg.digest ^= 1,
    }
}

// ---------------------------------------------------------------------
// Entry points.

/// Runs `alg` to fixpoint over `shards` degree-balanced vertex-range
/// shards, **fail-fast**: the first shard panic, staged-state
/// corruption, or exchange-validation failure surfaces as its typed
/// [`RunError`] with hop-entry state discarded. Output is bit-identical
/// to the unsharded engine's.
pub fn try_run_sharded_to_fixpoint_with<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    shards: usize,
) -> Result<(ShardedRun<A::M>, RunReport), RunError> {
    drive(alg, g, cap, ShardSpec::balanced(g, shards), None)
}

/// The shard supervisor: drives the sharded engine with bounded
/// deterministic re-execution and quarantine takeover (see the module
/// docs). Survivable fault arrivals end in a bit-identical result with
/// the recovery path recorded as [`Degradation`]s; unsurvivable ones
/// in a typed [`RunError`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardSupervisor {
    policy: ShardPolicy,
}

impl ShardSupervisor {
    /// A supervisor with the given budget.
    pub fn new(policy: ShardPolicy) -> Self {
        ShardSupervisor { policy }
    }

    /// Supervised sharded fixpoint run over `shards` ranges.
    pub fn run_to_fixpoint_with<A: MbfAlgorithm>(
        &self,
        alg: &A,
        g: &Graph,
        cap: usize,
        shards: usize,
    ) -> Result<(ShardedRun<A::M>, RunReport), RunError> {
        drive(
            alg,
            g,
            cap,
            ShardSpec::balanced(g, shards),
            Some(self.policy),
        )
    }
}

/// The shared hop driver. `policy: None` is the fail-fast path.
fn drive<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    spec: ShardSpec,
    policy: Option<ShardPolicy>,
) -> Result<(ShardedRun<A::M>, RunReport), RunError> {
    let mut engine = ShardedEngine::<A>::new(alg, g, spec);
    let mut degradations: Vec<Degradation> = Vec::new();
    let mut fixpoint = false;
    let mut iterations = 0usize;
    for hop in 1..=cap as u64 {
        let mut attempt: u32 = 0;
        let staged = loop {
            match engine.hop_attempt(alg, g) {
                Ok(staged) => break staged,
                Err(fail) => {
                    let Some(policy) = policy else {
                        return Err(fail.error);
                    };
                    if attempt < policy.max_hop_retries {
                        attempt += 1;
                        degradations.push(Degradation::ShardReExecuted {
                            hop,
                            attempt,
                            cause: fail.error.to_string(),
                        });
                        continue;
                    }
                    if policy.allow_quarantine {
                        if let Some(culprit) = fail.culprit {
                            if let Some(sib) = engine.quarantine(culprit, g) {
                                degradations.push(Degradation::ShardQuarantined {
                                    shard: culprit,
                                    taken_over_by: sib,
                                    hop,
                                });
                                // The takeover re-runs the hop with a
                                // fresh budget; total quarantines are
                                // bounded by the live-shard count, so
                                // this terminates.
                                attempt = 0;
                                continue;
                            }
                        }
                    }
                    return Err(RunError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: Box::new(fail.error),
                    });
                }
            }
        };
        let changed = staged.changed_any;
        engine.commit(staged);
        iterations = hop as usize;
        if !changed {
            fixpoint = true;
            break;
        }
    }
    let states = engine.gather_states();
    check_states::<A::S, A::M>(&states)?;
    let run = ShardedRun {
        states,
        iterations,
        fixpoint,
        work: engine.work,
        hop_digests: engine.hop_digests,
    };
    let report = RunReport {
        converged: fixpoint,
        hops: iterations as u64,
        degradations,
    };
    Ok((run, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
    use crate::engine::{run_to_fixpoint, MbfRun};
    use mte_algebra::DistanceMap;
    use mte_graph::generators::gnm_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> Graph {
        gnm_graph(60, 150, 1.0..9.0, &mut StdRng::seed_from_u64(0x5AAD))
    }

    #[test]
    fn balanced_spec_covers_and_orders() {
        let g = fixture();
        for k in [1usize, 2, 3, 4, 8] {
            let spec = ShardSpec::balanced(&g, k);
            assert_eq!(spec.shard_count(), k);
            assert_eq!(spec.n(), g.n());
            let mut covered = 0usize;
            for i in 0..k {
                let r = spec.range(i);
                assert!(r.start <= r.end);
                covered += r.len();
                for v in r {
                    assert_eq!(spec.slot_of(v), i);
                }
            }
            assert_eq!(covered, g.n());
        }
    }

    #[test]
    fn sharded_matches_unsharded_states() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let reference: MbfRun<DistanceMap> = run_to_fixpoint(&alg, &g, g.n() + 1);
        for k in [1usize, 2, 4, 8] {
            let (run, report) = try_run_sharded_to_fixpoint_with(&alg, &g, g.n() + 1, k)
                .unwrap_or_else(|e| panic!("clean sharded run failed at k={k}: {e}"));
            assert_eq!(run.states, reference.states, "states diverged at k={k}");
            assert_eq!(run.iterations, reference.iterations);
            assert!(run.fixpoint && report.converged);
            assert!(report.degradations.is_empty());
            if k == 1 {
                assert_eq!(run.work.shard_msgs, 0, "single shard exchanges nothing");
            } else {
                assert!(run.work.shard_msgs > 0, "multi-shard runs exchange");
                assert!(run.work.shard_msg_bytes > 0);
            }
        }
    }

    #[test]
    fn hop_digests_are_reproducible() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let (a, _) = try_run_sharded_to_fixpoint_with(&alg, &g, g.n() + 1, 4).expect("run");
        let (b, _) = try_run_sharded_to_fixpoint_with(&alg, &g, g.n() + 1, 4).expect("rerun");
        assert_eq!(a.hop_digests, b.hop_digests);
        assert_eq!(a.hop_digests.len(), a.iterations);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let d0 = exchange_digest(0, 1, 3, &[2, 5, 9]);
        assert_ne!(d0, exchange_digest(0, 1, 3, &[9, 5, 2]), "order-sensitive");
        assert_ne!(d0, exchange_digest(0, 1, 3, &[2, 5]), "length-sensitive");
        assert_ne!(d0, exchange_digest(0, 1, 4, &[2, 5, 9]), "hop-sensitive");
        assert_ne!(
            d0,
            exchange_digest(1, 0, 3, &[2, 5, 9]),
            "channel-sensitive"
        );
    }

    #[test]
    fn corrupt_tamper_is_always_detected() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let engine = ShardedEngine::<SourceDetection>::new(&alg, &g, ShardSpec::balanced(&g, 2));
        let mut msg: ExchangeMsg<DistanceMap> = ExchangeMsg {
            from_shard: 0,
            to_shard: 1,
            hop: 1,
            seq: 1,
            digest: exchange_digest(0, 1, 1, &[]),
            entries: Vec::new(),
        };
        assert!(engine.validate_msg(&g, 1, &msg).is_ok());
        tamper_corrupt(&mut msg);
        assert!(
            engine.validate_msg(&g, 1, &msg).is_err(),
            "empty-msg tamper"
        );
    }
}
