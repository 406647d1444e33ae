//! The correctness gate: every check the benchmark makes on the
//! program's outputs. A failed check is a [`Violation`]; the run then
//! prints `"correct": false` and exits non-zero.

use metric_tree_embedding::prelude::*;
use metric_tree_embedding::serving::{Answer, Rung};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A correctness check that failed, with the first offending value.
#[derive(Debug)]
pub struct Violation(pub String);

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "correctness violation: {}", self.0)
    }
}

/// Relative slack for comparing a distance computed by the program
/// against Dijkstra's: both sum the same edge weights, in different
/// orders, so they may differ in the last bits.
const ROUNDING: f64 = 1e-9;

/// Exact graph distances from a seeded set of sources to every vertex.
pub struct Reference {
    pub sources: Vec<NodeId>,
    /// `dist[i][v]` = `d_G(sources[i], v)`.
    pub dist: Vec<Vec<f64>>,
}

impl Reference {
    /// Dijkstra from `count` distinct seeded sources.
    pub fn new(g: &Graph, count: usize, seed: u64) -> Reference {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sources: Vec<NodeId> = Vec::with_capacity(count);
        while sources.len() < count.min(g.n()) {
            let s = rng.gen_range(0..g.n() as NodeId);
            if !sources.contains(&s) {
                sources.push(s);
            }
        }
        let dist = sources
            .iter()
            .map(|&s| sssp(g, s).all().iter().map(|d| d.value()).collect())
            .collect();
        Reference { sources, dist }
    }

    /// Checks tree dominance `d_T ≥ d_G` on every reference pair and
    /// returns the mean stretch `d_T / d_G` over the pairs.
    pub fn dominance(&self, tree: &FrtTree) -> Result<f64, Violation> {
        let mut total = 0.0;
        let mut pairs = 0usize;
        for (&s, row) in self.sources.iter().zip(&self.dist) {
            for (v, &dg) in row.iter().enumerate() {
                if v == s as usize {
                    continue;
                }
                let dt = tree.leaf_distance(s, v as NodeId);
                if !dg.is_finite() || dg <= 0.0 || dt < dg * (1.0 - ROUNDING) {
                    return Err(Violation(format!(
                        "tree dominance fails at ({s}, {v}): d_T = {dt}, d_G = {dg}"
                    )));
                }
                total += dt / dg;
                pairs += 1;
            }
        }
        Ok(total / pairs.max(1) as f64)
    }
}

/// The traced replay must reproduce the untraced call bit for bit.
pub fn lists_identical(replay: &[LeList], reference: &[LeList]) -> Result<(), Violation> {
    if replay.len() != reference.len() {
        return Err(Violation(format!(
            "replayed LE lists cover {} vertices, the sample {}",
            replay.len(),
            reference.len()
        )));
    }
    for (v, (a, b)) in replay.iter().zip(reference).enumerate() {
        let same = a.len() == b.len()
            && a.entries()
                .iter()
                .zip(b.entries())
                .all(|(x, y)| x.0 == y.0 && x.1.value().to_bits() == y.1.value().to_bits());
        if !same {
            return Err(Violation(format!(
                "replayed LE list of vertex {v} differs from the sample's"
            )));
        }
    }
    Ok(())
}

/// Bit-identity of two trees: nodes, leaves, radii and `β`.
pub fn trees_identical(replay: &FrtTree, reference: &FrtTree) -> Result<(), Violation> {
    let differ = |what: &str| {
        Err(Violation(format!(
            "replayed tree differs from the sample's ({what})"
        )))
    };
    if replay.beta().to_bits() != reference.beta().to_bits() {
        return differ("beta");
    }
    let radii_same = replay.radii().len() == reference.radii().len()
        && replay
            .radii()
            .iter()
            .zip(reference.radii())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !radii_same {
        return differ("radii");
    }
    if replay.len() != reference.len() {
        return differ("node count");
    }
    for (i, (a, b)) in replay.nodes().iter().zip(reference.nodes()).enumerate() {
        if a.level != b.level
            || a.leader != b.leader
            || a.parent != b.parent
            || a.repr_leaf != b.repr_leaf
            || a.parent_weight.to_bits() != b.parent_weight.to_bits()
        {
            return differ(&format!("node {i}"));
        }
    }
    if replay.num_vertices() != reference.num_vertices() {
        return differ("vertex count");
    }
    for v in 0..replay.num_vertices() as NodeId {
        if replay.leaf(v) != reference.leaf(v) {
            return differ(&format!("leaf of vertex {v}"));
        }
    }
    Ok(())
}

/// An exact-rung point answer must equal the tree's leaf distance bit
/// for bit; an inexact rung must not claim exactness.
pub fn point_answer(
    answer: &Answer,
    tree: &FrtTree,
    u: NodeId,
    v: NodeId,
) -> Result<(), Violation> {
    let exact_rung = matches!(answer.rung, Rung::CacheHit | Rung::TreeLca);
    if exact_rung != answer.exact {
        return Err(Violation(format!(
            "answer ({u}, {v}) on rung {:?} has exact = {}",
            answer.rung, answer.exact
        )));
    }
    if answer.exact {
        let expected = tree.leaf_distance(u, v);
        if answer.value.to_bits() != expected.to_bits() {
            return Err(Violation(format!(
                "exact answer ({u}, {v}) = {} but leaf_distance = {expected}",
                answer.value
            )));
        }
    }
    Ok(())
}

/// A batch row must agree with the exact point answers
/// (`leaf_distance`) on every probed vertex.
pub fn batch_row(
    row: &[f64],
    tree: &FrtTree,
    source: NodeId,
    probes: &[NodeId],
) -> Result<(), Violation> {
    if row.len() != tree.num_vertices() {
        return Err(Violation(format!(
            "batch row of {source} has {} entries",
            row.len()
        )));
    }
    for &v in probes.iter().chain(std::iter::once(&source)) {
        let expected = tree.leaf_distance(source, v);
        if row[v as usize].to_bits() != expected.to_bits() {
            return Err(Violation(format!(
                "batch row {source} at {v} = {} but the point answer is {expected}",
                row[v as usize]
            )));
        }
    }
    Ok(())
}

/// Eq. (4.14): every approximate distance lies in
/// `[d_G, (1+ε̂)^{Λ+1}·d_G]` (times `1+ε_hopset`). Returns the mean and
/// the maximum of `d_approx / d_G` over all pairs `u ≠ v`.
pub fn metric_band(
    exact: &[Vec<Dist>],
    approx: &[Vec<Dist>],
    factor: f64,
) -> Result<(f64, f64), Violation> {
    let mut total = 0.0;
    let mut worst: f64 = 0.0;
    let mut pairs = 0usize;
    for (u, (row_g, row_a)) in exact.iter().zip(approx).enumerate() {
        for (v, (dg, da)) in row_g.iter().zip(row_a).enumerate() {
            if u == v {
                continue;
            }
            let (dg, da) = (dg.value(), da.value());
            let inside = dg.is_finite()
                && dg > 0.0
                && da >= dg * (1.0 - ROUNDING)
                && da <= factor * dg * (1.0 + ROUNDING);
            if !inside {
                return Err(Violation(format!(
                    "approximate metric at ({u}, {v}) = {da} outside [{dg}, {factor}·{dg}]"
                )));
            }
            let ratio = da / dg;
            total += ratio;
            worst = worst.max(ratio);
            pairs += 1;
        }
    }
    if pairs == 0 || exact.len() != approx.len() {
        return Err(Violation(
            "approximate metric has the wrong shape".to_string(),
        ));
    }
    Ok((total / pairs as f64, worst))
}

/// Feeds each check one deliberately wrong answer on a small real
/// pipeline output and confirms the check fires (and passes on the
/// untouched output).
pub fn self_test() -> Result<(), String> {
    fn expect_fire<T>(
        name: &str,
        good: Result<T, Violation>,
        bad: Result<T, Violation>,
    ) -> Result<(), String> {
        if let Err(v) = good {
            return Err(format!("{name}: fired on a correct output ({v})"));
        }
        match bad {
            Err(v) => {
                println!("self-test {name:<16} fires: {v}");
                Ok(())
            }
            Ok(_) => Err(format!("{name}: did not fire on a wrong answer")),
        }
    }

    let mut rng = StdRng::seed_from_u64(7);
    let g = gnm_graph(120, 360, 1.0..100.0, &mut rng);
    let config = FrtConfig {
        hopset: HopsetConfig::for_scale(g.n(), g.m()),
        ..FrtConfig::default()
    };
    let emb = FrtEmbedding::sample(&g, &config, &mut rng);
    let tree = emb.tree();

    // 1. Dominance: a reference distance above the tree distance.
    let reference = Reference::new(&g, 4, 11);
    let mut inflated = Reference {
        sources: reference.sources.clone(),
        dist: reference.dist.clone(),
    };
    let (s, v) = (
        inflated.sources[0],
        (inflated.sources[0] as usize + 1) % g.n(),
    );
    inflated.dist[0][v] = tree.leaf_distance(s, v as NodeId) * 1.5;
    expect_fire(
        "dominance",
        reference.dominance(tree),
        inflated.dominance(tree),
    )?;

    // 2. Bit identity of the replay: one LE-list distance off by an ulp,
    //    and one tree edge weight off by an ulp.
    let lists = emb.le_lists().to_vec();
    let mut bent = lists.clone();
    let last = bent[3].entries().len() - 1;
    let mut entries = bent[3].entries().to_vec();
    entries[last].1 = Dist::new(f64::from_bits(entries[last].1.value().to_bits() + 1));
    bent[3] = LeList::from_entries_sorted(entries);
    expect_fire(
        "replay-lists",
        lists_identical(&lists, emb.le_lists()),
        lists_identical(&bent, emb.le_lists()),
    )?;
    let mut nodes = tree.nodes().to_vec();
    let i = nodes.len() - 1;
    nodes[i].parent_weight = f64::from_bits(nodes[i].parent_weight.to_bits() + 1);
    let leaves = (0..g.n() as NodeId).map(|v| tree.leaf(v)).collect();
    let bent_tree = FrtTree::from_parts(nodes, leaves, tree.radii().to_vec(), tree.beta())
        .map_err(|e| format!("self-test tree: {e}"))?;
    expect_fire(
        "replay-tree",
        trees_identical(tree, tree),
        trees_identical(&bent_tree, tree),
    )?;

    // 3. Exact-rung point answer: the served value off by an ulp.
    let artifact = OracleArtifact::from_embedding(&emb).map_err(|e| e.to_string())?;
    let oracle = Oracle::new(artifact);
    let answer = oracle.distance(1, 2).map_err(|e| e.to_string())?;
    let mut wrong = answer.clone();
    wrong.value = f64::from_bits(wrong.value.to_bits() + 1);
    expect_fire(
        "point-answer",
        point_answer(&answer, tree, 1, 2),
        point_answer(&wrong, tree, 1, 2),
    )?;

    // 4. Batch row: one entry that disagrees with the point answer.
    let token = metric_tree_embedding::serving::CancelToken::new();
    let sweep = oracle
        .batch_distances(&[5], &token)
        .map_err(|e| e.to_string())?;
    let mut row = sweep.distances[0].clone();
    row[9] += 1.0;
    let probes: Vec<NodeId> = (0..g.n() as NodeId).collect();
    expect_fire(
        "batch-row",
        batch_row(&sweep.distances[0], tree, 5, &probes),
        batch_row(&row, tree, 5, &probes),
    )?;

    // 5. Metric band: one approximate distance below d_G.
    let exact = apsp(&g);
    let mut under = exact.clone();
    under[0][1] = Dist::new(exact[0][1].value() * 0.5);
    expect_fire(
        "metric-band",
        metric_band(&exact, &exact, 1.0),
        metric_band(&exact, &under, 1.0),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_fires_on_a_wrong_answer() {
        super::self_test().expect("self-test");
    }
}
