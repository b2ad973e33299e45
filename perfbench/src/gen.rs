//! Seeded input streams.
//!
//! The generators of `fourcycle-workloads` delete only when a draw hits a
//! present edge, which at these densities is about 1% of updates. These
//! streams delete a uniformly random live edge with a fixed probability
//! instead, so the delete share is what the workload states.

use fourcycle_graph::{GraphUpdate, LayeredUpdate, Rel, UpdateOp, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::Hash;

/// A well-formed fully dynamic stream made of `(len, delete_share)`
/// stretches: within a stretch, with probability `delete_share` (and a
/// non-empty graph) an update deletes a uniformly random live edge,
/// otherwise it inserts an absent edge drawn by `draw`.
fn churn<K: Copy + Eq + Hash>(
    rng: &mut SmallRng,
    stretches: &[(usize, f64)],
    mut draw: impl FnMut(&mut SmallRng) -> K,
) -> Vec<(K, UpdateOp)> {
    let mut live: Vec<K> = Vec::new();
    let mut index: HashMap<K, usize> = HashMap::new();
    let len = stretches.iter().map(|&(len, _)| len).sum();
    let mut out = Vec::with_capacity(len);
    let mut ends = stretches.iter().scan(0, |end, &(len, share)| {
        *end += len;
        Some((*end, share))
    });
    let (mut end, mut delete_share) = ends.next().unwrap_or((0, 0.0));
    while out.len() < len {
        while out.len() >= end {
            (end, delete_share) = ends.next().unwrap_or((len, delete_share));
        }
        if !live.is_empty() && rng.gen_bool(delete_share) {
            let slot = rng.gen_range(0..live.len());
            let key = live.swap_remove(slot);
            index.remove(&key);
            if let Some(&moved) = live.get(slot) {
                index.insert(moved, slot);
            }
            out.push((key, UpdateOp::Delete));
            continue;
        }
        let key = draw(rng);
        if index.contains_key(&key) {
            continue;
        }
        index.insert(key, live.len());
        live.push(key);
        out.push((key, UpdateOp::Insert));
    }
    out
}

/// Uniform churn over `vertices` vertices of a simple undirected graph.
pub fn general(seed: u64, vertices: u32, len: usize, delete_share: f64) -> Vec<GraphUpdate> {
    let mut rng = SmallRng::seed_from_u64(seed);
    churn(&mut rng, &[(len, delete_share)], |rng| loop {
        let (u, v) = (rng.gen_range(0..vertices), rng.gen_range(0..vertices));
        if u != v {
            break (u.min(v), u.max(v));
        }
    })
    .into_iter()
    .map(|((u, v), op)| GraphUpdate { op, u, v })
    .collect()
}

/// Hub-skewed layered churn in `(len, delete_share)` stretches: each
/// endpoint is one of the `hubs` lowest ids of its layer with probability
/// `hub_prob`, otherwise uniform over `layer_size` vertices.
pub fn layered(
    seed: u64,
    layer_size: u32,
    hubs: u32,
    hub_prob: f64,
    stretches: &[(usize, f64)],
) -> Vec<LayeredUpdate> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pick = |rng: &mut SmallRng| -> VertexId {
        if rng.gen_bool(hub_prob) {
            rng.gen_range(0..hubs)
        } else {
            rng.gen_range(0..layer_size)
        }
    };
    churn(&mut rng, stretches, |rng| {
        (Rel::ALL[rng.gen_range(0..4usize)], pick(rng), pick(rng))
    })
    .into_iter()
    .map(|((rel, left, right), op)| LayeredUpdate {
        op,
        rel,
        left,
        right,
    })
    .collect()
}
