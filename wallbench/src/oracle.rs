//! Brute-force reference answers. Every correctness check of the benchmark
//! compares the engine against these. Nothing here calls a k-NN routine of
//! the engine: distances are computed in `f64` from the raw vectors, and
//! subtree membership comes from walking `children`/`leaf_items`.

use qd_index::{KnnIndex, Neighbor, NodeId};
use std::collections::BTreeSet;

/// Euclidean distance between a stored vector and an `f64` point.
pub fn dist(a: &[f32], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (f64::from(x) - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Widens a vector to `f64`.
pub fn wide(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

/// Mean of `points`, accumulated in `f64`.
pub fn centroid(points: &[&[f32]]) -> Vec<f64> {
    let mut acc = vec![0.0f64; points[0].len()];
    for p in points {
        for (a, &x) in acc.iter_mut().zip(p.iter()) {
            *a += f64::from(x);
        }
    }
    let n = points.len() as f64;
    acc.iter_mut().for_each(|a| *a /= n);
    acc
}

/// The `k` nearest `(distance, id)` pairs of `items` to `q`, in
/// `(distance, id)` order.
pub fn knn<'a>(
    items: impl IntoIterator<Item = (u64, &'a [f32])>,
    q: &[f64],
    k: usize,
) -> Vec<(f64, u64)> {
    let mut all: Vec<(f64, u64)> = items.into_iter().map(|(id, v)| (dist(v, q), id)).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    all
}

/// Distance tolerance between the engine's `f32` distances and the `f64`
/// reference: a relative 1e-4, floored at 1e-4 absolute.
pub fn tol(d: f64) -> f64 {
    1e-4 * d.abs().max(1.0)
}

/// Every leaf under `node`, by walking `children`.
pub fn leaves<I: KnnIndex>(index: &I, node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        if index.is_leaf(n) {
            out.push(n);
        } else {
            stack.extend(index.children(n));
        }
    }
    out
}

/// Ids stored under `node`, from `leaf_items` of every leaf the walk
/// reaches (duplicates kept, so a double-stored id shows).
pub fn subtree_ids<I: KnnIndex>(index: &I, node: NodeId) -> Vec<u64> {
    leaves(index, node)
        .into_iter()
        .flat_map(|l| index.leaf_items(l).into_iter().map(|(id, _)| id))
        .collect()
}

/// Checks that `got` is a correct exact k-NN answer against the reference
/// `want` (the first `k` of [`knn`]): same length, the same distance at
/// every rank, unique ids, and every id really at its reported distance.
/// Among equal distances any order passes; the strict lowest-id rule is
/// checked separately where the benchmark counts it.
pub fn check_knn(
    got: &[Neighbor],
    want: &[(f64, u64)],
    point_of: impl Fn(u64) -> Option<Vec<f64>>,
    q: &[f64],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "k-NN returned {} neighbors, reference {}",
            got.len(),
            want.len()
        ));
    }
    let mut seen = BTreeSet::new();
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        let d = f64::from(g.distance);
        if (d - w.0).abs() > tol(w.0) {
            return Err(format!(
                "rank {rank}: distance {d} against reference {}",
                w.0
            ));
        }
        if !seen.insert(g.id) {
            return Err(format!("rank {rank}: id {} returned twice", g.id));
        }
        let Some(p) = point_of(g.id) else {
            return Err(format!("rank {rank}: id {} is not stored", g.id));
        };
        let real: f64 = p
            .iter()
            .zip(q)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        if (real - d).abs() > tol(real) {
            return Err(format!(
                "rank {rank}: id {} reported at {d}, really at {real}",
                g.id
            ));
        }
    }
    Ok(())
}

/// Fraction of `results` for which `relevant` holds (0 for no results).
pub fn precision(results: &[usize], relevant: impl Fn(usize) -> bool) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().filter(|&&id| relevant(id)).count() as f64 / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_index::{RStarTree, TreeConfig};

    /// Points on the x axis at 0, 1, …, 9, plus id 10 duplicating x = 4.
    fn line() -> Vec<(u64, Vec<f32>)> {
        let mut pts: Vec<(u64, Vec<f32>)> = (0..10).map(|i| (i, vec![i as f32, 0.0])).collect();
        pts.push((10, vec![4.0, 0.0]));
        pts
    }

    #[test]
    fn knn_orders_by_distance_then_id() {
        let pts = line();
        let items = pts.iter().map(|(id, v)| (*id, v.as_slice()));
        let got = knn(items, &[4.2, 0.0], 4);
        let ids: Vec<u64> = got.iter().map(|&(_, id)| id).collect();
        // 4 and its duplicate 10 tie at 0.2 (lower id first), then 5, then 3.
        assert_eq!(ids, vec![4, 10, 5, 3]);
        assert!((got[0].0 - 0.2).abs() < 1e-6);
        assert!((got[2].0 - 0.8).abs() < 1e-6);
        assert!((got[3].0 - 1.2).abs() < 1e-6);
        // k beyond n returns everything.
        let all = knn(
            pts.iter().map(|(id, v)| (*id, v.as_slice())),
            &[0.0, 0.0],
            50,
        );
        assert_eq!(all.len(), 11);
    }

    #[test]
    fn centroid_and_distance_are_exact_on_a_grid() {
        let a = [0.0f32, 0.0];
        let b = [2.0f32, 0.0];
        let c = [4.0f32, 6.0];
        let m = centroid(&[&a, &b, &c]);
        assert_eq!(m, vec![2.0, 2.0]);
        assert_eq!(dist(&[5.0, 6.0], &m), 5.0); // a 3-4-5 triangle
    }

    #[test]
    fn subtree_walk_finds_every_id_once() {
        let mut tree = RStarTree::new(TreeConfig::small(2));
        for (id, v) in line() {
            tree.insert(v, id);
        }
        let mut ids = subtree_ids(&tree, tree.root());
        ids.sort_unstable();
        assert_eq!(ids, (0..11).collect::<Vec<u64>>());
        // Every leaf's items sum to the whole set; no leaf is empty.
        let leaves = leaves(&tree, tree.root());
        assert!(leaves.len() > 1, "11 points at fan-out 5 split the root");
        assert!(leaves.iter().all(|&l| !tree.leaf_items(l).is_empty()));
    }

    #[test]
    fn check_knn_accepts_tie_orders_and_rejects_wrong_answers() {
        let pts = line();
        let point_of = |id: u64| pts.iter().find(|(i, _)| *i == id).map(|(_, v)| wide(v));
        let q = [4.0, 0.0];
        let want = knn(pts.iter().map(|(id, v)| (*id, v.as_slice())), &q, 2);
        let n = |id, d| Neighbor { id, distance: d };
        assert!(check_knn(&[n(4, 0.0), n(10, 0.0)], &want, point_of, &q).is_ok());
        assert!(check_knn(&[n(10, 0.0), n(4, 0.0)], &want, point_of, &q).is_ok());
        assert!(check_knn(&[n(4, 0.0), n(5, 1.0)], &want, point_of, &q).is_err());
        assert!(check_knn(&[n(4, 0.0), n(4, 0.0)], &want, point_of, &q).is_err());
        assert!(check_knn(&[n(4, 0.0), n(3, 0.0)], &want, point_of, &q).is_err());
        assert!(check_knn(&[n(4, 0.0)], &want, point_of, &q).is_err());
    }

    #[test]
    fn precision_counts_labels() {
        let labels = [0, 1, 1, 2, 1];
        assert_eq!(precision(&[0, 1, 2, 3], |id| labels[id] == 1), 0.5);
        assert_eq!(precision(&[], |_| true), 0.0);
    }
}
