//! The benchmark's own reference: exact DBSCAN by grid hashing, and the
//! clustering comparisons the output checks use. It shares no clustering
//! code with the library under test.
//!
//! Semantics (Ester et al., as in Gan & Tao §2): `B(p, eps)` is the closed
//! ball, a point counts itself toward `MinPts`, a cluster is a connected
//! component of core points (edges between cores within `eps`) plus every
//! non-core point within `eps` of one of its cores — so a border point
//! joins every cluster that has a core within `eps` of it.

use std::collections::HashMap;

/// A clustering in normal form: each group sorted, groups sorted, noise
/// sorted. Ids are the caller's labels for the points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Clusters {
    pub groups: Vec<Vec<u32>>,
    pub noise: Vec<u32>,
}

impl Clusters {
    pub fn normalized(mut groups: Vec<Vec<u32>>, mut noise: Vec<u32>) -> Self {
        for g in &mut groups {
            g.sort_unstable();
            g.dedup();
        }
        groups.retain(|g| !g.is_empty());
        groups.sort_unstable();
        noise.sort_unstable();
        noise.dedup();
        Clusters { groups, noise }
    }

    /// What a C-group-by over `q` must answer if `self` is the clustering
    /// of the whole dataset.
    pub fn restrict(&self, q: &[u32]) -> Clusters {
        let set: std::collections::HashSet<u32> = q.iter().copied().collect();
        let groups = self
            .groups
            .iter()
            .map(|g| g.iter().copied().filter(|p| set.contains(p)).collect())
            .collect();
        let noise = self
            .noise
            .iter()
            .copied()
            .filter(|p| set.contains(p))
            .collect();
        Clusters::normalized(groups, noise)
    }
}

fn dist_sq<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut s = 0.0;
    for i in 0..D {
        let d = a[i] - b[i];
        s += d * d;
    }
    s
}

struct UnionFind(Vec<usize>);

impl UnionFind {
    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        if a != b {
            self.0[a.max(b)] = a.min(b);
        }
    }
}

/// Exact DBSCAN of `pts` (labelled `ids`) by grid hashing: cells of side
/// `eps/√D` (any two points of a cell are within `eps`), core flags by
/// counting neighbour cells with early exit, one union-find node per cell
/// holding cores, neighbour cells joined on the first core pair within
/// `eps`.
pub fn dbscan<const D: usize>(pts: &[[f64; D]], ids: &[u32], eps: f64, min_pts: usize) -> Clusters {
    assert_eq!(pts.len(), ids.len());
    // A hair under eps/√D, so a cell's diameter is below eps despite
    // rounding: every two points of a cell are neighbours.
    let side = eps / (D as f64).sqrt() * (1.0 - 1e-12);
    let eps_sq = eps * eps;
    let cell_of =
        |p: &[f64; D]| -> [i64; D] { std::array::from_fn(|i| (p[i] / side).floor() as i64) };

    let mut cell_index: HashMap<[i64; D], usize> = HashMap::new();
    let mut cell_keys: Vec<[i64; D]> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, p) in pts.iter().enumerate() {
        let k = cell_of(p);
        let c = *cell_index.entry(k).or_insert_with(|| {
            cell_keys.push(k);
            members.push(Vec::new());
            cell_keys.len() - 1
        });
        members[c].push(i);
    }

    // Offsets of every cell that can hold a point within eps of a point
    // of the centre cell (closest-approach distance ≤ eps).
    let reach = (D as f64).sqrt().ceil() as i64 + 1;
    let mut offsets: Vec<[i64; D]> = Vec::new();
    let span = (2 * reach + 1) as usize;
    for code in 0..span.pow(D as u32) {
        let mut rest = code;
        let o: [i64; D] = std::array::from_fn(|_| {
            let v = (rest % span) as i64 - reach;
            rest /= span;
            v
        });
        let gap: f64 = o
            .iter()
            .map(|&v| ((v.abs() - 1).max(0) as f64).powi(2))
            .sum();
        if gap * side * side <= eps_sq {
            offsets.push(o);
        }
    }
    // Nearest cells first, so core counting exits early in dense cells.
    offsets.sort_by_key(|o| o.iter().map(|v| v * v).sum::<i64>());
    let neighbours = |c: usize| -> Vec<usize> {
        let k = cell_keys[c];
        offsets
            .iter()
            .filter_map(|o| {
                let nk: [i64; D] = std::array::from_fn(|i| k[i] + o[i]);
                cell_index.get(&nk).copied()
            })
            .collect()
    };
    let cell_nbrs: Vec<Vec<usize>> = (0..cell_keys.len()).map(neighbours).collect();

    // Core flags.
    let mut core = vec![false; pts.len()];
    for (c, ms) in members.iter().enumerate() {
        for &i in ms {
            let mut count = 0;
            'cells: for &n in &cell_nbrs[c] {
                for &j in &members[n] {
                    if dist_sq(&pts[i], &pts[j]) <= eps_sq {
                        count += 1;
                        if count >= min_pts {
                            break 'cells;
                        }
                    }
                }
            }
            core[i] = count >= min_pts;
        }
    }
    let cores: Vec<Vec<usize>> = members
        .iter()
        .map(|ms| ms.iter().copied().filter(|&i| core[i]).collect())
        .collect();

    // Connectivity over cells that hold cores.
    let mut uf = UnionFind((0..cell_keys.len()).collect());
    for c in 0..cell_keys.len() {
        if cores[c].is_empty() {
            continue;
        }
        for &n in &cell_nbrs[c] {
            if n <= c || cores[n].is_empty() || uf.find(c) == uf.find(n) {
                continue;
            }
            let joined = cores[c].iter().any(|&i| {
                cores[n]
                    .iter()
                    .any(|&j| dist_sq(&pts[i], &pts[j]) <= eps_sq)
            });
            if joined {
                uf.union(c, n);
            }
        }
    }

    let mut group_of_root: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut noise = Vec::new();
    let mut group_index = |root: usize, groups: &mut Vec<Vec<u32>>| -> usize {
        *group_of_root.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        })
    };
    for c in 0..cell_keys.len() {
        for &i in &members[c] {
            if core[i] {
                let g = group_index(uf.find(c), &mut groups);
                groups[g].push(ids[i]);
                continue;
            }
            let mut roots: Vec<usize> = Vec::new();
            for &n in &cell_nbrs[c] {
                if cores[n]
                    .iter()
                    .any(|&j| dist_sq(&pts[i], &pts[j]) <= eps_sq)
                {
                    roots.push(uf.find(n));
                }
            }
            roots.sort_unstable();
            roots.dedup();
            if roots.is_empty() {
                noise.push(ids[i]);
            }
            for r in roots {
                let g = group_index(r, &mut groups);
                groups[g].push(ids[i]);
            }
        }
    }
    Clusters::normalized(groups, noise)
}

/// `a ⊑ b`: every cluster of `a` lies inside some cluster of `b`.
pub fn contained(a: &Clusters, b: &Clusters) -> Result<(), String> {
    let mut groups_of: HashMap<u32, Vec<usize>> = HashMap::new();
    for (gi, g) in b.groups.iter().enumerate() {
        for &p in g {
            groups_of.entry(p).or_default().push(gi);
        }
    }
    for g in &a.groups {
        let mut candidates = groups_of.get(&g[0]).cloned().unwrap_or_default();
        for p in &g[1..] {
            let Some(of_p) = groups_of.get(p) else {
                candidates.clear();
                break;
            };
            candidates.retain(|c| of_p.contains(c));
            if candidates.is_empty() {
                break;
            }
        }
        if candidates.is_empty() {
            return Err(format!(
                "a cluster of {} points (first id {}) lies in no single cluster of the other clustering",
                g.len(),
                g[0]
            ));
        }
    }
    Ok(())
}

/// Exact equality, with a short account of the first difference.
pub fn same(got: &Clusters, want: &Clusters) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    if got.noise != want.noise {
        return Err(format!(
            "noise differs: {} points reported, {} expected",
            got.noise.len(),
            want.noise.len()
        ));
    }
    if got.groups.len() != want.groups.len() {
        return Err(format!(
            "{} clusters reported, {} expected",
            got.groups.len(),
            want.groups.len()
        ));
    }
    let i = (0..got.groups.len())
        .find(|&i| got.groups[i] != want.groups[i])
        .unwrap_or(0);
    Err(format!(
        "cluster {i} differs: {} points reported, {} expected",
        got.groups[i].len(),
        want.groups[i].len()
    ))
}

/// The sandwich guarantee of ρ-double-approximate DBSCAN:
/// `C(eps) ⊑ got ⊑ C((1+ρ)·eps)`.
pub fn sandwich(got: &Clusters, lo: &Clusters, hi: &Clusters) -> Result<(), String> {
    contained(lo, got).map_err(|e| format!("C(eps) ⊑ C fails: {e}"))?;
    contained(got, hi).map_err(|e| format!("C ⊑ C((1+rho)eps) fails: {e}"))
}

/// DBSCAN straight from the definition, in O(n²): the oracle's own oracle.
#[cfg(test)]
fn dbscan_quadratic<const D: usize>(
    pts: &[[f64; D]],
    ids: &[u32],
    eps: f64,
    min_pts: usize,
) -> Clusters {
    let n = pts.len();
    let near = |i: usize, j: usize| dist_sq(&pts[i], &pts[j]) <= eps * eps;
    let core: Vec<bool> = (0..n)
        .map(|i| (0..n).filter(|&j| near(i, j)).count() >= min_pts)
        .collect();
    let mut comp = vec![usize::MAX; n];
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for s in 0..n {
        if !core[s] || comp[s] != usize::MAX {
            continue;
        }
        let g = groups.len();
        let mut stack = vec![s];
        comp[s] = g;
        let mut members = Vec::new();
        while let Some(i) = stack.pop() {
            members.push(i);
            for j in 0..n {
                if core[j] && comp[j] == usize::MAX && near(i, j) {
                    comp[j] = g;
                    stack.push(j);
                }
            }
        }
        let mut group: Vec<u32> = members.iter().map(|&i| ids[i]).collect();
        for b in 0..n {
            if !core[b] && members.iter().any(|&i| near(i, b)) {
                group.push(ids[b]);
            }
        }
        groups.push(group);
    }
    let noise = (0..n)
        .filter(|&i| !core[i] && !(0..n).any(|j| core[j] && near(i, j)))
        .map(|i| ids[i])
        .collect();
    Clusters::normalized(groups, noise)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    fn ids(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn border_point_joins_both_clusters() {
        // Two 4-point blobs of cores 2.0 apart; the point halfway is within
        // eps of one core of each but has only 3 neighbours itself.
        let mut pts = vec![[0.0, 0.0], [-0.05, 0.0], [0.0, 0.05], [-0.05, 0.05]];
        pts.extend([[2.0, 0.0], [2.05, 0.0], [2.0, 0.05], [2.05, 0.05]]);
        pts.push([1.0, 0.0]);
        let c = dbscan(&pts, &ids(9), 1.0, 4);
        assert_eq!(c.groups, vec![vec![0, 1, 2, 3, 8], vec![4, 5, 6, 7, 8]]);
        assert!(c.noise.is_empty());
        assert_eq!(c, dbscan_quadratic(&pts, &ids(9), 1.0, 4));
    }

    #[test]
    fn pairs_at_exactly_eps_are_neighbours() {
        // A chain with unit spacing, eps = 1, MinPts = 3: the inner points
        // are core only because the closed ball counts both neighbours.
        let pts: Vec<[f64; 2]> = (0..5).map(|i| [i as f64, 0.0]).collect();
        let c = dbscan(&pts, &ids(5), 1.0, 3);
        assert_eq!(c.groups, vec![vec![0, 1, 2, 3, 4]]);
        let c = dbscan(&pts, &ids(5), 0.999_999, 2);
        assert_eq!(c.groups, Vec::<Vec<u32>>::new());
        assert_eq!(c.noise, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn all_noise() {
        let pts: Vec<[f64; 3]> = (0..20).map(|i| [i as f64 * 10.0, 0.0, 5.0]).collect();
        let c = dbscan(&pts, &ids(20), 1.0, 2);
        assert!(c.groups.is_empty());
        assert_eq!(c.noise, ids(20));
    }

    #[test]
    fn self_counts_toward_min_pts() {
        let pts = [[0.0, 0.0], [0.5, 0.0]];
        assert_eq!(dbscan(&pts, &ids(2), 1.0, 2).groups, vec![vec![0, 1]]);
        assert_eq!(dbscan(&pts, &ids(2), 1.0, 3).noise, vec![0, 1]);
    }

    #[test]
    fn matches_quadratic_on_random_points() {
        for seed in 0..12u64 {
            let mut rng = Rng::new(seed);
            let n = 200 + rng.below(200);
            let eps = 0.5 + rng.f64() * 2.0;
            let min_pts = 2 + rng.below(6);
            let pts2: Vec<[f64; 2]> = (0..n)
                .map(|_| [rng.f64() * 15.0, rng.f64() * 15.0])
                .collect();
            let labels: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
            assert_eq!(
                dbscan(&pts2, &labels, eps, min_pts),
                dbscan_quadratic(&pts2, &labels, eps, min_pts),
                "d=2 seed {seed}"
            );
            let pts3: Vec<[f64; 3]> = (0..n)
                .map(|_| std::array::from_fn(|_| rng.f64() * 8.0))
                .collect();
            assert_eq!(
                dbscan(&pts3, &labels, eps, min_pts),
                dbscan_quadratic(&pts3, &labels, eps, min_pts),
                "d=3 seed {seed}"
            );
        }
    }

    #[test]
    fn containment_and_sandwich() {
        let a = Clusters::normalized(vec![vec![1, 2], vec![5]], vec![9]);
        let b = Clusters::normalized(vec![vec![1, 2, 3], vec![4, 5]], vec![]);
        assert!(contained(&a, &b).is_ok());
        assert!(contained(&b, &a).is_err());
        let split = Clusters::normalized(vec![vec![1], vec![2, 3]], vec![]);
        assert!(contained(&b, &split).is_err());
        assert!(sandwich(&a, &a, &b).is_ok());
        assert!(sandwich(&b, &a, &a).is_err());
        assert!(same(&a, &a).is_ok());
        assert!(same(&a, &b).is_err());
    }

    #[test]
    fn restrict_keeps_only_queried_ids() {
        let c = Clusters::normalized(vec![vec![1, 2, 3], vec![3, 4]], vec![7, 8]);
        let r = c.restrict(&[3, 8, 2]);
        assert_eq!(r.groups, vec![vec![2, 3], vec![3]]);
        assert_eq!(r.noise, vec![8]);
    }
}
