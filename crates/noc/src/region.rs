//! Square-region availability search.
//!
//! The runtime mapper of this paper family (MapPro, CoNA) picks a *first
//! node* for an incoming application by looking for a square region around a
//! candidate centre that contains enough available cores, preferring small,
//! dense regions (low dispersion → low congestion). [`Region`] is a
//! Chebyshev ball clipped to the mesh; [`RegionSearch`] scans candidate
//! centres and returns the best `(centre, radius)` under a caller-supplied
//! per-node desirability score.
//!
//! The search is exact and region-local. [`RegionSearch::find`] first
//! builds an integer summed-area table of the free mask (one O(N) pass),
//! so the free count of any clipped square is an O(1) query. Each free
//! centre then asks one question at the best radius found so far: a
//! centre whose square there holds too few free nodes needs a larger
//! radius, so it can neither tie nor win, and is skipped. The remaining
//! centres binary-search their minimal radius with O(log R) count
//! queries, and only they sum `node_score`, walking their square in the
//! same row-major order as a plain scan would, so the f64 score keeps its
//! exact bits. A float prefix table would round differently and is
//! deliberately not used. The cost is O(N + C·log R + T·R²) for N mesh
//! nodes, C free centres, T centres that tie or beat the best radius and
//! R the chosen radius.

use crate::coord::Coord;
use crate::topology::Mesh2D;
use serde::{Deserialize, Serialize};

/// A square region: all mesh nodes within Chebyshev distance `radius` of
/// `center`, clipped to the mesh boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    /// Centre of the square.
    pub center: Coord,
    /// Chebyshev radius (0 = just the centre).
    pub radius: u16,
}

impl Region {
    /// Creates a region.
    pub const fn new(center: Coord, radius: u16) -> Self {
        Region { center, radius }
    }

    /// Iterates over the mesh nodes inside the region, row-major.
    pub fn iter(self, mesh: Mesh2D) -> impl Iterator<Item = Coord> {
        let x0 = self.center.x.saturating_sub(self.radius);
        let y0 = self.center.y.saturating_sub(self.radius);
        let x1 = self.center.x.saturating_add(self.radius).min(mesh.width() - 1);
        let y1 = self.center.y.saturating_add(self.radius).min(mesh.height() - 1);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| Coord { x, y }))
    }

    /// Number of mesh nodes inside the region.
    pub fn len(self, mesh: Mesh2D) -> usize {
        self.iter(mesh).count()
    }

    /// True if the clipped region is empty (cannot happen for a centre
    /// inside the mesh, but kept for API completeness).
    pub fn is_empty(self, mesh: Mesh2D) -> bool {
        !mesh.contains(self.center) && self.len(mesh) == 0
    }

    /// True if `c` lies inside the (clipped) region.
    pub fn contains(self, mesh: Mesh2D, c: Coord) -> bool {
        mesh.contains(c) && self.center.chebyshev(c) <= u32::from(self.radius)
    }
}

/// Result of a region search: where to map and how dispersed the region is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionChoice {
    /// Chosen region.
    pub region: Region,
    /// Number of available nodes inside the region.
    pub available: usize,
    /// Score of the winning candidate (lower is better).
    pub score: f64,
}

/// Square-region first-node search over a mesh.
///
/// # Examples
///
/// ```
/// use manytest_noc::prelude::*;
///
/// let mesh = Mesh2D::new(8, 8);
/// let search = RegionSearch::new(mesh);
/// // Everything free, no preference: any radius-1 square fits 4 cores.
/// let choice = search
///     .find(4, |_| true, |_| 0.0)
///     .expect("mesh has room");
/// assert!(choice.available >= 4);
/// assert!(choice.region.radius <= 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RegionSearch {
    mesh: Mesh2D,
}

impl RegionSearch {
    /// Creates a search over `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        RegionSearch { mesh }
    }

    /// The mesh being searched.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Finds the best region holding at least `required` nodes for which
    /// `is_free` returns true.
    ///
    /// Candidates are ranked by `radius` first (small, dense regions win,
    /// minimising dispersion), then by the sum of `node_score` over the free
    /// nodes of the region (lower is better — callers express utilisation or
    /// test-criticality preferences here), then by centre id for
    /// determinism. Returns `None` when fewer than `required` nodes are free
    /// in the whole mesh.
    ///
    /// Each free centre's radius is its minimal one, found by binary search
    /// on a summed-area table of the free mask; `node_score` is evaluated
    /// only over the square of a centre whose radius ties or beats the best
    /// so far (see the module docs). The cost is O(N + C·log R + T·R²)
    /// for N nodes, C free centres, T such centres and radius R. Both
    /// closures must be pure: the table reads `is_free` once per node.
    pub fn find<F, S>(&self, required: usize, is_free: F, node_score: S) -> Option<RegionChoice>
    where
        F: Fn(Coord) -> bool,
        S: Fn(Coord) -> f64,
    {
        if required == 0 {
            // Degenerate but well-defined: an empty application fits anywhere.
            return Some(RegionChoice {
                region: Region::new(Coord::new(0, 0), 0),
                available: 0,
                score: 0.0,
            });
        }
        let free = FreeTable::build(self.mesh, &is_free);
        if free.total() < required {
            return None;
        }
        let width = u32::from(self.mesh.width());
        let height = u32::from(self.mesh.height());
        let mut best: Option<(u16, f64, Coord)> = None;
        let mut best_available = 0usize;
        for center in self.mesh.coords() {
            if free.count(center, 0) == 0 {
                continue;
            }
            // The square reaching the farthest mesh corner holds every free
            // node, so no centre needs a larger radius than that.
            let (cx, cy) = (u32::from(center.x), u32::from(center.y));
            let mut hi = cx.max(width - 1 - cx).max(cy).max(height - 1 - cy);
            if let Some((best_radius, _, _)) = best {
                // Radius ranks first: a centre that needs more than the
                // best radius can neither tie nor win.
                let best_radius = u32::from(best_radius);
                if free.count(center, best_radius) < required {
                    continue;
                }
                hi = hi.min(best_radius);
            }
            // Smallest radius around this centre that collects `required`
            // free nodes (free counts never shrink as the radius grows).
            let mut lo = 0;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if free.count(center, mid) >= required {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let radius = lo as u16;
            let avail = free.count(center, lo);
            let mut score = 0.0;
            for c in Region::new(center, radius).iter(self.mesh) {
                if is_free(c) {
                    score += node_score(c);
                }
            }
            let better = match &best {
                None => true,
                Some((br, bs, bc)) => {
                    (radius, score) < (*br, *bs)
                        || ((radius, score) == (*br, *bs)
                            && self.mesh.node_id(center) < self.mesh.node_id(*bc))
                }
            };
            if better {
                best = Some((radius, score, center));
                best_available = avail;
            }
        }
        best.map(|(radius, score, center)| RegionChoice {
            region: Region::new(center, radius),
            available: best_available,
            score,
        })
    }
}

/// Integer summed-area table of a free mask: the free count of any
/// clipped square in O(1).
struct FreeTable {
    mesh: Mesh2D,
    /// `(width + 1) × (height + 1)` prefix counts, row-major: entry
    /// `(x, y)` counts the free nodes in columns `< x` of rows `< y`.
    sums: Vec<u32>,
}

impl FreeTable {
    // lint:effect(alloc, reason = "one (width+1)×(height+1) count table per region search, i.e. per mapping attempt; mappers already allocate one placement per admitted app")
    fn build(mesh: Mesh2D, is_free: impl Fn(Coord) -> bool) -> Self {
        let stride = usize::from(mesh.width()) + 1;
        let mut sums = vec![0u32; stride * (usize::from(mesh.height()) + 1)];
        for y in 0..mesh.height() {
            let row = (usize::from(y) + 1) * stride;
            let mut in_row = 0u32;
            for x in 0..mesh.width() {
                in_row += u32::from(is_free(Coord { x, y }));
                let i = row + usize::from(x) + 1;
                sums[i] = sums[i - stride] + in_row;
            }
        }
        FreeTable { mesh, sums }
    }

    /// Free nodes in the whole mesh.
    fn total(&self) -> usize {
        self.sums[self.sums.len() - 1] as usize
    }

    /// Free nodes within Chebyshev distance `radius` of `center` (a mesh
    /// node). Widened arithmetic: any `u32` radius is safe.
    fn count(&self, center: Coord, radius: u32) -> usize {
        let r = radius as usize;
        let (cx, cy) = (usize::from(center.x), usize::from(center.y));
        let x0 = cx.saturating_sub(r);
        let y0 = cy.saturating_sub(r);
        let x1 = (cx + r + 1).min(usize::from(self.mesh.width()));
        let y1 = (cy + r + 1).min(usize::from(self.mesh.height()));
        let stride = usize::from(self.mesh.width()) + 1;
        let at = |x: usize, y: usize| self.sums[y * stride + x] as usize;
        at(x1, y1) + at(x0, y0) - at(x0, y1) - at(x1, y0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region_oracle::find_oracle;
    use manytest_sim::SimRng;

    /// A choice with its score as raw bits, so equality is bit-identity.
    fn bits(choice: Option<RegionChoice>) -> Option<(Region, usize, u64)> {
        choice.map(|c| (c.region, c.available, c.score.to_bits()))
    }

    /// A random free mask of random density and a per-node score: either
    /// continuous with negative values, or three integer levels that force
    /// score ties between centres.
    fn random_inputs(rng: &mut SimRng, mesh: Mesh2D) -> (Vec<bool>, Vec<f64>) {
        let n = mesh.node_count();
        let density = rng.next_f64();
        let free = (0..n).map(|_| rng.gen_bool(density)).collect();
        let ties = rng.gen_bool(0.5);
        let score = (0..n)
            .map(|_| {
                if ties {
                    rng.gen_range(3) as f64
                } else {
                    rng.gen_f64_range(-2.0, 5.0)
                }
            })
            .collect();
        (free, score)
    }

    #[test]
    fn find_matches_oracle_bit_for_bit() {
        let mut rng = SimRng::seed_from(0x5EA2_C4);
        for case in 0..1500 {
            let mesh = Mesh2D::new(
                1 + rng.gen_range(20) as u16,
                1 + rng.gen_range(13) as u16,
            );
            let (free, score) = random_inputs(&mut rng, mesh);
            let required = rng.gen_range(mesh.node_count() as u64 + 2) as usize;
            let is_free = |c: Coord| free[mesh.node_id(c).index()];
            let node_score = |c: Coord| score[mesh.node_id(c).index()];
            let got = RegionSearch::new(mesh).find(required, is_free, node_score);
            let want = find_oracle(mesh, required, is_free, node_score);
            assert_eq!(bits(got), bits(want), "case {case}: {mesh:?}, required {required}");
        }
    }

    #[test]
    fn find_matches_oracle_on_all_free_ties() {
        // Zero scores everywhere: every decision falls to radius and id.
        for (w, h) in [(1, 1), (1, 9), (7, 1), (5, 5), (20, 13), (13, 20)] {
            let mesh = Mesh2D::new(w, h);
            let n = mesh.node_count();
            for required in (0..=n + 1).filter(|&r| r < 10 || r % 7 == 0 || r + 2 >= n) {
                let got = RegionSearch::new(mesh).find(required, |_| true, |_| 0.0);
                let want = find_oracle(mesh, required, |_| true, |_| 0.0);
                assert_eq!(bits(got), bits(want), "{mesh:?}, required {required}");
            }
        }
    }

    #[test]
    fn very_wide_mesh_does_not_overflow() {
        // Centre x + radius exceeds u16::MAX here.
        let mesh = Mesh2D::new(40_000, 1);
        let r = Region::new(Coord::new(39_999, 0), 39_999);
        assert_eq!(r.len(mesh), 40_000);
        assert_eq!(r.iter(mesh).last(), Some(Coord::new(39_999, 0)));
        assert!(r.contains(mesh, Coord::new(0, 0)));
        assert!(!Region::new(Coord::new(39_999, 0), 1).contains(mesh, Coord::new(0, 0)));
        let edge = Region::new(Coord::new(30_000, 0), u16::MAX);
        assert_eq!(edge.len(mesh), 40_000);
        // Only the two end nodes are free: the search must reach across
        // the whole mesh from its first centre.
        let is_free = |c: Coord| c.x == 0 || c.x == 39_999;
        let choice = RegionSearch::new(mesh).find(2, is_free, |_| 0.0).unwrap();
        assert_eq!(choice.region, Region::new(Coord::new(0, 0), 39_999));
        assert_eq!(choice.available, 2);
        // A centre at the far end whose square spans the mesh wins here.
        let is_free = |c: Coord| c.x == 0 || c.x >= 39_998;
        let choice = RegionSearch::new(mesh).find(3, is_free, |_| 1.0).unwrap();
        assert_eq!(choice.region, Region::new(Coord::new(39_998, 0), 39_998));
        assert_eq!((choice.available, choice.score), (3, 3.0));
    }

    #[test]
    fn region_iter_clips_to_mesh() {
        let mesh = Mesh2D::new(4, 4);
        let corner = Region::new(Coord::new(0, 0), 1);
        assert_eq!(corner.len(mesh), 4); // 2x2 after clipping
        let interior = Region::new(Coord::new(2, 2), 1);
        assert_eq!(interior.len(mesh), 9);
    }

    #[test]
    fn region_contains_matches_iter() {
        let mesh = Mesh2D::new(5, 5);
        let r = Region::new(Coord::new(1, 3), 2);
        for c in mesh.coords() {
            let by_iter = r.iter(mesh).any(|rc| rc == c);
            assert_eq!(by_iter, r.contains(mesh, c), "mismatch at {c}");
        }
    }

    #[test]
    fn radius_zero_is_single_node() {
        let mesh = Mesh2D::new(3, 3);
        let r = Region::new(Coord::new(1, 1), 0);
        assert_eq!(r.iter(mesh).collect::<Vec<_>>(), vec![Coord::new(1, 1)]);
    }

    #[test]
    fn search_prefers_smallest_radius() {
        let mesh = Mesh2D::new(8, 8);
        let search = RegionSearch::new(mesh);
        let choice = search.find(1, |_| true, |_| 0.0).unwrap();
        assert_eq!(choice.region.radius, 0);
        let choice9 = search.find(9, |_| true, |_| 0.0).unwrap();
        assert_eq!(choice9.region.radius, 1);
    }

    #[test]
    fn search_respects_availability() {
        let mesh = Mesh2D::new(4, 4);
        let search = RegionSearch::new(mesh);
        // Only the top row is free.
        let is_free = |c: Coord| c.y == 3;
        let choice = search.find(3, is_free, |_| 0.0).unwrap();
        assert!(choice.available >= 3);
        let free_in_region = choice
            .region
            .iter(mesh)
            .filter(|&c| is_free(c))
            .count();
        assert!(free_in_region >= 3);
    }

    #[test]
    fn search_fails_when_not_enough_free() {
        let mesh = Mesh2D::new(3, 3);
        let search = RegionSearch::new(mesh);
        assert!(search.find(10, |_| true, |_| 0.0).is_none());
        assert!(search.find(1, |_| false, |_| 0.0).is_none());
    }

    #[test]
    fn search_uses_node_score_to_break_radius_ties() {
        let mesh = Mesh2D::new(8, 2);
        let search = RegionSearch::new(mesh);
        // Single-node request, all free: score should steer the pick to the
        // cheapest node.
        let cheap = Coord::new(5, 1);
        let choice = search
            .find(1, |_| true, |c| if c == cheap { -10.0 } else { 0.0 })
            .unwrap();
        assert_eq!(choice.region.center, cheap);
    }

    #[test]
    fn search_is_deterministic() {
        let mesh = Mesh2D::new(6, 6);
        let search = RegionSearch::new(mesh);
        let a = search.find(4, |c| c.x % 2 == 0, |_| 1.0).unwrap();
        let b = search.find(4, |c| c.x % 2 == 0, |_| 1.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_required_is_trivially_satisfied() {
        let mesh = Mesh2D::new(2, 2);
        let choice = RegionSearch::new(mesh).find(0, |_| false, |_| 0.0).unwrap();
        assert_eq!(choice.available, 0);
    }

    #[test]
    fn whole_mesh_request_spans_mesh() {
        let mesh = Mesh2D::new(4, 4);
        let choice = RegionSearch::new(mesh).find(16, |_| true, |_| 0.0).unwrap();
        assert_eq!(choice.available, 16);
        assert_eq!(choice.region.len(mesh), 16);
    }
}
