//! Test-only differential oracle for [`RegionSearch::find`]: the plain
//! scan it replaced, in which every free centre re-sums its square at
//! every radius until the square holds `required` free nodes.
//!
//! Compiled only into tests, of this crate and of `manytest-map` (whose
//! mapper work gate counts the oracle's `node_score` calls), so it names
//! this crate by its external name.
//!
//! [`RegionSearch::find`]: manytest_noc::RegionSearch::find

use manytest_noc::region::{Region, RegionChoice};
use manytest_noc::{Coord, Mesh2D};

/// The pre-summed-area-table `RegionSearch::find`, verbatim.
pub fn find_oracle<F, S>(
    mesh: Mesh2D,
    required: usize,
    is_free: F,
    node_score: S,
) -> Option<RegionChoice>
where
    F: Fn(Coord) -> bool,
    S: Fn(Coord) -> f64,
{
    if required == 0 {
        return Some(RegionChoice {
            region: Region::new(Coord::new(0, 0), 0),
            available: 0,
            score: 0.0,
        });
    }
    let total_free = mesh.coords().filter(|&c| is_free(c)).count();
    if total_free < required {
        return None;
    }
    let max_radius = mesh.width().max(mesh.height());
    let mut best: Option<(u16, f64, Coord)> = None;
    let mut best_available = 0usize;
    for center in mesh.coords() {
        if !is_free(center) {
            continue;
        }
        let mut found: Option<(u16, usize, f64)> = None;
        for radius in 0..=max_radius {
            let region = Region::new(center, radius);
            let mut avail = 0usize;
            let mut score = 0.0;
            for c in region.iter(mesh) {
                if is_free(c) {
                    avail += 1;
                    score += node_score(c);
                }
            }
            if avail >= required {
                found = Some((radius, avail, score));
                break;
            }
            if region.len(mesh) == mesh.node_count() {
                break;
            }
        }
        if let Some((radius, avail, score)) = found {
            let candidate = (radius, score, center);
            let better = match &best {
                None => true,
                Some((br, bs, bc)) => {
                    (radius, score) < (*br, *bs)
                        || ((radius, score) == (*br, *bs)
                            && mesh.node_id(center) < mesh.node_id(*bc))
                }
            };
            if better {
                best = Some(candidate);
                best_available = avail;
            }
        }
    }
    best.map(|(radius, score, center)| RegionChoice {
        region: Region::new(center, radius),
        available: best_available,
        score,
    })
}
