//! Contiguous nearest-neighbour task placement.
//!
//! Given a chosen region, both mappers place tasks the same way (the CoNA
//! recipe): the most communication-heavy task goes closest to the region
//! centre, then tasks are placed one at a time in order of how much they
//! talk to the already-placed set, each on the free core that minimises
//! `Σ bits × hops` to its placed partners — plus a caller-supplied per-node
//! penalty, which is where the test-aware strategy differs from the
//! baseline.
//!
//! The search for each task's core is exact and region-local. It costs the
//! region's square first, then Chebyshev rings k = 1, 2, … around it. A
//! core in ring k pays `outside_unit × k` for leaving the region, and every
//! other cost term is non-negative, so once that bound exceeds the best
//! cost found no farther core can win and the scan stops. Each candidate
//! is costed once, against its placed partners collected once per task.

use crate::context::MapContext;
use crate::mapping::Mapping;
use manytest_noc::{Coord, Mesh2D, Region};
use manytest_workload::{TaskGraph, TaskId};

/// Floor of the per-excess-hop cost for leaving the chosen region (hops
/// beyond the region border are discouraged but not forbidden —
/// fragmentation may force it). The effective cost also scales with the
/// application's mean edge volume so that communication attraction cannot
/// drown the region preference.
const OUTSIDE_REGION_PENALTY_FLOOR: f64 = 1.0e5;

/// Mean communication volume per edge of `app` (1 for edge-less apps);
/// mappers use this to express node penalties in "hops of typical traffic".
pub fn mean_edge_bits(app: &TaskGraph) -> f64 {
    if app.edges().is_empty() {
        1.0
    } else {
        (app.total_bits() / app.edges().len() as f64).max(1.0)
    }
}

/// Orders tasks by descending attachment to the already-placed set, seeded
/// with the most communication-heavy task.
///
/// Each task's volume is summed once per step, over the edges in graph
/// order; ties go to the lowest id.
fn placement_order(app: &TaskGraph) -> Vec<TaskId> {
    let n = app.task_count();
    let mut order: Vec<TaskId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut volume = vec![0.0; n];
    while order.len() < n {
        // Seed: heaviest communicator. Then: strongest attachment to the
        // placed set.
        let seeding = order.is_empty();
        for t in (0..n as u32).map(TaskId).filter(|t| !placed[t.index()]) {
            volume[t.index()] = app
                .edges()
                .iter()
                .filter(|e| {
                    if seeding {
                        e.from == t || e.to == t
                    } else {
                        (e.from == t && placed[e.to.index()])
                            || (e.to == t && placed[e.from.index()])
                    }
                })
                .map(|e| e.bits)
                .sum();
        }
        let next = (0..n as u32)
            .map(TaskId)
            .filter(|t| !placed[t.index()])
            .max_by(|&a, &b| {
                volume[a.index()]
                    .partial_cmp(&volume[b.index()])
                    .expect("volumes are finite")
                    .then(b.0.cmp(&a.0))
            })
            .expect("some task remains");
        order.push(next);
        placed[next.index()] = true;
    }
    order
}

/// Places `app` contiguously inside (preferably) `region`.
///
/// `node_penalty` is added to each candidate core's cost; the baseline
/// passes a constant, the test-aware mapper passes utilisation/criticality
/// pressure. Returns `None` if fewer free cores exist than tasks.
///
/// Precondition: `node_penalty` is non-negative and every edge volume of
/// `app` is finite and non-negative (debug builds assert both). The ring
/// cutoff (see the module docs) relies on it: it makes `outside_unit × k`
/// a lower bound on the cost of every core in ring k, because f64 addition
/// of non-negative terms never decreases a sum.
pub fn place(
    ctx: &MapContext,
    region: Region,
    app: &TaskGraph,
    node_penalty: impl Fn(Coord) -> f64,
) -> Option<Mapping> {
    let mesh = ctx.mesh();
    let n = app.task_count();
    if ctx.free_count() < n {
        return None;
    }
    debug_assert!(
        app.edges().iter().all(|e| e.bits.is_finite() && e.bits >= 0.0),
        "edge volumes must be finite and non-negative"
    );
    let order = placement_order(app);
    let outside_unit = (10.0 * mean_edge_bits(app)).max(OUTSIDE_REGION_PENALTY_FLOOR);
    let mut slots: Vec<Option<Coord>> = vec![None; n];
    let mut used: Vec<Coord> = Vec::with_capacity(n);
    let mut partners: Vec<(Coord, f64)> = Vec::with_capacity(app.edges().len());
    for (rank, &task) in order.iter().enumerate() {
        // Placed communication partners, in edge order so the attraction
        // sum rounds the same way for every candidate.
        partners.clear();
        partners.extend(app.edges().iter().filter_map(|e| {
            let partner = if e.from == task {
                slots[e.to.index()]
            } else if e.to == task {
                slots[e.from.index()]
            } else {
                None
            };
            partner.map(|p| (p, e.bits))
        }));
        // Lowest (cost, node id) over the free, unused cores seen so far.
        let mut best: Option<(f64, Coord)> = None;
        let consider = |best: &mut Option<(f64, Coord)>, c: Coord, excess: u32| {
            if !ctx.is_free(c) || used.contains(&c) {
                return;
            }
            let partner_cost: f64 = partners
                .iter()
                .map(|&(p, bits)| bits * c.manhattan(p) as f64)
                .sum();
            // The first task anchors at the region centre.
            let anchor_cost = if rank == 0 {
                c.manhattan(region.center) as f64
            } else {
                0.0
            };
            let outside = outside_unit * f64::from(excess);
            let penalty = node_penalty(c);
            debug_assert!(penalty >= 0.0, "node penalty must be non-negative");
            let cost = partner_cost + anchor_cost + outside + penalty;
            let wins = best.map_or(true, |(best_cost, best_core)| {
                cost.partial_cmp(&best_cost)
                    .expect("costs are finite")
                    .then(mesh.node_id(c).cmp(&mesh.node_id(best_core)))
                    .is_lt()
            });
            if wins {
                *best = Some((cost, c));
            }
        };
        region.iter(mesh).for_each(|c| consider(&mut best, c, 0));
        let (cx, cy) = (i64::from(region.center.x), i64::from(region.center.y));
        let (w, h) = (i64::from(mesh.width()), i64::from(mesh.height()));
        let farthest = cx.max(w - 1 - cx).max(cy).max(h - 1 - cy);
        let radius = i64::from(region.radius);
        let mut k = 1u32;
        while radius + i64::from(k) <= farthest {
            if best.is_some_and(|(best_cost, _)| outside_unit * f64::from(k) > best_cost) {
                break;
            }
            for_each_in_ring(mesh, region.center, radius + i64::from(k), |c| {
                consider(&mut best, c, k)
            });
            k += 1;
        }
        let (_, chosen) = best?;
        slots[task.index()] = Some(chosen);
        used.push(chosen);
    }
    let coords: Vec<Coord> = slots
        .into_iter()
        .map(|s| s.expect("every task placed"))
        .collect();
    Some(Mapping::new(coords))
}

/// Calls `f` on every mesh node at Chebyshev distance exactly `d ≥ 1` from
/// `center`, row-major.
fn for_each_in_ring(mesh: Mesh2D, center: Coord, d: i64, mut f: impl FnMut(Coord)) {
    let (cx, cy) = (i64::from(center.x), i64::from(center.y));
    let (w, h) = (i64::from(mesh.width()), i64::from(mesh.height()));
    let (x0, x1) = ((cx - d).max(0), (cx + d).min(w - 1));
    let (y0, y1) = ((cy - d).max(0), (cy + d).min(h - 1));
    if x0 > x1 {
        return;
    }
    let at = |x: i64, y: i64| Coord::new(x as u16, y as u16);
    for y in y0..=y1 {
        if y == cy - d || y == cy + d {
            (x0..=x1).for_each(|x| f(at(x, y)));
        } else {
            // The ring's side columns, where the mesh does not clip them.
            if x0 == cx - d {
                f(at(x0, y));
            }
            if x1 == cx + d {
                f(at(x1, y));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region_oracle::find_oracle;
    use crate::TestAwareMapper;
    use manytest_noc::RegionSearch;
    use manytest_sim::SimRng;
    use manytest_workload::{presets, Task, TaskGraphGenerator};
    use std::cell::Cell;

    /// The `placement_order` that evaluated both sides of every
    /// comparison, kept as its differential oracle.
    fn placement_order_oracle(app: &TaskGraph) -> Vec<TaskId> {
        let n = app.task_count();
        let traffic_of = |t: TaskId| -> f64 {
            app.edges()
                .iter()
                .filter(|e| e.from == t || e.to == t)
                .map(|e| e.bits)
                .sum()
        };
        let mut order: Vec<TaskId> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let seed = (0..n as u32)
            .map(TaskId)
            .max_by(|&a, &b| {
                traffic_of(a)
                    .partial_cmp(&traffic_of(b))
                    .expect("volumes are finite")
                    .then(b.0.cmp(&a.0))
            })
            .expect("graph is non-empty");
        order.push(seed);
        placed[seed.index()] = true;
        while order.len() < n {
            let next = (0..n as u32)
                .map(TaskId)
                .filter(|t| !placed[t.index()])
                .max_by(|&a, &b| {
                    let attach = |t: TaskId| -> f64 {
                        app.edges()
                            .iter()
                            .filter(|e| {
                                (e.from == t && placed[e.to.index()])
                                    || (e.to == t && placed[e.from.index()])
                            })
                            .map(|e| e.bits)
                            .sum()
                    };
                    attach(a)
                        .partial_cmp(&attach(b))
                        .expect("volumes are finite")
                        .then(b.0.cmp(&a.0))
                })
                .expect("some task remains");
            order.push(next);
            placed[next.index()] = true;
        }
        order
    }

    /// The whole-mesh `place` the ring search replaced, kept as its
    /// differential oracle: every free core is costed for every task, twice
    /// per comparison.
    fn place_oracle(
        ctx: &MapContext,
        region: Region,
        app: &TaskGraph,
        node_penalty: impl Fn(Coord) -> f64,
    ) -> Option<Mapping> {
        let mesh = ctx.mesh();
        let n = app.task_count();
        if ctx.free_count() < n {
            return None;
        }
        let order = placement_order_oracle(app);
        let outside_unit = (10.0 * mean_edge_bits(app)).max(OUTSIDE_REGION_PENALTY_FLOOR);
        let mut slots: Vec<Option<Coord>> = vec![None; n];
        let mut used: Vec<Coord> = Vec::with_capacity(n);
        for (rank, &task) in order.iter().enumerate() {
            let candidate_cost = |c: Coord| -> f64 {
                let partner_cost: f64 = app
                    .edges()
                    .iter()
                    .filter_map(|e| {
                        let partner = if e.from == task {
                            slots[e.to.index()]
                        } else if e.to == task {
                            slots[e.from.index()]
                        } else {
                            None
                        };
                        partner.map(|p| e.bits * c.manhattan(p) as f64)
                    })
                    .sum();
                let anchor_cost = if rank == 0 {
                    c.manhattan(region.center) as f64
                } else {
                    0.0
                };
                let outside = if region.contains(mesh, c) {
                    0.0
                } else {
                    let excess = region.center.chebyshev(c).saturating_sub(region.radius as u32);
                    outside_unit * excess as f64
                };
                partner_cost + anchor_cost + outside + node_penalty(c)
            };
            let chosen = mesh
                .coords()
                .filter(|&c| ctx.is_free(c) && !used.contains(&c))
                .min_by(|&a, &b| {
                    candidate_cost(a)
                        .partial_cmp(&candidate_cost(b))
                        .expect("costs are finite")
                        .then(mesh.node_id(a).cmp(&mesh.node_id(b)))
                })?;
            slots[task.index()] = Some(chosen);
            used.push(chosen);
        }
        let coords: Vec<Coord> = slots
            .into_iter()
            .map(|s| s.expect("every task placed"))
            .collect();
        Some(Mapping::new(coords))
    }

    /// A SimRng context: each core occupied with probability `occupancy`,
    /// quarantined with probability `quarantine`, with random utilisation
    /// and criticality.
    fn random_context(
        rng: &mut SimRng,
        mesh: Mesh2D,
        occupancy: f64,
        quarantine: f64,
    ) -> MapContext {
        let mut ctx = MapContext::all_free(mesh);
        for c in mesh.coords() {
            ctx.set_free(c, !rng.gen_bool(occupancy));
            ctx.set_healthy(c, !rng.gen_bool(quarantine));
            ctx.set_utilization(c, rng.next_f64());
            ctx.set_criticality(c, rng.next_f64() * 4.0);
        }
        ctx
    }

    /// Random generated graphs (from one task up) and every preset.
    fn random_graph(rng: &mut SimRng) -> TaskGraph {
        let presets = presets::all();
        match rng.gen_range(presets.len() as u64 + 2) as usize {
            i if i < presets.len() => presets[i].clone(),
            _ => TaskGraphGenerator {
                min_tasks: 1,
                max_tasks: 16,
                ..TaskGraphGenerator::default()
            }
            .generate(rng, "random"),
        }
    }

    fn tum_penalty(ctx: &MapContext, c: Coord) -> f64 {
        let tum = TestAwareMapper::default();
        tum.utilization_weight * ctx.utilization(c) + tum.criticality_weight * ctx.criticality(c)
    }

    #[test]
    fn placement_order_matches_oracle() {
        let mut rng = SimRng::seed_from(0x0DE2);
        for _ in 0..300 {
            let g = random_graph(&mut rng);
            assert_eq!(placement_order(&g), placement_order_oracle(&g));
        }
    }

    #[test]
    fn place_matches_oracle_on_random_inputs() {
        let mut rng = SimRng::seed_from(0x91AC_E);
        for case in 0..600 {
            let mesh = Mesh2D::new(1 + rng.gen_range(20) as u16, 1 + rng.gen_range(13) as u16);
            let (occupancy, quarantine) = (rng.next_f64(), 0.1 * rng.next_f64());
            let ctx = random_context(&mut rng, mesh, occupancy, quarantine);
            let app = random_graph(&mut rng);
            let scale = mean_edge_bits(&app);
            // Regions from the search, or arbitrary ones (centres up to
            // past the mesh edge, radii up to past the mesh size).
            let region = match RegionSearch::new(mesh).find(
                app.task_count(),
                |c| ctx.is_free(c),
                |c| tum_penalty(&ctx, c),
            ) {
                Some(choice) if rng.gen_bool(0.5) => choice.region,
                _ => Region::new(
                    Coord::new(
                        rng.gen_range(u64::from(mesh.width()) + 2) as u16,
                        rng.gen_range(u64::from(mesh.height()) + 2) as u16,
                    ),
                    rng.gen_range(u64::from(mesh.width().max(mesh.height())) + 2) as u16,
                ),
            };
            let zero = |_: Coord| 0.0;
            let tum = |c: Coord| tum_penalty(&ctx, c) * scale;
            assert_eq!(
                place(&ctx, region, &app, zero),
                place_oracle(&ctx, region, &app, zero),
                "case {case}: zero penalty"
            );
            assert_eq!(
                place(&ctx, region, &app, tum),
                place_oracle(&ctx, region, &app, tum),
                "case {case}: TUM penalty"
            );
        }
    }

    /// Deterministic work evidence for the whole test-aware mapping path,
    /// new kernels vs their oracles on fixed SimRng contexts: the region
    /// search's `is_free` calls, and the `node_score` (region search) plus
    /// `node_penalty` (placement) evaluations, which must drop to a quarter
    /// or less. The exact counts are pinned, so any change in the work done
    /// shows up here.
    #[test]
    fn tum_path_costs_at_most_a_quarter_of_the_oracle() {
        // (mesh edge, new [is_free, scored], oracle [is_free, scored])
        const EXPECTED: [(u16, [u64; 2], [u64; 2]); 2] = [
            (16, [11243, 5686], [34259, 29881]),
            (128, [581777, 264549], [2341074, 2075117]),
        ];
        for (edge, want_new, want_oracle) in EXPECTED {
            let mesh = Mesh2D::new(edge, edge);
            let mut rng = SimRng::seed_from(0x6A7E + u64::from(edge));
            let (mut new, mut oracle) = ([0u64; 2], [0u64; 2]);
            for _ in 0..8 {
                let ctx = random_context(&mut rng, mesh, 0.5, 0.02);
                let app = TaskGraphGenerator::default().generate(&mut rng, "gate");
                let scale = mean_edge_bits(&app);
                let calls = [Cell::new(0u64), Cell::new(0u64)];
                let tick = |i: usize| calls[i].set(calls[i].get() + 1);
                let is_free = |c: Coord| {
                    tick(0);
                    ctx.is_free(c)
                };
                let scored = |c: Coord| {
                    tick(1);
                    tum_penalty(&ctx, c)
                };
                let drain = |total: &mut [u64; 2]| {
                    for (t, call) in total.iter_mut().zip(&calls) {
                        *t += call.replace(0);
                    }
                };
                let region = RegionSearch::new(mesh)
                    .find(app.task_count(), is_free, scored)
                    .map(|choice| choice.region);
                let got = region.and_then(|r| place(&ctx, r, &app, |c| scored(c) * scale));
                drain(&mut new);
                let region = find_oracle(mesh, app.task_count(), is_free, scored)
                    .map(|choice| choice.region);
                let want = region.and_then(|r| place_oracle(&ctx, r, &app, |c| scored(c) * scale));
                drain(&mut oracle);
                assert_eq!(got, want);
                assert!(got.is_some());
            }
            eprintln!("{edge}x{edge}: new {new:?}, oracle {oracle:?}");
            assert!(4 * new[1] <= oracle[1], "{edge}x{edge}: {new:?} vs {oracle:?}");
            assert_eq!((new, oracle), (want_new, want_oracle), "{edge}x{edge}");
        }
    }

    fn chain(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let ids: Vec<TaskId> = (0..n)
            .map(|_| g.add_task(Task { instructions: 1 }))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 100.0);
        }
        g
    }

    fn full_region(mesh: Mesh2D) -> Region {
        Region::new(
            Coord::new(mesh.width() / 2, mesh.height() / 2),
            mesh.width().max(mesh.height()),
        )
    }

    #[test]
    fn chain_maps_with_adjacent_neighbors() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = chain(4);
        let m = place(&ctx, Region::new(Coord::new(3, 3), 1), &app, |_| 0.0).unwrap();
        assert!(m.is_valid_for(mesh, &app));
        // Nearest-neighbour placement should keep chain hops minimal.
        assert!(m.mean_hop_distance(&app) <= 1.5, "{}", m.mean_hop_distance(&app));
    }

    #[test]
    fn placement_stays_in_region_when_possible() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = presets::pip(); // 8 tasks fit a radius-1..2 region
        let region = Region::new(Coord::new(4, 4), 2);
        let m = place(&ctx, region, &app, |_| 0.0).unwrap();
        for &c in m.coords() {
            assert!(region.contains(mesh, c), "{c} escaped the region");
        }
    }

    #[test]
    fn placement_escapes_region_under_fragmentation() {
        let mesh = Mesh2D::new(4, 4);
        let mut ctx = MapContext::all_free(mesh);
        // Occupy everything except the four corners.
        for c in mesh.coords() {
            let corner = (c.x == 0 || c.x == 3) && (c.y == 0 || c.y == 3);
            ctx.set_free(c, corner);
        }
        let app = chain(4);
        let m = place(&ctx, Region::new(Coord::new(0, 0), 0), &app, |_| 0.0).unwrap();
        assert!(m.is_valid_for(mesh, &app));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn insufficient_free_cores_returns_none() {
        let mesh = Mesh2D::new(2, 2);
        let mut ctx = MapContext::all_free(mesh);
        ctx.set_free(Coord::new(0, 0), false);
        ctx.set_free(Coord::new(1, 0), false);
        let app = chain(3);
        assert!(place(&ctx, full_region(mesh), &app, |_| 0.0).is_none());
    }

    #[test]
    fn ring_cutoff_scans_a_ring_whose_bound_ties_the_best_cost() {
        // Two unconnected tasks: the second pays only the outside-region
        // term and its penalty. Ring 1 costs 1e5 + 1e5; ring 2 costs
        // exactly its bound 2e5, ties, and wins on the lower node id.
        let mesh = Mesh2D::new(5, 1);
        let ctx = MapContext::all_free(mesh);
        let mut app = TaskGraph::new("pair");
        app.add_task(Task { instructions: 1 });
        app.add_task(Task { instructions: 1 });
        let region = Region::new(Coord::new(2, 0), 0);
        let penalty = |c: Coord| if c.x == 1 || c.x == 3 { 1.0e5 } else { 0.0 };
        let m = place(&ctx, region, &app, penalty).unwrap();
        assert_eq!(m.coords(), &[Coord::new(2, 0), Coord::new(0, 0)]);
        assert_eq!(Some(m), place_oracle(&ctx, region, &app, penalty));
    }

    #[test]
    fn empty_graph_places_as_empty_mapping() {
        let ctx = MapContext::all_free(Mesh2D::new(2, 2));
        let empty = TaskGraph::new("empty");
        let m = place(&ctx, Region::new(Coord::new(0, 0), 0), &empty, |_| 0.0);
        assert_eq!(m, Some(Mapping::new(Vec::new())));
    }

    #[test]
    fn node_penalty_steers_placement() {
        let mesh = Mesh2D::new(6, 1);
        let ctx = MapContext::all_free(mesh);
        let mut g = TaskGraph::new("solo");
        g.add_task(Task { instructions: 1 });
        // Huge penalty everywhere except x == 5.
        let m = place(&ctx, Region::new(Coord::new(0, 0), 6), &g, |c| {
            if c.x == 5 {
                0.0
            } else {
                1.0e9
            }
        })
        .unwrap();
        assert_eq!(m.coord_of(TaskId(0)), Coord::new(5, 0));
    }

    #[test]
    fn placement_order_starts_with_heaviest() {
        let g = presets::mpeg4();
        let order = placement_order(&g);
        // Task 3 (the SDRAM hub) carries the most traffic in mpeg4.
        assert_eq!(order[0], TaskId(3));
        assert_eq!(order.len(), g.task_count());
        // Order is a permutation.
        let mut sorted: Vec<u32> = order.iter().map(|t| t.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.task_count() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn contiguity_beats_random_scatter_on_hop_cost() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = presets::vopd();
        let m = place(&ctx, Region::new(Coord::new(4, 4), 2), &app, |_| 0.0).unwrap();
        // Scatter: spread 12 tasks over a coarse lattice — legal but
        // dispersed.
        let scatter = Mapping::new(
            (0..app.task_count())
                .map(|i| Coord::new((i % 4 * 2) as u16, (i / 4 * 3) as u16))
                .collect(),
        );
        assert!(m.weighted_hop_cost(&app) < scatter.weighted_hop_cost(&app));
    }

    #[test]
    fn deterministic_under_same_inputs() {
        let mesh = Mesh2D::new(8, 8);
        let ctx = MapContext::all_free(mesh);
        let app = presets::mwd();
        let r = Region::new(Coord::new(4, 4), 2);
        let a = place(&ctx, r, &app, |_| 0.0).unwrap();
        let b = place(&ctx, r, &app, |_| 0.0).unwrap();
        assert_eq!(a, b);
    }
}
