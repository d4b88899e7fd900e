//! The deployed network: site/cell tables, indices, daily snapshots.
//!
//! Mirrors the paper's "Radio Network Topology" data feed (Section 2.2):
//! metadata (location, configuration) and active/inactive status of every
//! tower, refreshed daily so structural changes (new deployments) don't
//! masquerade as behavioural shifts.

use crate::cell::{Cell, CellId, CellSite, SiteId};
use crate::rat::Rat;
use cellscope_geo::{BoundingBox, Point, ZoneId};
use serde::{Deserialize, Serialize};

/// A uniform-grid spatial index over cell sites.
///
/// `nearest_site` answers "which tower serves this point" in ~O(1) for
/// realistic densities; correctness (vs brute force) is property-tested.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SiteGrid {
    origin: Point,
    cell_size_km: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<SiteId>>,
}

impl SiteGrid {
    fn build(sites: &[CellSite], bounds: BoundingBox, cell_size_km: f64) -> SiteGrid {
        let cols = ((bounds.width() / cell_size_km).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell_size_km).ceil() as usize).max(1);
        let mut grid = SiteGrid {
            origin: bounds.min,
            cell_size_km,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
        };
        for site in sites {
            let (c, r) = grid.bucket_of(site.location);
            grid.buckets[r * cols + c].push(site.id);
        }
        grid
    }

    fn bucket_of(&self, p: Point) -> (usize, usize) {
        let c = ((p.x - self.origin.x) / self.cell_size_km).floor() as isize;
        let r = ((p.y - self.origin.y) / self.cell_size_km).floor() as isize;
        (
            c.clamp(0, self.cols as isize - 1) as usize,
            r.clamp(0, self.rows as isize - 1) as usize,
        )
    }

    /// Nearest site to `p`, searching outward ring by ring.
    fn nearest(&self, p: Point, sites: &[CellSite]) -> Option<SiteId> {
        let (pc, pr) = self.bucket_of(p);
        let max_radius = self.cols.max(self.rows);
        let mut best: Option<(f64, SiteId)> = None;
        for radius in 0..=max_radius {
            // Scan the ring at this radius.
            let c0 = pc.saturating_sub(radius);
            let c1 = (pc + radius).min(self.cols - 1);
            let r0 = pr.saturating_sub(radius);
            let r1 = (pr + radius).min(self.rows - 1);
            for r in r0..=r1 {
                for c in c0..=c1 {
                    // Only the ring boundary is new at this radius.
                    let on_ring = r == r0 || r == r1 || c == c0 || c == c1;
                    if radius > 0 && !on_ring {
                        continue;
                    }
                    for &sid in &self.buckets[r * self.cols + c] {
                        let d = sites[sid.index()].location.distance_sq(p);
                        if best.map_or(true, |(bd, _)| d < bd) {
                            best = Some((d, sid));
                        }
                    }
                }
            }
            // Once something is found, one extra ring guarantees no closer
            // site hides in a neighbouring bucket.
            if let Some((best_d, _)) = best {
                let safe = (radius as f64) * self.cell_size_km;
                if best_d.sqrt() <= safe {
                    break;
                }
            }
        }
        best.map(|(_, id)| id)
    }
}

/// The full deployed network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    sites: Vec<CellSite>,
    cells: Vec<Cell>,
    cells_by_zone: Vec<Vec<CellId>>,
    grid: SiteGrid,
}

impl Topology {
    /// Assemble from site/cell tables.
    ///
    /// # Panics
    /// Panics if tables are empty, ids are not dense, or a cell references
    /// a missing site.
    pub fn from_parts(sites: Vec<CellSite>, cells: Vec<Cell>, num_zones: usize) -> Topology {
        assert!(!sites.is_empty(), "topology needs at least one site");
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.id.index(), i, "site ids must be dense");
        }
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id.index(), i, "cell ids must be dense");
            assert!(c.site.index() < sites.len(), "cell references missing site");
        }
        let mut cells_by_zone = vec![Vec::new(); num_zones];
        for c in &cells {
            cells_by_zone[c.zone.index()].push(c.id);
        }
        let bounds = BoundingBox::containing(sites.iter().map(|s| s.location))
            .expect("non-empty sites");
        let grid = SiteGrid::build(&sites, bounds, 10.0);
        Topology {
            sites,
            cells,
            cells_by_zone,
            grid,
        }
    }

    /// All sites.
    pub fn sites(&self) -> &[CellSite] {
        &self.sites
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Look up a site.
    pub fn site(&self, id: SiteId) -> &CellSite {
        &self.sites[id.index()]
    }

    /// Look up a cell.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Cells serving a zone.
    pub fn cells_in_zone(&self, zone: ZoneId) -> &[CellId] {
        self.cells_by_zone
            .get(zone.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The site nearest to a point.
    pub fn nearest_site(&self, p: Point) -> SiteId {
        self.grid
            .nearest(p, &self.sites)
            .expect("non-empty topology")
    }

    /// Nearest site by brute force — reference implementation for tests.
    pub fn nearest_site_brute(&self, p: Point) -> SiteId {
        self.sites
            .iter()
            .min_by(|a, b| {
                a.location
                    .distance_sq(p)
                    .total_cmp(&b.location.distance_sq(p))
            })
            .map(|s| s.id)
            .expect("non-empty topology")
    }

    /// All sites within `radius_km` of `p`, unordered.
    pub fn sites_within(&self, p: Point, radius_km: f64) -> Vec<SiteId> {
        let mut out = Vec::new();
        let r2 = radius_km * radius_km;
        let span = (radius_km / self.grid.cell_size_km).ceil() as usize + 1;
        let (pc, pr) = self.grid.bucket_of(p);
        let c0 = pc.saturating_sub(span);
        let c1 = (pc + span).min(self.grid.cols - 1);
        let r0 = pr.saturating_sub(span);
        let r1 = (pr + span).min(self.grid.rows - 1);
        for r in r0..=r1 {
            for c in c0..=c1 {
                for &sid in &self.grid.buckets[r * self.grid.cols + c] {
                    if self.sites[sid.index()].location.distance_sq(p) <= r2 {
                        out.push(sid);
                    }
                }
            }
        }
        out
    }

    /// The cell of a given RAT at the site nearest to `p` that is active
    /// on `day`, with the fallbacks of
    /// [`serving_cell_at_site`](Self::serving_cell_at_site).
    pub fn serving_cell(&self, p: Point, rat: Rat, day: u16) -> Option<CellId> {
        self.serving_cell_at_site(self.nearest_site(p), rat, day)
    }

    /// The cell of a given RAT at `site` that is active on `day`. Falls
    /// back to the site's 4G cell, then any active cell there. O(1): no
    /// spatial search, for callers that already know the site.
    pub fn serving_cell_at_site(&self, site: SiteId, rat: Rat, day: u16) -> Option<CellId> {
        let site = self.site(site);
        let pick = |want: Option<Rat>| -> Option<CellId> {
            site.cells
                .iter()
                .copied()
                .find(|&cid| {
                    let c = self.cell(cid);
                    c.is_active(day) && want.map_or(true, |r| c.rat == r)
                })
        };
        pick(Some(rat)).or_else(|| pick(Some(Rat::G4))).or_else(|| pick(None))
    }

    /// Number of cells of each RAT active on a day — the daily snapshot's
    /// structural summary.
    pub fn active_cell_count(&self, rat: Rat, day: u16) -> usize {
        self.cells
            .iter()
            .filter(|c| c.rat == rat && c.is_active(day))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellCapacity;

    fn toy_topology() -> Topology {
        // 3 sites on a line at x = 0, 10, 20.
        let mut sites = Vec::new();
        let mut cells = Vec::new();
        for i in 0..3u32 {
            let loc = Point::new(i as f64 * 10.0, 0.0);
            let cid = CellId(i);
            sites.push(CellSite {
                id: SiteId(i),
                location: loc,
                zone: ZoneId(i),
                cells: vec![cid],
            });
            cells.push(Cell {
                id: cid,
                site: SiteId(i),
                rat: Rat::G4,
                zone: ZoneId(i),
                location: loc,
                capacity: CellCapacity::typical(Rat::G4),
                active_from: 0,
                active_to: u16::MAX,
            });
        }
        Topology::from_parts(sites, cells, 3)
    }

    #[test]
    fn nearest_site_matches_brute_force() {
        let t = toy_topology();
        for x in [-5.0, 0.0, 4.9, 5.1, 12.0, 19.0, 100.0] {
            let p = Point::new(x, 3.0);
            assert_eq!(t.nearest_site(p), t.nearest_site_brute(p), "x={x}");
        }
    }

    #[test]
    fn serving_cell_respects_activation() {
        let mut t = toy_topology();
        t.cells[0].active_from = 50;
        let p = Point::new(0.0, 0.0);
        // Before activation the nearest site has no active cell at all.
        assert_eq!(t.serving_cell(p, Rat::G4, 10), None);
        assert_eq!(t.serving_cell(p, Rat::G4, 50), Some(CellId(0)));
    }

    #[test]
    fn serving_cell_falls_back_to_4g() {
        let t = toy_topology();
        // Asking for 2G at a 4G-only site falls back to the 4G cell.
        assert_eq!(
            t.serving_cell(Point::new(0.0, 0.0), Rat::G2, 0),
            Some(CellId(0))
        );
    }

    /// One site hosting a 2G, a 3G and a 4G cell (ids 0, 1, 2 in that
    /// order), plus a 4G-only site 10 km away.
    fn multi_rat_topology() -> Topology {
        let loc = Point::new(0.0, 0.0);
        let far = Point::new(10.0, 0.0);
        let mk = |id: u32, site: u32, rat: Rat, location: Point| Cell {
            id: CellId(id),
            site: SiteId(site),
            rat,
            zone: ZoneId(0),
            location,
            capacity: CellCapacity::typical(rat),
            active_from: 0,
            active_to: u16::MAX,
        };
        let cells = vec![
            mk(0, 0, Rat::G2, loc),
            mk(1, 0, Rat::G3, loc),
            mk(2, 0, Rat::G4, loc),
            mk(3, 1, Rat::G4, far),
        ];
        let sites = vec![
            CellSite {
                id: SiteId(0),
                location: loc,
                zone: ZoneId(0),
                cells: vec![CellId(0), CellId(1), CellId(2)],
            },
            CellSite {
                id: SiteId(1),
                location: far,
                zone: ZoneId(0),
                cells: vec![CellId(3)],
            },
        ];
        Topology::from_parts(sites, cells, 1)
    }

    #[test]
    fn site_lookup_prefers_the_requested_rat() {
        let t = multi_rat_topology();
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G2, 0), Some(CellId(0)));
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G3, 0), Some(CellId(1)));
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G4, 0), Some(CellId(2)));
        // A site without the requested RAT falls back to its 4G cell.
        assert_eq!(t.serving_cell_at_site(SiteId(1), Rat::G2, 0), Some(CellId(3)));
    }

    #[test]
    fn site_lookup_with_inactive_4g_falls_back_to_any_active_cell() {
        let mut t = multi_rat_topology();
        // 4G down from day 10, 2G up only from day 20.
        t.cells[2].active_to = 9;
        t.cells[0].active_from = 20;
        // The requested RAT still wins while it is active.
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G3, 15), Some(CellId(1)));
        // 4G requested but inactive: the first active cell, in site order.
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G4, 15), Some(CellId(1)));
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G4, 20), Some(CellId(0)));
        // 2G requested but not yet active, 4G inactive: any active cell.
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G2, 15), Some(CellId(1)));
        // While 4G is up it is the fallback for an inactive RAT.
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G2, 5), Some(CellId(2)));
        // Nothing active at the site: no cell, never a neighbour's.
        t.cells[1].active_to = 9;
        assert_eq!(t.serving_cell_at_site(SiteId(0), Rat::G4, 15), None);
    }

    #[test]
    fn zone_index() {
        let t = toy_topology();
        assert_eq!(t.cells_in_zone(ZoneId(1)), &[CellId(1)]);
        assert!(t.cells_in_zone(ZoneId(99)).is_empty());
    }

    #[test]
    fn sites_within_matches_brute_force() {
        let t = toy_topology();
        for (x, radius) in [(0.0, 5.0), (10.0, 10.0), (5.0, 100.0), (5.0, 0.1)] {
            let p = Point::new(x, 0.0);
            let mut got = t.sites_within(p, radius);
            got.sort();
            let mut want: Vec<SiteId> = t
                .sites
                .iter()
                .filter(|s| s.location.distance_km(p) <= radius)
                .map(|s| s.id)
                .collect();
            want.sort();
            assert_eq!(got, want, "x={x} r={radius}");
        }
    }

    #[test]
    fn active_counts() {
        let mut t = toy_topology();
        t.cells[2].active_to = 5;
        assert_eq!(t.active_cell_count(Rat::G4, 0), 3);
        assert_eq!(t.active_cell_count(Rat::G4, 6), 2);
        assert_eq!(t.active_cell_count(Rat::G3, 0), 0);
    }
}
