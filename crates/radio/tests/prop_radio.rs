//! Property tests for the radio layer: the spatial index against brute
//! force, serving-cell resolution by site id against the nearest-site
//! search, scheduler conservation laws, and interconnect behaviour.

use cellscope_geo::{Point, ZoneId};
use cellscope_radio::{
    Cell, CellCapacity, CellId, CellSite, HourLoad, Interconnect, InterconnectConfig,
    Rat, Scheduler, SiteId, Topology, VoiceLoad,
};
use proptest::prelude::*;

fn topology_strategy() -> impl Strategy<Value = (Topology, Vec<Point>)> {
    (
        prop::collection::vec((-200.0f64..800.0, -100.0f64..700.0), 1..120),
        prop::collection::vec((-300.0f64..900.0, -200.0f64..800.0), 1..40),
    )
        .prop_map(|(site_points, query_points)| {
            let mut sites = Vec::new();
            let mut cells = Vec::new();
            for (i, (x, y)) in site_points.iter().enumerate() {
                let id = SiteId(i as u32);
                let cid = CellId(i as u32);
                sites.push(CellSite {
                    id,
                    location: Point::new(*x, *y),
                    zone: ZoneId(0),
                    cells: vec![cid],
                });
                cells.push(Cell {
                    id: cid,
                    site: id,
                    rat: Rat::G4,
                    zone: ZoneId(0),
                    location: Point::new(*x, *y),
                    capacity: CellCapacity::typical(Rat::G4),
                    active_from: 0,
                    active_to: u16::MAX,
                });
            }
            let topo = Topology::from_parts(sites, cells, 1);
            let queries = query_points
                .into_iter()
                .map(|(x, y)| Point::new(x, y))
                .collect();
            (topo, queries)
        })
}

/// Sites at distinct locations hosting a random non-empty subset of
/// the three RATs, each cell with a random activation window, so the
/// serving-cell fallbacks (requested RAT, then 4G, then any active
/// cell) all get exercised.
fn multi_rat_topology_strategy() -> impl Strategy<Value = Topology> {
    let site = (
        -200.0f64..800.0,
        -100.0f64..700.0,
        1u8..8,
        (0u16..60, 0u16..120),
        (0u16..60, 0u16..120),
        (0u16..60, 0u16..120),
    );
    prop::collection::vec(site, 1..120).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        let mut sites = Vec::new();
        let mut cells: Vec<Cell> = Vec::new();
        for (x, y, mask, w2, w3, w4) in raw {
            if !seen.insert((x.to_bits(), y.to_bits())) {
                continue;
            }
            let id = SiteId(sites.len() as u32);
            let location = Point::new(x, y);
            let mut hosted = Vec::new();
            for (bit, rat, (from, len)) in
                [(1, Rat::G2, w2), (2, Rat::G3, w3), (4, Rat::G4, w4)]
            {
                if mask & bit == 0 {
                    continue;
                }
                let cid = CellId(cells.len() as u32);
                hosted.push(cid);
                cells.push(Cell {
                    id: cid,
                    site: id,
                    rat,
                    zone: ZoneId(0),
                    location,
                    capacity: CellCapacity::typical(rat),
                    active_from: from,
                    // Long windows stay open to the end of time.
                    active_to: if len >= 100 { u16::MAX } else { from + len },
                });
            }
            sites.push(CellSite { id, location, zone: ZoneId(0), cells: hosted });
        }
        Topology::from_parts(sites, cells, 1)
    })
}

proptest! {
    /// The grid index always returns a site at the true minimum distance
    /// (ties may resolve to either site).
    #[test]
    fn grid_nearest_matches_brute_force((topo, queries) in topology_strategy()) {
        for p in queries {
            let fast = topo.nearest_site(p);
            let brute = topo.nearest_site_brute(p);
            let d_fast = topo.site(fast).location.distance_km(p);
            let d_brute = topo.site(brute).location.distance_km(p);
            prop_assert!(
                (d_fast - d_brute).abs() < 1e-9,
                "grid {d_fast} vs brute {d_brute}"
            );
        }
    }

    /// With distinct site locations every site is its own nearest site,
    /// so resolving the serving cell from the site id picks exactly the
    /// cell the nearest-site search from its location picks.
    #[test]
    fn serving_cell_at_site_matches_search(topo in multi_rat_topology_strategy()) {
        for site in topo.sites() {
            for rat in [Rat::G2, Rat::G3, Rat::G4] {
                for day in [0, 1, 7, 30, 59, 60, 99, 100, 179, 180, 400, u16::MAX] {
                    prop_assert_eq!(
                        topo.serving_cell_at_site(site.id, rat, day),
                        topo.serving_cell(site.location, rat, day),
                        "{} {:?} day {}", site.id, rat, day
                    );
                }
            }
        }
    }

    /// sites_within returns exactly the sites inside the radius.
    #[test]
    fn sites_within_matches_filter((topo, queries) in topology_strategy(), radius in 0.0f64..300.0) {
        for p in queries.into_iter().take(5) {
            let mut got = topo.sites_within(p, radius);
            got.sort();
            let mut expected: Vec<SiteId> = topo
                .sites()
                .iter()
                .filter(|s| s.location.distance_km(p) <= radius)
                .map(|s| s.id)
                .collect();
            expected.sort();
            prop_assert_eq!(got, expected);
        }
    }

    /// Scheduler conservation: served volume never exceeds offered or
    /// capacity, and all outputs stay in range.
    #[test]
    fn scheduler_conservation(
        dl in 0.0f64..1e6,
        ul in 0.0f64..1e6,
        users in 0.0f64..1e4,
        connected in 0.0f64..1e5,
        app_limit in 0.1f64..100.0,
        voice_mb in 0.0f64..1e4,
    ) {
        let scheduler = Scheduler::default();
        let capacity = CellCapacity::typical(Rat::G4);
        let load = HourLoad {
            offered_dl_mb: dl,
            offered_ul_mb: ul,
            active_dl_users: users,
            connected_users: connected,
            app_limit_mbps: app_limit,
            voice: VoiceLoad { volume_mb: voice_mb, simultaneous_users: 1.0 },
        };
        let kpi = scheduler.serve(capacity, &load);
        prop_assert!(kpi.dl_volume_mb <= dl + 1e-9);
        prop_assert!(kpi.ul_volume_mb <= ul + 1e-9);
        prop_assert!(kpi.dl_volume_mb + kpi.voice_volume_mb <= capacity.dl_mb_per_hour() + 1e-6);
        prop_assert!((0.0..=1.0).contains(&kpi.tti_utilization));
        prop_assert!((0.0..=3600.0).contains(&kpi.active_seconds));
        prop_assert!(kpi.user_dl_throughput_mbps <= app_limit + 1e-9);
        prop_assert!((0.0..=1.0).contains(&kpi.radio_loss_rate));
    }

    /// Scheduler is monotone: more offered downlink never reduces the
    /// served volume or the utilization.
    #[test]
    fn scheduler_monotone(base in 0.0f64..50_000.0, extra in 0.0f64..50_000.0) {
        let scheduler = Scheduler::default();
        let capacity = CellCapacity::typical(Rat::G4);
        let mk = |dl: f64| HourLoad {
            offered_dl_mb: dl,
            offered_ul_mb: 100.0,
            active_dl_users: 5.0,
            connected_users: 100.0,
            app_limit_mbps: 8.0,
            voice: VoiceLoad::default(),
        };
        let a = scheduler.serve(capacity, &mk(base));
        let b = scheduler.serve(capacity, &mk(base + extra));
        prop_assert!(b.dl_volume_mb >= a.dl_volume_mb - 1e-9);
        prop_assert!(b.tti_utilization >= a.tti_utilization - 1e-9);
        prop_assert!(b.radio_loss_rate >= a.radio_loss_rate - 1e-12);
    }

    /// Interconnect: loss is within [0,1], zero at zero load, and the
    /// link upgrades at most once no matter the load pattern.
    #[test]
    fn interconnect_safety(loads in prop::collection::vec(0.0f64..500.0, 1..200)) {
        let mut link = Interconnect::new(InterconnectConfig::with_baseline_load(100.0, 1.15));
        let mut upgrades = 0;
        for load in loads {
            let out = link.step(load);
            prop_assert!((0.0..=1.0).contains(&out.dl_loss_rate));
            if out.upgraded_today {
                upgrades += 1;
            }
            if load == 0.0 {
                prop_assert_eq!(out.dl_loss_rate, 0.0);
            }
        }
        prop_assert!(upgrades <= 1);
    }

    /// Cell activation windows behave as half-open membership tests.
    #[test]
    fn activation_window(from in 0u16..200, len in 0u16..200, day in 0u16..400) {
        let cell = Cell {
            id: CellId(0),
            site: SiteId(0),
            rat: Rat::G4,
            zone: ZoneId(0),
            location: Point::new(0.0, 0.0),
            capacity: CellCapacity::typical(Rat::G4),
            active_from: from,
            active_to: from.saturating_add(len),
        };
        prop_assert_eq!(
            cell.is_active(day),
            day >= from && day <= from.saturating_add(len)
        );
    }
}
