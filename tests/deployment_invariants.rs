//! Invariants of the shipped radio deployments.
//!
//! Load accumulation resolves a visit's serving 4G cell from the visit's
//! site id (`Topology::serving_cell_at_site`) instead of searching for
//! the site nearest to that site's location (`Topology::serving_cell`).
//! The two agree exactly when every deployed site is its own nearest
//! site, which this suite checks for every scale preset's geography and
//! deployment. No population is built.

use cellscope::scenario::{ScenarioConfig, PRESET_NAMES};

#[test]
fn every_site_is_its_own_nearest_site() {
    for &name in PRESET_NAMES {
        for seed in [1, 42, 2020] {
            let cfg = ScenarioConfig::preset(name, seed).expect("known preset");
            let geo = cfg.geography.build();
            let topo = cfg.deployment.build(&geo);
            let strays: Vec<_> = topo
                .sites()
                .iter()
                .filter(|s| topo.nearest_site(s.location) != s.id)
                .map(|s| s.id)
                .collect();
            assert!(
                strays.is_empty(),
                "{name} seed {seed}: {} of {} sites are not their own nearest site: {:?}",
                strays.len(),
                topo.sites().len(),
                &strays[..strays.len().min(10)]
            );
        }
    }
}
