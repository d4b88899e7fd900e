//! Scale benchmark with a hard peak-memory budget.
//!
//! Run with `cargo bench -p cellscope-bench --bench scale`
//! (tier-1 smoke: append `-- --test`).
//!
//! Sweeps the sharded runner over the affordable presets, writes the
//! subscribers-vs-wall-time-vs-peak-RSS baseline to
//! `results/BENCH_scale.json`, and asserts the memory budget at the
//! small preset: the sharded runner's peak RSS is set by the shard
//! size, so a regression that reintroduces a population-sized
//! intermediate (the pre-sharding behaviour held every
//! subscriber × day structure at once) fails loudly here before
//! anyone pays for it at the 500k-subscriber `large` preset.

use cellscope_bench::{feedbench, scalebench};
use cellscope_scenario::{ScenarioConfig, ShardPlan};
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::Path;

/// Peak-RSS budget for the small preset (12k subscribers, 100 days)
/// through the sharded runner. Measured figures are well under half of
/// this (see `results/BENCH_scale.json`); the slack absorbs allocator
/// and platform noise while still catching any per-population blow-up,
/// which costs hundreds of MB at this scale.
const SMALL_PEAK_RSS_BUDGET: u64 = 1536 * 1024 * 1024;

fn run_sweep_and_assert_budget() {
    let mut summary = scalebench::standard();

    // One-off rows (`CELLSCOPE_SCALE_EXTRA=large,paper`): measure the
    // expensive presets on demand — minutes each, so not part of the
    // tier-1 sweep; the merge-on-write below keeps them in the JSON
    // across refreshes of the cheap rows.
    if let Ok(extra) = std::env::var("CELLSCOPE_SCALE_EXTRA") {
        for name in extra.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            summary.points.push(scalebench::preset_point(name));
        }
    }
    for p in &summary.points {
        println!(
            "scale {:>12}: {:>7} subs x {:>3} days  {:>7.2}s  peak RSS {}",
            p.scale,
            p.subscribers,
            p.days,
            p.wall_seconds,
            p.peak_rss_bytes
                .map(|b| format!("{:.0} MB", b as f64 / 1e6))
                .unwrap_or_else(|| "--".into()),
        );
    }

    // Streamed-vs-mapped replay at the tiny scale: tier-1's check that
    // the mmap read path exists and is invisible in the output. The
    // headline speedup is measured at `small` by `--bench-summary`
    // (see `results/BENCH_feedfmt.json`).
    let replay = feedbench::replay_compare(&ScenarioConfig::tiny(42), "tiny", 2)
        .expect("streamed-vs-mapped replay at tiny");
    println!(
        "replay    tiny : {:.2}s streamed -> {:.2}s mapped ({:.2}x)",
        replay.streamed_seconds, replay.mapped_seconds, replay.mapped_speedup,
    );
    assert!(
        replay.bit_identical,
        "mapped replay diverged from the streamed replay"
    );
    summary.replay = Some(replay);

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_scale.json");
    if let Err(e) = scalebench::write_json(&out, &summary) {
        // The baseline is evidence, not a gate: a read-only checkout
        // must not fail the bench.
        eprintln!("note: could not write {}: {e}", out.display());
    } else {
        println!("summary written to {}", out.display());
    }

    for p in summary.points.iter().filter(|p| p.scale.starts_with("small")) {
        if let Some(rss) = p.peak_rss_bytes {
            assert!(
                rss <= SMALL_PEAK_RSS_BUDGET,
                "sharded small-preset ({}) peak RSS regressed: {:.0} MB > {:.0} MB budget",
                p.scale,
                rss as f64 / 1e6,
                SMALL_PEAK_RSS_BUDGET as f64 / 1e6,
            );
        }
    }
}

fn bench_scale(c: &mut Criterion) {
    run_sweep_and_assert_budget();

    // Criterion timing at the tiny scale only — the sweep above
    // already timed the larger presets once each.
    let config = ScenarioConfig::tiny(42);
    let plan = ShardPlan::default();
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("tiny_sharded_study", |bench| {
        bench.iter(|| scalebench::measure("tiny", &config, &plan))
    });
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
