//! Regenerate every table and figure of the paper and print a
//! paper-vs-measured summary. This is the source of EXPERIMENTS.md.
//!
//! Usage:
//! `repro [--scale tiny|small|full|large|paper] [--sharded] [--seed N]
//!        [--json DIR] [--csv DIR]
//!        [--scenario NAME|PATH] [--list-scenarios] [--matrix]
//!        [--scenario-dir DIR] [--out DIR]
//!        [--config FILE] [--dump-config FILE] [--roundtrip DIR]
//!        [--convert SRC DST] [--bench-summary PATH] [--metrics PATH]`
//!
//! `--scenario NAME|PATH` overlays a declarative scenario file (see
//! `scenarios/`) on the base configuration: a bare NAME resolves to
//! `<scenario-dir>/NAME.toml`, anything with a path separator or a
//! `.toml` suffix is taken as a path. Invalid files are rejected with
//! a typed validation error and exit code 2. `--list-scenarios` prints
//! the library (name + description) and exits. `--matrix` runs every
//! scenario of the library through the full generate → replay →
//! aggregate → figures pipeline, writing one figure set plus a
//! `summary.json` per scenario under `--out` (default
//! `results/matrix`); the matrix defaults to `--scale tiny` unless a
//! scale is given explicitly.
//!
//! `--scale large` (500k subscribers, truncated window) and `--scale
//! paper` (1M subscribers, the paper's full Feb 1 – Apr 17 window) run
//! through the sharded, memory-bounded runner
//! ([`cellscope_scenario::run_study_sharded`]) so peak memory is set
//! by the shard size, not the population. `--sharded` forces the
//! sharded runner at any scale (the output is bit-identical to the
//! in-memory runner by construction). An unknown `--scale` name is a
//! typed error listing the valid presets, exit code 2.
//!
//! `--dump-config` writes the resolved scenario configuration as JSON;
//! `--config` loads one back (every knob of the study is a plain
//! serializable field, so experiments are fully file-reproducible).
//!
//! `--metrics PATH` writes the run's per-stage execution metrics (the
//! [`cellscope_exec::RunMetrics`] tree: wall time, task count, items
//! and counters per stage) as JSON, conventionally
//! `results/METRICS_run.json`. Works with both the figure pipeline and
//! `--roundtrip`.
//!
//! `--roundtrip DIR` exercises the feed-replay engine instead of the
//! figure pipeline: run the study in memory, export its feeds to DIR,
//! stream them back through [`cellscope_scenario::replay`], print the
//! replay report, and verify the replayed dataset is bit-identical.
//! Exits non-zero on any divergence.
//!
//! `--convert SRC DST` converts a feed directory between JSONL and the
//! binary columnar format (direction auto-detected from SRC; see
//! [`cellscope_scenario::feedfmt`]). The conversion is lossless —
//! converting back reproduces the original files byte for byte — and
//! `replay`/`--roundtrip` accept either format transparently.
//!
//! `--bench-summary PATH` skips the study entirely and runs the
//! benchmark baselines instead: the columnar-aggregation
//! microbenchmark, written to PATH as JSON (conventionally
//! `BENCH_aggregation.json`), the subscriber-day hot-path measurement
//! (phase block wall seconds + steady-state allocation counts),
//! written to `BENCH_hotpath.json` next to it, and the feed-format
//! read-path comparison (JSONL parse vs binary decode), written to
//! `BENCH_feedfmt.json`.

use cellscope_bench::alloc_count::CountingAllocator;
use cellscope_bench::{fmt_pct, fmt_weekly, print_panel};
use cellscope_exec::{file_rss_bytes, peak_rss_bytes, Executor, RunMetrics};
use cellscope_scenario::replay::{
    dataset_divergence, export_feeds, replay_study_with, ReplayConfig, ReplayOptions,
};
use cellscope_scenario::{
    figures, run_matrix, run_study_sharded, run_study_with, scenario_files,
    ScenarioConfig, ScenarioDoc, ShardPlan, World,
};
use std::path::Path;
use std::time::Instant;

// Counting allocator so `--bench-summary` reports real steady-state
// allocation figures; a pass-through to the system allocator otherwise.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let mut scale = "small".to_string();
    let mut seed = 42u64;
    let mut json_dir: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut config_file: Option<String> = None;
    let mut dump_config: Option<String> = None;
    let mut roundtrip: Option<String> = None;
    let mut convert: Option<(String, String)> = None;
    let mut bench_summary: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut force_sharded = false;
    let mut scenario: Option<String> = None;
    let mut scenario_dir = "scenarios".to_string();
    let mut list_scenarios = false;
    let mut matrix = false;
    let mut out_dir: Option<String> = None;
    let mut scale_explicit = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sharded" => force_sharded = true,
            "--scenario" => {
                scenario = Some(args.next().expect("--scenario needs NAME or PATH"))
            }
            "--scenario-dir" => {
                scenario_dir = args.next().expect("--scenario-dir needs a dir")
            }
            "--list-scenarios" => list_scenarios = true,
            "--matrix" => matrix = true,
            "--out" => out_dir = Some(args.next().expect("--out needs a dir")),
            "--bench-summary" => {
                bench_summary = Some(args.next().expect("--bench-summary needs a path"))
            }
            "--convert" => {
                let src = args.next().expect("--convert needs SRC and DST dirs");
                let dst = args.next().expect("--convert needs SRC and DST dirs");
                convert = Some((src, dst));
            }
            "--metrics" => {
                metrics_path = Some(args.next().expect("--metrics needs a path"))
            }
            "--scale" => {
                scale = args.next().expect("--scale needs a value");
                scale_explicit = true;
            }
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("numeric seed")
            }
            "--json" => json_dir = Some(args.next().expect("--json needs a dir")),
            "--csv" => csv_dir = Some(args.next().expect("--csv needs a dir")),
            "--config" => config_file = Some(args.next().expect("--config needs a file")),
            "--dump-config" => {
                dump_config = Some(args.next().expect("--dump-config needs a file"))
            }
            "--roundtrip" => {
                roundtrip = Some(args.next().expect("--roundtrip needs a dir"))
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some((src, dst)) = convert {
        run_convert(Path::new(&src), Path::new(&dst));
        return;
    }
    if let Some(path) = bench_summary {
        run_bench_summary(Path::new(&path));
        return;
    }
    if list_scenarios {
        run_list_scenarios(Path::new(&scenario_dir));
        return;
    }
    let from_file = config_file.is_some();
    // The matrix is a many-runs sweep; keep it cheap unless a scale was
    // asked for explicitly.
    if matrix && !scale_explicit && !from_file {
        scale = "tiny".to_string();
    }
    let config: ScenarioConfig = match config_file {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {path}: {e}"));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
        }
        None => ScenarioConfig::preset(&scale, seed).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
    };
    // The big presets always run memory-bounded; `--sharded` opts any
    // other scale in (the result is bit-identical either way).
    let sharded =
        force_sharded || (!from_file && (scale == "large" || scale == "paper"));
    if matrix {
        run_matrix_cli(&config, Path::new(&scenario_dir), out_dir.as_deref(), sharded);
        return;
    }
    let scenario_doc = scenario.map(|spec| load_scenario(&spec, Path::new(&scenario_dir)));
    let config = match &scenario_doc {
        Some(doc) => doc.apply(&config),
        None => config,
    };
    if let Some(path) = dump_config {
        std::fs::write(&path, serde_json::to_string_pretty(&config).unwrap())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("scenario configuration written to {path}");
    }

    let mut label = if from_file {
        "config-file".to_string()
    } else {
        format!("{scale}, seed={seed}")
    };
    if let Some(doc) = &scenario_doc {
        label = format!("{label}, scenario={}", doc.name);
    }
    if let Some(dir) = roundtrip {
        run_roundtrip(&config, &label, Path::new(&dir), metrics_path.as_deref());
        return;
    }
    println!(
        "== cellscope repro: {label}, subscribers={} ==",
        config.population.num_subscribers
    );
    let mut exec = Executor::new(config.threads);
    let t0 = Instant::now();
    let world = exec.time_stage("build_world", || World::build(&config));
    let ds = if sharded {
        // Memory-bounded path: shard by (day, subscriber-range,
        // cell-range), spill the per-(subscriber, day) mask matrix for
        // the big presets.
        let plan = if config.population.num_subscribers >= 1_000_000 {
            ShardPlan::paper()
        } else if config.population.num_subscribers >= 100_000 {
            ShardPlan::large()
        } else {
            ShardPlan::default()
        };
        println!(
            "sharded runner: {} subscribers/shard, {} day(s)/shard, \
             {} cells/shard, spill_masks={}",
            plan.subs_per_shard,
            plan.days_per_shard,
            plan.cells_per_shard,
            plan.spill_masks
        );
        run_study_sharded(&config, &world, &mut exec, &plan).unwrap_or_else(|e| {
            eprintln!("study failed: {e}");
            std::process::exit(1);
        })
    } else {
        run_study_with(&config, &world, &mut exec).unwrap_or_else(|e| {
            eprintln!("study failed: {e}");
            std::process::exit(1);
        })
    };
    let study_metrics = exec.take_metrics("study");
    println!(
        "study simulated in {:.1}s: {} study users, {} homes detected, {} KPI records",
        t0.elapsed().as_secs_f64(),
        ds.study_population,
        ds.homes_detected,
        ds.kpi.len()
    );
    let t1 = Instant::now();
    let figs = figures::build_all_with(&ds, &mut exec).unwrap_or_else(|e| {
        eprintln!("figure build failed: {e}");
        std::process::exit(1);
    });
    println!("figures built in {:.2}s", t1.elapsed().as_secs_f64());
    print_rss_line();
    if let Some(path) = &metrics_path {
        let tree = RunMetrics::new("repro")
            .with_child(study_metrics)
            .with_child(exec.take_metrics("figures"))
            .with_peak_rss()
            .with_file_rss();
        write_metrics(path, &tree);
    }

    // ---- Table 1 ----
    println!("-- Table 1: geodemographic clusters --");
    for row in &figs.table1 {
        println!("  {:<28} cells={:<5} {}", row.name, row.cells, row.definition);
    }

    // ---- Fig 2 ----
    let f2 = &figs.fig2;
    println!("\n-- Fig 2: home detection vs census --");
    if let Some(fit) = f2.fit {
        println!(
            "  {} LADs, r^2 = {:.3} (paper: 0.955), slope = {:.6}",
            f2.points.len(),
            fit.r2,
            fit.slope
        );
    }

    // ---- Fig 3 ----
    let f3 = &figs.fig3;
    println!("\n-- Fig 3: national mobility (weekly mean of daily deltas) --");
    for (w, g, e) in &f3.weekly {
        println!("  w{w:02}: gyration {:>8}  entropy {:>8}", fmt_pct(*g), fmt_pct(*e));
    }

    // ---- Fig 4 ----
    let f4 = &figs.fig4;
    println!("\n-- Fig 4: entropy vs cumulative cases --");
    println!(
        "  {} points; pre-declaration Pearson r = {} (paper: no correlation); cases at declaration = {:.0}",
        f4.points.len(),
        f4.pre_lockdown_pearson
            .map(|r| format!("{r:+.3}"))
            .unwrap_or_else(|| "--".into()),
        f4.cases_at_declaration
    );

    // ---- Fig 5 ----
    println!("\n-- Fig 5: regional mobility (weekly, vs national wk9) --");
    for gm in &figs.fig5 {
        let gy: Vec<(u8, Option<f64>)> =
            gm.weekly.iter().map(|(w, g, _)| (*w, *g)).collect();
        let en: Vec<(u8, Option<f64>)> =
            gm.weekly.iter().map(|(w, _, e)| (*w, *e)).collect();
        println!("  {:<20} gyr {}", gm.group, fmt_weekly(&gy));
        println!("  {:<20} ent {}", "", fmt_weekly(&en));
    }

    // ---- Fig 6 ----
    println!("\n-- Fig 6: geodemographic mobility (weekly, vs national wk9) --");
    for gm in &figs.fig6 {
        let gy: Vec<(u8, Option<f64>)> =
            gm.weekly.iter().map(|(w, g, _)| (*w, *g)).collect();
        println!("  {:<28} gyr {}", gm.group, fmt_weekly(&gy));
        let en: Vec<(u8, Option<f64>)> =
            gm.weekly.iter().map(|(w, _, e)| (*w, *e)).collect();
        println!("  {:<28} ent {}", "", fmt_weekly(&en));
    }

    // ---- Fig 7 ----
    let f7 = &figs.fig7;
    println!("\n-- Fig 7: Inner-London mobility matrix (weekly mean of daily deltas) --");
    for (county, row) in &f7.rows {
        // Compact: weekly means.
        let weekly: Vec<(u8, Option<f64>)> = (9..=19)
            .map(|w| {
                let days: Vec<f64> = ds
                    .clock
                    .days_in_week(cellscope_time::IsoWeek { year: 2020, week: w })
                    .filter_map(|d| row[d as usize])
                    .collect();
                (w, cellscope_core::stats::mean(&days))
            })
            .collect();
        println!("  {:<20} {}", county, fmt_weekly(&weekly));
    }

    // ---- Fig 8 ----
    println!("\n-- Fig 8: network KPIs (weekly medians vs national wk9 median) --");
    for panel in &figs.fig8 {
        print_panel(panel);
    }

    // ---- Fig 9 ----
    let f9 = &figs.fig9;
    println!("\n-- Fig 9: 4G voice (QCI 1) --");
    for panel in &f9.panels {
        print_panel(panel);
    }
    println!("  [Voice Volume p90] {}", fmt_weekly(&f9.volume_p90_weekly_pct));

    // ---- Fig 10 ----
    let f10 = &figs.fig10;
    println!("\n-- Fig 10: KPIs per geodemographic cluster --");
    for panel in &f10.panels {
        print_panel(panel);
    }
    println!("  [users ~ DL volume correlation]");
    for (cluster, r) in &f10.user_volume_correlation {
        println!(
            "    {:<28} r = {}",
            cluster,
            r.map(|r| format!("{r:+.3}")).unwrap_or_else(|| "--".into())
        );
    }

    // ---- Fig 11 ----
    println!("\n-- Fig 11: Inner-London postal districts --");
    for panel in &figs.fig11 {
        print_panel(panel);
    }

    // ---- Fig 12 ----
    println!("\n-- Fig 12: London clusters --");
    for panel in &figs.fig12 {
        print_panel(panel);
    }

    // ---- Supplementary: per-bin mobility ----
    let bins = &figs.bin_profile;
    println!("\n-- Supplementary: gyration by 4-hour bin (wk9 -> wk15) --");
    for (bin, base, lock, delta) in &bins.bins {
        println!(
            "  {:<13} {:>7.2} km -> {:>6.2} km   {}",
            bin,
            base,
            lock,
            fmt_pct(*delta)
        );
    }

    // ---- Headline ----
    let h = &figs.headline;
    println!("\n-- Headline: paper vs measured --");
    let rows: Vec<(&str, String, String)> = vec![
        ("national gyration trough", "≈ -50%".into(), fmt_pct(h.gyration_trough_pct)),
        ("national entropy trough (smaller)", "> gyration trough".into(), fmt_pct(h.entropy_trough_pct)),
        ("UK DL volume wk10", "+8%".into(), fmt_pct(h.dl_volume_week10_pct)),
        ("UK DL volume wk17", "-24%".into(), fmt_pct(h.dl_volume_week17_pct)),
        ("UK radio load wk16", "-15.1%".into(), fmt_pct(h.radio_load_week16_pct)),
        ("voice volume peak", "+140%".into(), fmt_pct(h.voice_volume_peak_pct)),
        ("voice DL loss peak", "> +100%".into(), fmt_pct(h.voice_dl_loss_peak_pct)),
        ("Inner London absent from wk13", "≈ 10%".into(), fmt_pct(h.london_absent_pct)),
        ("dwell share on 4G", "75%".into(), format!("{:.1}%", h.rat_4g_share * 100.0)),
        ("home validation r^2", "0.955".into(), h.home_validation_r2.map(|r| format!("{r:.3}")).unwrap_or_else(|| "--".into())),
        ("UK throughput trough", "≥ -10%".into(), fmt_pct(h.throughput_trough_pct)),
        ("UK UL volume range", "-7%..+1.5%".into(), format!("{}..{}", fmt_pct(h.ul_volume_range_pct.0), fmt_pct(h.ul_volume_range_pct.1))),
    ];
    for (name, paper, measured) in rows {
        println!("  {:<36} paper {:<18} measured {}", name, paper, measured);
    }

    // ---- JSON export ----
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json dir");
        let write = |name: &str, v: serde_json::Value| {
            let path = format!("{dir}/{name}.json");
            std::fs::write(&path, serde_json::to_string_pretty(&v).unwrap())
                .expect("write json");
        };
        write("table1", serde_json::to_value(&figs.table1).unwrap());
        write("fig2", serde_json::to_value(f2).unwrap());
        write("fig3", serde_json::to_value(f3).unwrap());
        write("fig4", serde_json::to_value(f4).unwrap());
        write("fig5", serde_json::to_value(&figs.fig5).unwrap());
        write("fig6", serde_json::to_value(&figs.fig6).unwrap());
        write("fig7", serde_json::to_value(f7).unwrap());
        write("fig8", serde_json::to_value(&figs.fig8).unwrap());
        write("fig9", serde_json::to_value(f9).unwrap());
        write("fig10", serde_json::to_value(f10).unwrap());
        write("fig11", serde_json::to_value(&figs.fig11).unwrap());
        write("fig12", serde_json::to_value(&figs.fig12).unwrap());
        write("headline", serde_json::to_value(h).unwrap());
        println!("\nJSON series written to {dir}/");
    }

    // ---- CSV export (plot-ready) ----
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        cellscope_bench::csv::export_all(&dir, &ds).expect("write csv");
        println!("CSV series written to {dir}/");
    }
}

/// Resolve `--scenario NAME|PATH`, load and validate it; typed errors
/// go to stderr with exit code 2.
fn load_scenario(spec: &str, dir: &Path) -> ScenarioDoc {
    let path = if spec.contains(std::path::MAIN_SEPARATOR) || spec.ends_with(".toml") {
        std::path::PathBuf::from(spec)
    } else {
        dir.join(format!("{spec}.toml"))
    };
    let doc = ScenarioDoc::load(&path)
        .and_then(|doc| doc.validate().map(|()| doc))
        .unwrap_or_else(|e| {
            eprintln!("scenario {}: {e}", path.display());
            std::process::exit(2);
        });
    doc
}

/// `--list-scenarios`: print the scenario library, one line per file.
fn run_list_scenarios(dir: &Path) {
    let files = scenario_files(dir).unwrap_or_else(|e| {
        eprintln!("{}: {e}", dir.display());
        std::process::exit(2);
    });
    if files.is_empty() {
        eprintln!("no scenario files (*.toml) in {}", dir.display());
        std::process::exit(2);
    }
    println!("== scenario library: {} ==", dir.display());
    for path in files {
        match ScenarioDoc::load(&path).and_then(|doc| doc.validate().map(|()| doc)) {
            Ok(doc) => println!("  {:<28} {}", doc.name, doc.description),
            Err(e) => println!(
                "  {:<28} INVALID: {e}",
                path.file_stem().and_then(|s| s.to_str()).unwrap_or("?")
            ),
        }
    }
}

/// `--matrix`: run the whole scenario library end to end, one output
/// directory per scenario.
fn run_matrix_cli(base: &ScenarioConfig, dir: &Path, out: Option<&str>, sharded: bool) {
    let out = Path::new(out.unwrap_or("results/matrix"));
    println!(
        "== cellscope scenario matrix: {} -> {}, subscribers={}, {} runner ==",
        dir.display(),
        out.display(),
        base.population.num_subscribers,
        if sharded { "sharded" } else { "in-memory" }
    );
    let t0 = Instant::now();
    let outcomes = run_matrix(base, dir, out, sharded).unwrap_or_else(|e| {
        eprintln!("matrix failed: {e}");
        std::process::exit(1);
    });
    for o in &outcomes {
        println!(
            "  {:<28} {:>3} days, {:>6} users, {:>8} KPI records, \
             study {:>6.1}s, replay {:>5.1}s ({} lines), \
             gyration trough {}, voice peak {}",
            o.name,
            o.num_days,
            o.study_population,
            o.kpi_records,
            o.study_seconds,
            o.replay_seconds,
            o.replay_lines,
            fmt_pct(o.gyration_trough_pct),
            fmt_pct(o.voice_volume_peak_pct),
        );
    }
    println!(
        "{} scenarios, every replay bit-identical, {:.1}s total; figures under {}",
        outcomes.len(),
        t0.elapsed().as_secs_f64(),
        out.display()
    );
}

/// One observability line splitting the resident set: the `VmHWM`
/// high-water mark next to the current file-backed share (`RssFile`) —
/// mapped feed pages are reclaimable cache, anonymous heap is not.
fn print_rss_line() {
    match (peak_rss_bytes(), file_rss_bytes()) {
        (Some(peak), Some(file)) => println!(
            "peak RSS {:.1} MB (file-backed now: {:.1} MB)\n",
            peak as f64 / 1e6,
            file as f64 / 1e6
        ),
        (Some(peak), None) => println!("peak RSS {:.1} MB\n", peak as f64 / 1e6),
        _ => println!(),
    }
}

/// Write a [`RunMetrics`] tree as pretty JSON.
fn write_metrics(path: &str, tree: &RunMetrics) {
    std::fs::write(path, serde_json::to_string_pretty(tree).unwrap())
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("execution metrics written to {path}");
}

/// `--roundtrip`: in-memory run → feed export → streamed replay →
/// bit-for-bit comparison, with the replay report as the evidence.
fn run_roundtrip(
    config: &ScenarioConfig,
    label: &str,
    dir: &Path,
    metrics_path: Option<&str>,
) {
    println!(
        "== cellscope feed round-trip: {label}, subscribers={} ==",
        config.population.num_subscribers
    );

    let mut exec = Executor::new(config.threads);
    let t0 = Instant::now();
    let world = exec.time_stage("build_world", || World::build(config));
    let in_memory = run_study_with(config, &world, &mut exec).unwrap_or_else(|e| {
        eprintln!("study failed: {e}");
        std::process::exit(1);
    });
    let study_metrics = exec.take_metrics("study");
    println!("in-memory study:  {:>8.1}s", t0.elapsed().as_secs_f64());

    let t1 = Instant::now();
    let manifest = export_feeds(config, dir).expect("export feeds");
    println!(
        "feed export:      {:>8.1}s  ({} days, {} cells, {} subscribers -> {})",
        t1.elapsed().as_secs_f64(),
        manifest.num_days,
        manifest.num_cells,
        manifest.num_subscribers,
        dir.display()
    );

    let t2 = Instant::now();
    let rcfg = ReplayConfig::default();
    let (replayed, report) =
        match replay_study_with(config, &world, dir, &rcfg, &mut exec) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("replay failed: {e}");
                std::process::exit(1);
            }
        };
    println!("jsonl replay:     {:>8.1}s", t2.elapsed().as_secs_f64());

    // Binary twin of the same feeds, replayed through both byte
    // sources: the streaming segment reader, then zero-copy out of
    // mmap'ed pages — which must land on the same dataset, faster.
    let bin_name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("feeds");
    let bin_dir = dir.with_file_name(format!("{bin_name}_bin"));
    let t3 = Instant::now();
    cellscope_scenario::feedfmt::convert_feed_dir(dir, &bin_dir)
        .expect("convert feeds to binary");
    println!("binary convert:   {:>8.1}s", t3.elapsed().as_secs_f64());

    let mut replay_binary = |options: ReplayOptions| {
        let cfg = ReplayConfig { options, ..ReplayConfig::default() };
        let t = Instant::now();
        match replay_study_with(config, &world, &bin_dir, &cfg, &mut exec) {
            Ok((dataset, report)) => (dataset, report, t.elapsed().as_secs_f64()),
            Err(e) => {
                eprintln!("binary replay failed: {e}");
                std::process::exit(1);
            }
        }
    };
    let (streamed, streamed_report, streamed_seconds) =
        replay_binary(ReplayOptions::streamed());
    println!("streamed replay:  {streamed_seconds:>8.1}s");
    let (mapped, mapped_report, mapped_seconds) =
        replay_binary(ReplayOptions::mapped());
    println!(
        "mapped replay:    {mapped_seconds:>8.1}s  ({:.2}x vs streamed)\n",
        streamed_seconds / mapped_seconds.max(1e-9)
    );
    std::fs::remove_dir_all(&bin_dir).ok();
    if let Some(path) = metrics_path {
        let tree = RunMetrics::new("roundtrip")
            .with_child(study_metrics)
            .with_child(exec.take_metrics("replay"))
            .with_peak_rss()
            .with_file_rss();
        write_metrics(path, &tree);
    }

    println!("-- jsonl replay report --\n{report}");
    println!("-- streamed binary replay report --\n{streamed_report}");
    println!("-- mapped binary replay report --\n{mapped_report}");
    for (label, r) in [
        ("jsonl", &report),
        ("streamed", &streamed_report),
        ("mapped", &mapped_report),
    ] {
        if !r.lines_balance() || !r.events_balance() {
            eprintln!("ACCOUNTING LEAK: {label} counters above do not balance");
            std::process::exit(1);
        }
    }
    if streamed_report.bytes_streamed == 0 {
        eprintln!("STREAMED PATH UNUSED: no segment bytes were block-streamed");
        std::process::exit(1);
    }
    if mapped_report.bytes_mapped == 0 {
        eprintln!("MAPPED PATH UNUSED: no bytes went through mmap");
        std::process::exit(1);
    }
    for (label, dataset) in [
        ("jsonl", &replayed),
        ("streamed binary", &streamed),
        ("mapped binary", &mapped),
    ] {
        match dataset_divergence(&in_memory, dataset) {
            None => {
                println!("{label} replay is bit-identical to the in-memory run")
            }
            Some(field) => {
                eprintln!("DIVERGENCE: {label} replay differs in `{field}`");
                std::process::exit(1);
            }
        }
    }
}

/// `--convert SRC DST`: convert a feed directory between formats.
fn run_convert(src: &Path, dst: &Path) {
    use cellscope_scenario::feedfmt::convert_feed_dir;
    let t0 = Instant::now();
    match convert_feed_dir(src, dst) {
        Ok(summary) => {
            println!(
                "converted {} feed files {} -> {} in {:.1}s\n\
                 {} -> {} ({:.2} MB -> {:.2} MB, {:.1}x)",
                summary.files,
                summary.from,
                summary.to,
                t0.elapsed().as_secs_f64(),
                src.display(),
                dst.display(),
                summary.src_bytes as f64 / 1e6,
                summary.dst_bytes as f64 / 1e6,
                summary.src_bytes as f64 / summary.dst_bytes.max(1) as f64,
            );
        }
        Err(e) => {
            eprintln!("conversion failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `--bench-summary`: run the columnar-aggregation microbenchmark at
/// the standard 100k-record scale and write the JSON summary.
fn run_bench_summary(path: &Path) {
    use cellscope_bench::aggbench::{run, AggBenchConfig};
    let cfg = AggBenchConfig::standard();
    println!(
        "== cellscope aggregation bench: {} cells x {} days = {} records, best of {} ==",
        cfg.num_cells,
        cfg.num_days,
        cfg.num_cells * cfg.num_days,
        cfg.iters
    );
    let summary = run(cfg);
    println!(
        "index build:      {:>8.2} ms\n\
         daily medians:    {:>8.2} ms naive -> {:>7.2} ms columnar ({:.1}x)\n\
         daily p90:        {:>8.2} ms naive -> {:>7.2} ms columnar ({:.1}x)\n\
         bit-identical:    {}",
        summary.index_build_ms,
        summary.median_naive_ms,
        summary.median_columnar_ms,
        summary.median_speedup,
        summary.percentile_naive_ms,
        summary.percentile_columnar_ms,
        summary.percentile_speedup,
        summary.bit_identical
    );
    cellscope_bench::aggbench::write_json(path, &summary)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("summary written to {}", path.display());
    if !summary.bit_identical {
        eprintln!("DIVERGENCE: columnar aggregation differs from the naive path");
        std::process::exit(1);
    }

    run_hotpath_summary(&path.with_file_name("BENCH_hotpath.json"));
}

/// Second half of `--bench-summary`: measure one phase-A and one
/// phase-B day block (wall seconds + steady-state allocations) at the
/// default small scale and write `BENCH_hotpath.json`.
fn run_hotpath_summary(path: &Path) {
    use cellscope_bench::hotbench;
    let config = ScenarioConfig::small(42);
    println!(
        "\n== cellscope hot-path bench: small, subscribers={}, best of 2 ==",
        config.population.num_subscribers
    );
    let summary = hotbench::run(&config, "small", 2);
    let alloc_figure = |p: &hotbench::PhaseBench| {
        p.allocs_per_item
            .map(|a| format!("{a:.4} allocs/item"))
            .unwrap_or_else(|| "allocs not measured".into())
    };
    println!(
        "phase A block:    {:>8.2} s  ({} days, {} user-days, {})\n\
         phase B block:    {:>8.2} s  ({} days, {} cell-days, {})",
        summary.phase_a.wall_seconds,
        summary.phase_a.days,
        summary.phase_a.items,
        alloc_figure(&summary.phase_a),
        summary.phase_b.wall_seconds,
        summary.phase_b.days,
        summary.phase_b.items,
        alloc_figure(&summary.phase_b),
    );
    hotbench::write_json(path, &summary)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("summary written to {}", path.display());

    run_feedfmt_summary(&path.with_file_name("BENCH_feedfmt.json"));
}

/// Third part of `--bench-summary`: measure the two feed read paths
/// (JSONL parse vs binary columnar decode) on one replay-realistic day
/// of events and write `BENCH_feedfmt.json`.
fn run_feedfmt_summary(path: &Path) {
    use cellscope_bench::feedbench;
    let config = ScenarioConfig::tiny(42);
    println!(
        "\n== cellscope feed-format bench: tiny, subscribers={}, best of 3 ==",
        config.population.num_subscribers
    );
    let mut summary = feedbench::run(&config, "tiny", 3);
    println!(
        "day feed:         {:>8} events  ({:.2} MB jsonl, {:.2} MB binary, {:.1}x smaller)\n\
         jsonl parse:      {:>8.1} ms  ({:.2} Mrec/s)\n\
         binary decode:    {:>8.1} ms  ({:.2} Mrec/s, {:.1}x)\n\
         mapped decode:    {:>8.1} ms  ({:.2} Mrec/s)\n\
         steady-state decode allocations: {} in-memory, {} mapped\n\
         bit-identical:    {}",
        summary.records,
        summary.jsonl_bytes as f64 / 1e6,
        summary.binary_bytes as f64 / 1e6,
        summary.compression_ratio,
        summary.jsonl_parse_seconds * 1e3,
        summary.jsonl_mrec_per_sec,
        summary.binary_decode_seconds * 1e3,
        summary.binary_mrec_per_sec,
        summary.decode_speedup,
        summary.mapped_decode_seconds * 1e3,
        summary.mapped_mrec_per_sec,
        summary
            .decode_steady_allocs
            .map(|a| a.to_string())
            .unwrap_or_else(|| "not measured".into()),
        summary
            .mapped_steady_allocs
            .map(|a| a.to_string())
            .unwrap_or_else(|| "not measured".into()),
        summary.bit_identical && summary.mapped_bit_identical,
    );

    // The end-to-end streamed-vs-mapped replay number at the `small`
    // preset — the scale the zero-copy read path was promised at.
    let replay_config = ScenarioConfig::small(42);
    let replay = feedbench::replay_compare(&replay_config, "small", 2).unwrap_or_else(|e| {
        eprintln!("replay comparison failed: {e}");
        std::process::exit(1);
    });
    println!(
        "replay (small):   {:>8.1} s streamed -> {:.1} s mapped ({:.2}x, {:.1} MB feeds)",
        replay.streamed_seconds,
        replay.mapped_seconds,
        replay.mapped_speedup,
        replay.bytes as f64 / 1e6,
    );
    let replay_ok = replay.bit_identical;
    summary.replay = Some(replay);

    feedbench::write_json(path, &summary)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("summary written to {}", path.display());
    if !summary.bit_identical || !summary.mapped_bit_identical {
        eprintln!("DIVERGENCE: binary decode differs from the JSONL parse");
        std::process::exit(1);
    }
    if !replay_ok {
        eprintln!("DIVERGENCE: mapped replay differs from the streamed replay");
        std::process::exit(1);
    }
}
