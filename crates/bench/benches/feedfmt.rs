//! Feed-format benchmark with correctness and allocation assertions.
//!
//! Run with `cargo bench -p cellscope-bench --bench feedfmt`
//! (tier-1 runs it as `-- --test`).
//!
//! Before any timing, asserts the three properties the binary format
//! ships on:
//!
//! 1. decoding the binary segment yields bit-identical events to
//!    parsing the JSONL feed it mirrors — whether the segment bytes
//!    come from memory or from mmap'ed pages (`SegmentView`);
//! 2. a decode into warm buffers performs **zero** heap allocations on
//!    both the in-memory and the mapped path — the dirty-arena steady
//!    state the replay workers live in;
//! 3. the decode is at least [`MIN_DECODE_SPEEDUP`]× faster than the
//!    JSONL parse (the PR's ≥ 3× floor, with headroom for CI noise
//!    behind it: measured figures are far higher — see
//!    `results/BENCH_feedfmt.json`).

use cellscope_bench::alloc_count::{self, CountingAllocator};
use cellscope_bench::feedbench;
use cellscope_scenario::{ScenarioConfig, World};
use cellscope_signaling::columnar::{self, DecodeScratch};
use cellscope_signaling::{write_events_jsonl, EventReader, SignalingEvent};
use criterion::{criterion_group, criterion_main, Criterion};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Floor on `jsonl_parse_seconds / binary_decode_seconds`: the binary
/// format has to stay clearly cheaper to read than the typed JSONL
/// codec. Measured at `tiny` on a 2-core x86-64 host: parse 24.2 ms vs
/// decode 1.1 ms, 22.5×, with the payload CRC folded by carry-less
/// multiplication (0.13 ms of the decode); with the slicing-by-8 CRC
/// alone the decode took 2.7 ms (8.2×).
const MIN_DECODE_SPEEDUP: f64 = 3.0;

fn assert_feedfmt_properties() {
    assert!(
        alloc_count::installed(),
        "counting allocator not routing this process's allocations"
    );
    let config = ScenarioConfig::tiny(42);
    let summary = feedbench::run(&config, "tiny", 3);
    println!(
        "feedfmt: {} events, {:.2} MB jsonl vs {:.2} MB binary ({:.1}x), \
         parse {:.1} ms vs decode {:.1} ms ({:.1}x), steady allocs {:?}",
        summary.records,
        summary.jsonl_bytes as f64 / 1e6,
        summary.binary_bytes as f64 / 1e6,
        summary.compression_ratio,
        summary.jsonl_parse_seconds * 1e3,
        summary.binary_decode_seconds * 1e3,
        summary.decode_speedup,
        summary.decode_steady_allocs,
    );
    assert!(
        summary.bit_identical,
        "binary decode diverged from the JSONL parse"
    );
    assert!(
        summary.mapped_bit_identical,
        "mapped decode diverged from the generated stream"
    );
    assert_eq!(
        summary.decode_steady_allocs,
        Some(0),
        "binary decode into warm buffers must not touch the allocator"
    );
    assert_eq!(
        summary.mapped_steady_allocs,
        Some(0),
        "mapped (mmap) decode into warm buffers must not touch the allocator"
    );
    assert!(
        summary.decode_speedup >= MIN_DECODE_SPEEDUP,
        "decode speedup regressed: {:.2}x < {MIN_DECODE_SPEEDUP}x",
        summary.decode_speedup
    );
}

fn bench_feed_read_paths(c: &mut Criterion) {
    assert_feedfmt_properties();

    let config = ScenarioConfig::tiny(42);
    let world = World::build(&config);
    let events = feedbench::day0_events(&config, &world);
    let mut jsonl = Vec::new();
    write_events_jsonl(&mut jsonl, &events).expect("events serialize");
    let binary = columnar::encode_events(0, &events);

    let mut out: Vec<SignalingEvent> = Vec::new();
    let mut scratch = DecodeScratch::default();

    let mut group = c.benchmark_group("feedfmt");
    group.sample_size(10);
    group.bench_function("jsonl_parse_day", |bench| {
        bench.iter(|| {
            out.clear();
            for item in EventReader::new(jsonl.as_slice()) {
                out.push(item.expect("clean feed parses"));
            }
            out.len()
        })
    });
    group.bench_function("binary_decode_day", |bench| {
        bench.iter(|| {
            columnar::decode_events_into(&binary, &mut scratch, &mut out)
                .expect("clean segment decodes");
            out.len()
        })
    });

    // The payload checksum alone: every read path verifies it before
    // decoding a column.
    let payload = &binary[columnar::HEADER_LEN..];
    group.bench_function("crc32_day", |bench| bench.iter(|| columnar::crc32(payload)));

    // The same decode straight out of mmap'ed pages.
    let tmp = std::env::temp_dir()
        .join(format!("cellscope_feedfmt_bench_{}.csb", std::process::id()));
    std::fs::write(&tmp, &binary).expect("write segment file");
    let view = columnar::SegmentView::open(&tmp).expect("map segment file");
    group.bench_function("mapped_decode_day", |bench| {
        bench.iter(|| {
            columnar::decode_events_into(view.bytes(), &mut scratch, &mut out)
                .expect("mapped segment decodes");
            out.len()
        })
    });
    group.finish();
    drop(view);
    std::fs::remove_file(&tmp).ok();
}

criterion_group!(benches, bench_feed_read_paths);
criterion_main!(benches);
