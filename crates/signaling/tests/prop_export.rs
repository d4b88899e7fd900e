//! Property tests for the JSONL feed format: writing arbitrary
//! signaling events and reading them back is the identity, including
//! through blank-line interleavings, and the reader's accounting always
//! balances. The line codec writes exactly what `serde_json` writes and
//! reads every line, canonical or not, exactly as `serde_json` does.

use cellscope_radio::CellId;
use cellscope_signaling::event::EventType;
use cellscope_signaling::export::{parse_line, write_line, JsonlRecord, LineScanner};
use cellscope_signaling::{
    read_events_jsonl, write_events_jsonl, EventReader, MalformedPolicy,
    SignalingEvent, TacCode,
};
use proptest::prelude::*;

/// Arbitrary event over the full field ranges (not just values the
/// generator emits): any u64 id, any PLMN, any of the ten event types,
/// success and failure results.
fn arb_event() -> impl Strategy<Value = SignalingEvent> {
    (
        0u64..u64::MAX,
        0u16..1000,
        0u8..100,
        (0u32..100_000_000, 0u32..10_000, 0u16..400, 0u16..1440),
        0usize..EventType::ALL.len(),
        0u8..2,
    )
        .prop_map(|(anon_id, mcc, mnc, (tac, cell, day, minute), ev, success)| {
            SignalingEvent {
                anon_id,
                mcc,
                mnc,
                tac: TacCode(tac),
                cell: CellId(cell),
                day,
                minute,
                event: EventType::ALL[ev],
                success: success == 1,
            }
        })
}

/// The codec's reading of `line` is `serde_json::from_str`'s: the same
/// `Ok`/`Err`, the same event, the same error text.
fn assert_parse_parity(line: &str) {
    let codec = parse_line::<SignalingEvent>(line);
    let generic = serde_json::from_str::<SignalingEvent>(line);
    match (codec, generic) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{line}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{line}"),
        (a, b) => panic!("{line}: codec {a:?}, serde_json {b:?}"),
    }
}

/// Non-canonical spellings of a canonical `line`: the value of `key`
/// replaced by each of `values`, plus whitespace, reordered, escaped,
/// duplicated and trailing variants.
fn perturbations(line: &str, key: &str, values: &[&str]) -> Vec<String> {
    let k = format!("\"{key}\":");
    let at = line.find(&k).expect("key present") + k.len();
    let end = at + line[at..].find([',', '}']).expect("value ends");
    let value = &line[at..end];
    let body = &line[1..line.len() - 1];
    let (first, rest) = body.split_once(',').expect("two fields");
    let escaped = format!("\"\\u{:04x}{}\":", key.as_bytes()[0], &key[1..]);
    let mut out: Vec<String> = values
        .iter()
        .map(|v| format!("{}{v}{}", &line[..at], &line[end..]))
        .collect();
    out.extend([
        line.replace(':', ": "),
        line.replace(',', " ,"),
        format!(" {line}"),
        format!("{line}\t"),
        format!("{{{rest},{first}}}"),
        line.replacen(&k, &escaped, 1),
        format!("{{{body},{k}{value}}}"),
        format!("{{{k}7,{body}}}"),
        format!("{line}x"),
        format!("{line}{{}}"),
        line[..line.len() - 1].to_string(),
        format!("{}00{value}{}", &line[..at], &line[end..]),
    ]);
    out
}

/// Perturbations of the integer fields, the enum and the bool.
fn event_perturbations(line: &str) -> Vec<String> {
    const INTS: [&str; 11] = [
        "-0",
        "-1",
        "0",
        "65536",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "1e2",
        "1.0",
        "null",
        "\"5\"",
    ];
    let mut out = Vec::new();
    for key in ["anon_id", "mcc", "mnc", "tac", "cell", "day", "minute"] {
        out.extend(perturbations(line, key, &INTS));
    }
    out.extend(perturbations(
        line,
        "event",
        &["\"Nope\"", "\"Attac\\u0068\"", "\"attach\"", "\"Detach\"", "1", "null"],
    ));
    out.extend(perturbations(line, "success", &["tru", "1", "null", "false", "true"]));
    out
}

/// Every event type, at the edges of every field's range.
fn edge_events() -> Vec<SignalingEvent> {
    EventType::ALL
        .iter()
        .enumerate()
        .map(|(i, &event)| {
            let max = i % 2 == 0;
            SignalingEvent {
                anon_id: if max { u64::MAX } else { 0 },
                mcc: if max { u16::MAX } else { 0 },
                mnc: if max { u8::MAX } else { 0 },
                tac: TacCode(if max { u32::MAX } else { 0 }),
                cell: CellId(if max { u32::MAX } else { 0 }),
                day: if max { u16::MAX } else { 0 },
                minute: if max { u16::MAX } else { 0 },
                event,
                success: max,
            }
        })
        .collect()
}

/// The codec writes `ev` as `serde_json` does, reads that line back on
/// the fast path, and reads every perturbation of it as `serde_json`
/// does.
fn assert_codec_parity(ev: SignalingEvent) {
    let mut line = Vec::new();
    write_line(&ev, &mut line);
    let expect = serde_json::to_string(&ev).expect("serialize") + "\n";
    assert_eq!(String::from_utf8(line).expect("utf8"), expect);
    let line = expect.trim_end();
    let mut scan = LineScanner::new(line);
    assert_eq!(SignalingEvent::scan_json(&mut scan), Some(ev), "fast path: {line}");
    assert!(scan.at_end());
    for variant in event_perturbations(line) {
        assert_parse_parity(&variant);
    }
}

#[test]
fn codec_matches_serde_json_at_the_edges() {
    for ev in edge_events() {
        assert_codec_parity(ev);
    }
}

proptest! {
    #[test]
    fn codec_matches_serde_json(ev in arb_event()) {
        assert_codec_parity(ev);
    }

    /// Parity holds for any single-byte damage to a canonical line.
    #[test]
    fn codec_matches_serde_json_on_damaged_lines(
        ev in arb_event(),
        at in 0usize..200,
        byte in 0usize..12,
        delete in 0u8..2,
    ) {
        const BYTES: &[u8; 12] = b" -0e.,}{\":n\\";
        let mut line = serde_json::to_string(&ev).expect("serialize").into_bytes();
        let at = at % (line.len() + 1);
        if delete == 1 && at < line.len() {
            line.remove(at);
        } else {
            line.insert(at, BYTES[byte]);
        }
        assert_parse_parity(&String::from_utf8(line).expect("ascii"));
    }

    /// write → read is the identity for any event vector.
    #[test]
    fn jsonl_roundtrip_is_identity(events in prop::collection::vec(arb_event(), 0..50)) {
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &events).expect("write");
        let back = read_events_jsonl(buf.as_slice()).expect("read");
        prop_assert_eq!(back, events);
    }

    /// Blank lines interleaved anywhere are separators, not records:
    /// the events still round-trip and the accounting still balances.
    #[test]
    fn blank_interleavings_are_tolerated(
        events in prop::collection::vec(arb_event(), 1..30),
        blanks in prop::collection::vec(0usize..30, 0..10),
    ) {
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &events).expect("write");
        let mut lines: Vec<String> = String::from_utf8(buf)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect();
        let mut inserted = 0u64;
        for b in blanks {
            let at = b % (lines.len() + 1);
            // Mix pure-empty and whitespace-only separators.
            let filler = if at % 2 == 0 { "" } else { "   \t" };
            lines.insert(at, filler.to_string());
            inserted += 1;
        }
        let text = lines.join("\n") + "\n";

        let mut reader = EventReader::new(text.as_bytes());
        let back: Result<Vec<SignalingEvent>, _> = (&mut reader).collect();
        prop_assert_eq!(back.expect("blank lines are not errors"), events);
        let stats = reader.stats();
        prop_assert_eq!(stats.blank, inserted);
        prop_assert_eq!(stats.parsed, events.len() as u64);
        prop_assert_eq!(stats.malformed, 0);
        prop_assert_eq!(
            stats.parsed + stats.blank + stats.malformed,
            stats.lines_read
        );
    }

    /// Concatenating two serialized feeds parses to the concatenation
    /// of their events — the property day-file streaming relies on.
    #[test]
    fn feeds_concatenate(
        a in prop::collection::vec(arb_event(), 0..20),
        b in prop::collection::vec(arb_event(), 0..20),
    ) {
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &a).expect("write a");
        write_events_jsonl(&mut buf, &b).expect("write b");
        let back = read_events_jsonl(buf.as_slice()).expect("read");
        let mut expect = a;
        expect.extend(b);
        prop_assert_eq!(back, expect);
    }

    /// Under skip-and-count, splicing one garbage line into a valid
    /// feed drops exactly that line.
    #[test]
    fn single_corruption_costs_one_record(
        events in prop::collection::vec(arb_event(), 1..30),
        at in 0usize..30,
        garbage_pick in 0usize..5,
    ) {
        const GARBAGE: [&str; 5] = [
            "#!corrupt",
            "{\"anon_id\":",          // truncated record
            "{}",                      // valid JSON, wrong shape
            "[1,2,3]",                 // valid JSON, not an object
            "{\"anon_id\":1,\"mcc\":\"not a number\"}",
        ];
        let garbage = GARBAGE[garbage_pick].to_string();
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &events).expect("write");
        let mut lines: Vec<String> = String::from_utf8(buf)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect();
        let at = at % (lines.len() + 1);
        lines.insert(at, garbage);
        let text = lines.join("\n") + "\n";

        let mut reader = EventReader::new(text.as_bytes())
            .with_policy(MalformedPolicy::SkipAndCount);
        let back: Vec<SignalingEvent> =
            (&mut reader).map(|r| r.expect("skip policy")).collect();
        prop_assert_eq!(back, events);
        prop_assert_eq!(reader.stats().malformed, 1);
    }
}
