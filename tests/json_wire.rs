//! The JSON wire format end to end: writer → parser string fidelity
//! (including `\uXXXX` escapes and surrogate pairs), and the
//! `Report`/`CampaignResult` parse side round-tripping byte-for-byte —
//! the property the multi-process campaign fan-out rests on.

use strex::campaign::Campaign;
use strex::config::{SchedulerKind, SimConfig};
use strex::driver::run;
use strex::json::JsonWriter;
use strex::jsonval::JsonValue;
use strex::report::Report;
use strex_oltp::workload::{Workload, WorkloadKind};

fn write_string(s: &str) -> String {
    let mut w = JsonWriter::new();
    w.string(s);
    w.finish()
}

#[test]
fn writer_escapes_parse_back_exactly() {
    for s in [
        "",
        "plain",
        "with \"quotes\" and \\backslashes\\",
        "control \u{1}\u{8}\u{c}\u{1f} chars",
        "newline\nreturn\rtab\t",
        "unicode é 漢字 😀 \u{10FFFF}",
        "/slashes/ and \u{7f}",
    ] {
        let parsed = JsonValue::parse(&write_string(s)).expect("writer output parses");
        assert_eq!(parsed, JsonValue::String(s.to_string()), "for {s:?}");
    }
}

mod string_round_trip {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary Unicode strings: code points drawn from the whole scalar
    /// range (surrogates skipped, as `char` requires), with extra weight
    /// on ASCII and the escape-relevant controls.
    fn arbitrary_string() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                Just('"'),
                Just('\\'),
                Just('\n'),
                Just('\u{0}'),
                Just('\u{1f}'),
                Just('\u{1F600}'),
                (0u32..0xD800).prop_map(|c| char::from_u32(c).expect("below surrogates")),
                (0xE000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("above surrogates")),
            ],
            0..24,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn any_string_survives_writer_then_parse(s in arbitrary_string()) {
            let json = write_string(&s);
            let parsed = JsonValue::parse(&json)
                .map_err(|e| TestCaseError::fail(format!("{e} for {json:?}")))?;
            prop_assert_eq!(parsed, JsonValue::String(s));
        }

        #[test]
        fn strings_survive_as_object_keys_too(s in arbitrary_string()) {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key(&s);
            w.number_u64(1);
            w.end_object();
            let doc = JsonValue::parse(&w.finish())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let map = doc.as_object().expect("an object was written");
            prop_assert!(map.contains_key(&s));
        }
    }
}

#[test]
fn report_round_trips_byte_for_byte_for_every_scheduler() {
    let w = Workload::preset_small(WorkloadKind::TpccW1, 8, 7);
    for kind in SchedulerKind::ALL {
        let cfg = SimConfig::builder()
            .cores(2)
            .scheduler(kind)
            .build()
            .expect("valid");
        let report = run(&w, &cfg);
        let json = report.to_json();
        let parsed = Report::from_json(&json).expect("own output parses");
        assert_eq!(parsed.to_json(), json, "{kind} report drifted in transit");
        assert_eq!(parsed.scheduler, report.scheduler);
        assert_eq!(parsed.latencies, report.latencies);
        assert_eq!(parsed.stats.cores, report.stats.cores);
        assert_eq!(parsed.stats.shared, report.stats.shared);
    }
}

#[test]
fn campaign_result_round_trips_byte_for_byte() {
    let workloads = [
        Workload::preset_small(WorkloadKind::TpccW1, 8, 7),
        Workload::preset_small(WorkloadKind::MapReduce, 8, 7),
    ];
    let result = Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
        .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
        .over_workloads(workloads.iter())
        .run()
        .expect("valid campaign");
    let json = result.to_json();
    let parsed = strex::campaign::CampaignResult::from_json(&json).expect("parses");
    assert_eq!(parsed.to_json(), json, "campaign drifted in transit");
    assert_eq!(parsed.len(), result.len());
    // workload_idx is reconstructed from the workload-major run structure.
    assert_eq!(parsed.cells()[0].key.workload_idx, 0);
    assert_eq!(parsed.cells()[2].key.workload_idx, 1);
    // The event count is a figure of the cells, so it survives the trip.
    assert_eq!(parsed.perf().total_events, result.perf().total_events);
}

#[test]
fn wire_rejects_corruption_loudly() {
    let w = Workload::preset_small(WorkloadKind::TpccW1, 6, 3);
    let report = run(&w, &SimConfig::new(2, SchedulerKind::Baseline));
    let json = report.to_json();
    // A truncated document, a type confusion, and a missing field.
    assert!(Report::from_json(&json[..json.len() - 2]).is_err());
    assert!(
        Report::from_json(&json.replace("\"makespan\":", "\"makespan\":\"x\" ,\"y\":")).is_err()
    );
    assert!(Report::from_json(&json.replace("\"latencies\"", "\"latencies_gone\"")).is_err());
    assert!(strex::campaign::CampaignResult::from_json("{}").is_err());
    assert!(strex::campaign::CampaignShard::from_json("{}").is_err());
    // A shard whose id does not match its key is corrupt.
    let shard = Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
        .over_workloads([&w])
        .run_shard(strex::campaign::ShardSpec::new(0, 1).expect("valid"))
        .expect("runs");
    let tampered = shard.to_json().replacen("/c2/", "/c4/", 1);
    assert!(strex::campaign::CampaignShard::from_json(&tampered).is_err());
}
