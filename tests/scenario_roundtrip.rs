//! The scenario DSL's trust-boundary properties: arbitrary valid
//! scenario documents round-trip parse → serialize → parse exactly,
//! and malformed, unknown-field, or out-of-range documents come back as
//! typed [`ScenarioError`]s — never panics — no matter what bytes are
//! thrown at the parser.

use strex::scenario::{Assertion, CellSelector, Matrix, Metric, Scenario, ScenarioError};

/// Largest index `<= i` that falls on a char boundary of `s`.
fn char_floor(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// A syntactically valid baseline document the mutation tests start from.
const VALID: &str = r#"{
    "name": "baseline",
    "description": "a valid scenario",
    "matrix": {
        "workloads": ["TPC-C-1", "TPC-E"],
        "pool": 30,
        "seed": 20130624,
        "small": true,
        "schedulers": ["baseline", "strex"],
        "cores": [2, 4],
        "team_sizes": [5, 10]
    },
    "assertions": [
        {"kind": "metric_within",
         "cell": {"workload": "TPC-C-1", "scheduler": "strex", "cores": 4, "team_size": 10},
         "metric": "i_mpki", "min": 30.0, "max": 50.0},
        {"kind": "reduction_at_least", "metric": "i_mpki",
         "from": {"workload": "TPC-C-1", "scheduler": "baseline", "cores": 4, "team_size": 10},
         "to": {"workload": "TPC-C-1", "scheduler": "strex", "cores": 4, "team_size": 10},
         "min_percent": 25.0}
    ]
}"#;

#[test]
fn the_baseline_document_is_valid_and_round_trips() {
    let s = Scenario::from_json(VALID).expect("baseline document parses");
    let again = Scenario::from_json(&s.to_json()).expect("serialized form parses");
    assert_eq!(s, again);
    assert_eq!(s.to_json(), again.to_json());
}

#[test]
fn malformed_documents_are_typed_errors_not_panics() {
    for doc in [
        "",
        "   ",
        "{",
        "}",
        "[]",
        "null",
        "123",
        "\"scenario\"",
        "{\"name\":}",
        "{\"name\": \"x\" \"matrix\": {}}",
        "{\"name\": \"x\", \"name\": ",
        &"[".repeat(4096),
        "\u{0}\u{1}\u{2}",
        "{\"name\": \"\\ud800\"}",
    ] {
        let err = Scenario::from_json(doc).expect_err("malformed input must not parse");
        // Every rejection renders; none panics.
        let _ = err.to_string();
    }
}

#[test]
fn core_counts_past_the_sharer_mask_are_typed_errors_at_every_layer() {
    use strex::config::SimConfig;
    use strex::ConfigError;

    // The coherence directory tracks one sharer bit per core in a u64, so
    // 64 cores is the limit everywhere: a scenario or a configuration
    // asking for 65 is refused with a typed error, never accepted and
    // left to panic inside the simulator.
    let matrix = VALID.replace(r#""cores": [2, 4]"#, r#""cores": [2, 65]"#);
    match Scenario::from_json(&matrix) {
        Err(ScenarioError::OutOfRange { path, .. }) => assert_eq!(path, "matrix.cores[1]"),
        other => panic!("65 matrix cores must be out of range, got {other:?}"),
    }
    let selector = VALID.replacen(r#""cores": 4"#, r#""cores": 65"#, 1);
    match Scenario::from_json(&selector) {
        Err(ScenarioError::OutOfRange { path, .. }) => {
            assert_eq!(path, "assertions[0].cell.cores")
        }
        other => panic!("a 65-core cell selector must be out of range, got {other:?}"),
    }
    assert!(
        Scenario::from_json(&VALID.replace(r#""cores": [2, 4]"#, r#""cores": [2, 64]"#)).is_ok()
    );

    assert_eq!(
        SimConfig::builder().cores(65).build(),
        Err(ConfigError::TooManyCores { requested: 65 })
    );
    assert!(SimConfig::builder().cores(64).build().is_ok());
}

#[test]
fn truncations_of_a_valid_document_never_panic() {
    // Every prefix of a valid document is either an error (almost all)
    // or—never—a panic. Byte-indexed truncation lands mid-UTF-8 for the
    // description's multi-byte chars too, which from_json must survive.
    for len in 0..VALID.len() {
        if let Ok(s) = Scenario::from_json(&VALID[..char_floor(VALID, len)]) {
            panic!("truncated prefix unexpectedly parsed: {}", s.name);
        }
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Non-empty strings over printable ASCII plus escape-relevant and
    /// multi-byte characters — names and scheduler keys the format must
    /// carry through serialization unharmed.
    fn arb_name() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                Just('"'),
                Just('\\'),
                Just('\n'),
                Just('é'),
                Just('漢'),
                (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("printable ASCII")),
            ],
            1..10,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    fn arb_workload() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("TPC-C-1".to_string()),
            Just("TPC-C-10".to_string()),
            Just("TPC-E".to_string()),
            Just("MapReduce".to_string()),
        ]
    }

    fn arb_metric() -> impl Strategy<Value = Metric> {
        (0usize..Metric::ALL.len()).prop_map(|i| Metric::ALL[i])
    }

    /// Finite non-negative bound values with fractional parts, exercising
    /// the writer's shortest-round-trip float formatting.
    fn arb_bound() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            (0u32..1_000_000).prop_map(|n| n as f64 / 997.0),
            (0u32..1000).prop_map(|n| n as f64),
        ]
    }

    fn arb_selector() -> impl Strategy<Value = CellSelector> {
        (
            arb_workload(),
            arb_name(),
            1usize..=64,
            prop_oneof![Just(None), (1usize..=30).prop_map(Some)],
        )
            .prop_map(|(workload, scheduler, cores, team_size)| CellSelector {
                workload,
                scheduler,
                cores,
                team_size,
            })
    }

    fn arb_assertion() -> impl Strategy<Value = Assertion> {
        prop_oneof![
            (arb_selector(), arb_bound())
                .prop_map(|(cell, min)| Assertion::ThroughputAtLeast { cell, min }),
            (arb_selector(), arb_metric(), arb_bound(), arb_bound()).prop_map(
                |(cell, metric, a, b)| Assertion::MetricWithin {
                    cell,
                    metric,
                    min: a.min(b),
                    max: a.max(b),
                }
            ),
            (arb_metric(), arb_selector(), arb_selector(), 0u32..=1000).prop_map(
                |(metric, from, to, pct)| Assertion::ReductionAtLeast {
                    metric,
                    from,
                    to,
                    min_percent: pct as f64 / 10.0,
                }
            ),
            (arb_metric(), arb_selector(), arb_selector(), arb_bound()).prop_map(
                |(metric, numerator, denominator, min)| Assertion::RatioAtLeast {
                    metric,
                    numerator,
                    denominator,
                    min,
                }
            ),
        ]
    }

    fn arb_matrix() -> impl Strategy<Value = Matrix> {
        (
            (
                prop::collection::vec(arb_workload(), 1..4),
                1usize..=100_000,
                // Seeds stay below 2^53 so the JSON number representation
                // is exact — the same bound `as_u64` enforces on parse.
                0u64..(1u64 << 53),
                any::<bool>(),
            ),
            (
                prop::collection::vec(arb_name(), 1..4),
                prop::collection::vec(1usize..=64, 1..4),
                prop_oneof![
                    Just(None),
                    prop::collection::vec(1usize..=30, 1..3).prop_map(Some)
                ],
            ),
        )
            .prop_map(
                |((workloads, pool, seed, small), (schedulers, cores, team_sizes))| Matrix {
                    workloads,
                    pool,
                    seed,
                    small,
                    schedulers,
                    cores,
                    team_sizes,
                },
            )
    }

    fn arb_scenario() -> impl Strategy<Value = Scenario> {
        (
            arb_name(),
            prop_oneof![Just(None), arb_name().prop_map(Some)],
            arb_matrix(),
            prop::collection::vec(arb_assertion(), 1..5),
        )
            .prop_map(|(name, description, matrix, assertions)| Scenario {
                name,
                description,
                matrix,
                assertions,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn scenarios_round_trip_exactly(s in arb_scenario()) {
            let json = s.to_json();
            let parsed = match Scenario::from_json(&json) {
                Ok(parsed) => parsed,
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "serialized scenario failed to parse: {e}\n{json}"
                    )))
                }
            };
            prop_assert_eq!(&s, &parsed);
            // Deterministic writer: a second trip is byte-identical.
            prop_assert_eq!(json, parsed.to_json());
        }

        #[test]
        fn unknown_fields_are_rejected_wherever_injected(s in arb_scenario()) {
            // Injecting a key the schema does not define at the document
            // root must produce the typed unknown-field error (the key
            // cannot collide: the schema has no "zz_unknown").
            let json = s.to_json();
            let mutated = json.replacen('{', "{\"zz_unknown\":1,", 1);
            match Scenario::from_json(&mutated) {
                Err(ScenarioError::UnknownField { path }) => {
                    prop_assert_eq!(path, "zz_unknown".to_string());
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "expected UnknownField, got {other:?}"
                    )))
                }
            }
        }

        #[test]
        fn out_of_range_values_are_rejected_on_reparse(
            s in arb_scenario(),
            which in 0usize..4,
        ) {
            // Serialize a scenario whose struct fields violate a bound and
            // confirm the parser refuses the document with the typed
            // error (the struct itself is unchecked by design — the trust
            // boundary is the parse).
            let mut bad = s;
            match which {
                0 => bad.matrix.pool = 0,
                1 => bad.matrix.cores.push(0),
                2 => bad.matrix.cores.push(100_000),
                _ => bad.matrix.team_sizes = Some(vec![31]),
            }
            match Scenario::from_json(&bad.to_json()) {
                Err(ScenarioError::OutOfRange { .. }) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "expected OutOfRange, got {other:?}"
                    )))
                }
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_parser(
            bytes in prop::collection::vec(0u8..=255, 0..64),
        ) {
            // Hostile input: whatever the bytes decode to (or fail to),
            // from_json returns, it never panics.
            let text = String::from_utf8_lossy(&bytes);
            let _ = Scenario::from_json(&text);
        }

        #[test]
        fn truncated_serializations_never_panic(s in arb_scenario(), frac in 0u32..100) {
            let json = s.to_json();
            let cut = (json.len() as u64 * frac as u64 / 100) as usize;
            let cut = super::char_floor(&json, cut);
            prop_assert!(
                Scenario::from_json(&json[..cut]).is_err(),
                "a strict prefix cannot be a complete document"
            );
        }
    }
}
