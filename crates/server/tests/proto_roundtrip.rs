//! Property tests pinning the wire protocol's core guarantee:
//! encode→decode is *identity* for every protocol type — including floats
//! (α, scores), unicode attribute names, and strings that need escaping.

use charles_core::DatasetStats;
use charles_server::{
    ErrorEnvelope, Json, RankedSummary, Request, WireDatasetStats, WireQuery, WireQueryResult,
};
use proptest::prelude::*;

/// Attribute-name-ish strings: unicode letters, quotes, newlines/tabs —
/// and (on half the cases) an appended backslash-and-quote suffix, so
/// every escape path in the encoder gets exercised.
fn name_strategy() -> BoxedStrategy<String> {
    ("[a-zA-Z0-9 _,'\"μ≥π💡\n\t-]{0,12}", any::<bool>())
        .prop_map(|(s, esc)| if esc { format!("{s}\\ \"q\" \u{1}") } else { s })
        .boxed()
}

fn opt_names() -> BoxedStrategy<Option<Vec<String>>> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(name_strategy(), 0..4).prop_map(Some),
    ]
    .boxed()
}

fn finite_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        (-1e9f64..1e9).boxed(),
        (0.0f64..=1.0).boxed(),
        Just(0.0).boxed(),
        Just(-0.0).boxed(),
        Just(1.0 / 3.0).boxed(),
        Just(f64::MIN_POSITIVE).boxed(),
    ]
    .boxed()
}

fn query_strategy() -> BoxedStrategy<WireQuery> {
    (
        name_strategy(),
        prop_oneof![Just(None), finite_f64().prop_map(Some)],
        opt_names(),
        opt_names(),
        prop_oneof![Just(None), (0usize..10_000).prop_map(Some)],
    )
        .prop_map(
            |(target, alpha, condition_attrs, transform_attrs, top_k)| WireQuery {
                target,
                alpha,
                condition_attrs,
                transform_attrs,
                top_k,
            },
        )
        .boxed()
}

fn summary_strategy() -> BoxedStrategy<RankedSummary> {
    (
        (
            1usize..100,
            finite_f64(),
            finite_f64(),
            finite_f64(),
            proptest::collection::vec(name_strategy(), 0..4),
        ),
        (
            proptest::collection::vec(name_strategy(), 0..3),
            proptest::collection::vec(name_strategy(), 0..3),
            (0.0f64..=1.0),
        ),
    )
        .prop_map(
            |(
                (rank, score, accuracy, interpretability, cts),
                (condition_attrs, transform_attrs, changed_coverage),
            )| RankedSummary {
                rank,
                score,
                accuracy,
                interpretability,
                cts,
                condition_attrs,
                transform_attrs,
                changed_coverage,
            },
        )
        .boxed()
}

fn result_strategy() -> BoxedStrategy<WireQueryResult> {
    (
        name_strategy(),
        (0.0f64..=1.0),
        (0.0f64..1e7),
        (0usize..100_000, 0usize..100_000, 0usize..100_000),
        proptest::collection::vec(summary_strategy(), 0..4),
    )
        .prop_map(
            |(target, alpha, elapsed_ms, (candidates, evaluated, distinct), summaries)| {
                WireQueryResult {
                    target,
                    alpha,
                    elapsed_ms,
                    candidates,
                    evaluated,
                    distinct,
                    summaries,
                }
            },
        )
        .boxed()
}

fn request_strategy() -> BoxedStrategy<Request> {
    prop_oneof![
        (name_strategy(), query_strategy())
            .prop_map(|(dataset, query)| Request::RunQuery { dataset, query }),
        (
            name_strategy(),
            proptest::collection::vec(query_strategy(), 0..3)
        )
            .prop_map(|(dataset, queries)| Request::RunMulti { dataset, queries }),
        (
            name_strategy(),
            query_strategy(),
            proptest::collection::vec(0.0f64..=1.0, 0..5)
        )
            .prop_map(|(dataset, query, alphas)| Request::SweepAlpha {
                dataset,
                query,
                alphas
            }),
        name_strategy().prop_map(|dataset| Request::ListTargets { dataset }),
        prop_oneof![Just(None), name_strategy().prop_map(Some)]
            .prop_map(|dataset| Request::Stats { dataset }),
        (
            (name_strategy(), name_strategy(), name_strategy()),
            prop_oneof![Just(None), name_strategy().prop_map(Some)]
        )
            .prop_map(
                |((dataset, source_csv, target_csv), key)| Request::LoadCsv {
                    dataset,
                    source_csv,
                    target_csv,
                    key
                }
            ),
    ]
    .boxed()
}

#[test]
fn legacy_stats_with_sealed_key_decode() {
    // Servers that still had a compressed column layout wrote a
    // `"sealed"` flag per dataset. Current decoders ignore the key, so
    // their stats documents keep decoding to the same entry.
    let legacy = Json::parse(
        r#"{"name":"x","resident":true,"opens":1,"hits":2,"evictions":0,"approx_bytes":64,"last_used_tick":3,"sealed":true,"session":null}"#,
    )
    .expect("valid JSON");
    let decoded = WireDatasetStats::from_json(&legacy).expect("decodes");
    let expected = WireDatasetStats {
        dataset: DatasetStats {
            name: "x".into(),
            resident: true,
            opens: 1,
            hits: 2,
            evictions: 0,
            approx_bytes: 64,
            last_used_tick: 3,
        },
        session: None,
    };
    assert_eq!(decoded, expected);
    assert!(!decoded.to_json().encode().contains("sealed"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wire_query_roundtrips(query in query_strategy()) {
        let encoded = query.to_json().encode();
        let reparsed = Json::parse(&encoded).expect("valid JSON");
        let decoded = WireQuery::from_json(&reparsed).expect("decodes");
        prop_assert_eq!(decoded, query, "{}", encoded);
    }

    #[test]
    fn wire_query_result_roundtrips(result in result_strategy()) {
        let encoded = result.to_json().encode();
        let decoded = WireQueryResult::from_json(&Json::parse(&encoded).expect("valid JSON"))
            .expect("decodes");
        // Floats must survive bit-exactly (shortest round-trip encoding).
        prop_assert_eq!(
            decoded.alpha.to_bits(), result.alpha.to_bits(),
            "alpha bits changed through {}", encoded
        );
        for (d, r) in decoded.summaries.iter().zip(result.summaries.iter()) {
            prop_assert_eq!(d.score.to_bits(), r.score.to_bits());
            prop_assert_eq!(d.accuracy.to_bits(), r.accuracy.to_bits());
        }
        prop_assert_eq!(decoded, result, "{}", encoded);
    }

    #[test]
    fn request_envelopes_roundtrip(request in request_strategy()) {
        let encoded = request.to_json().encode();
        let decoded = Request::from_json(&Json::parse(&encoded).expect("valid JSON"))
            .expect("decodes");
        prop_assert_eq!(decoded, request, "{}", encoded);
    }

    #[test]
    fn error_envelopes_roundtrip(code in name_strategy(), message in name_strategy()) {
        let envelope = ErrorEnvelope::new(code, message);
        let decoded = ErrorEnvelope::from_json(
            &Json::parse(&envelope.to_json().encode()).expect("valid JSON"),
        ).expect("decodes");
        prop_assert_eq!(decoded, envelope);
    }

    #[test]
    fn json_text_reparse_is_stable(query in query_strategy()) {
        // encode → parse → encode must be a fixed point (stable wire text).
        let once = query.to_json().encode();
        let twice = Json::parse(&once).expect("valid").encode();
        prop_assert_eq!(once, twice);
    }
}
