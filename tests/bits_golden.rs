//! Golden output bits of the pinned e5 county query.
//!
//! The engine's output contract is `f64::to_bits`: a faster or smaller
//! implementation must produce the same ranked lists, bit for bit. This
//! test pins that contract to fixed numbers, so a change anywhere in the
//! pipeline (fits, labelings, trees, scoring, ranking) that moves a single
//! bit fails here, on any backend and under any codegen flags.
//!
//! Each query runs twice: as configured by default, and with constant
//! snapping off. Snapping rounds fitted constants to nice values, which
//! absorbs a last-bit change in an OLS coefficient; without it the raw
//! fitted coefficients reach the rendered summaries and scores, so a
//! change in the order of the fit's floating-point additions shows here.
//!
//! Each ranked list is reduced to a 64-bit FNV-1a hash over, per summary,
//! its rendered text and the bits of its score, accuracy and
//! interpretability. FNV-1a is written out by hand because
//! `std::hash::DefaultHasher` is not stable across Rust releases.

use charles::core::{CharlesConfig, Query, QueryResult, Session};
use charles::relation::SnapshotPair;
use charles::synth::county;

/// Rows of the county scenario: large enough that every fit spans several
/// 128-row Gram blocks, small enough for a debug-build test.
const ROWS: usize = 800;

/// α values of the sweep pinned after the run.
const ALPHAS: [f64; 3] = [0.1, 0.5, 0.9];

/// `(seed, snap constants, run hash, sweep hashes in ALPHAS order)`.
const GOLDEN: [(u64, bool, u64, [u64; 3]); 4] = [
    (
        42,
        true,
        0x3aac_7992_5940_9d78,
        [
            0x18b8_4088_2c50_bc2e,
            0x3aac_7992_5940_9d78,
            0x2f1c_1278_d342_7736,
        ],
    ),
    (
        42,
        false,
        0xcd5b_d03d_31fe_9b2c,
        [
            0xeccc_b2f5_2cb9_ba72,
            0xcd5b_d03d_31fe_9b2c,
            0x6eb7_043b_efd5_237c,
        ],
    ),
    (
        1,
        true,
        0x6889_9383_4d58_d8a7,
        [
            0xfa28_7c0f_a84d_93c5,
            0x6889_9383_4d58_d8a7,
            0x91c9_d3df_6898_3c24,
        ],
    ),
    (
        1,
        false,
        0xcdcd_fe98_b2d6_d254,
        [
            0x2e19_24b8_3e16_5391,
            0xcdcd_fe98_b2d6_d254,
            0x31a6_b921_ff4b_f1fb,
        ],
    ),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Hash a ranked list: rendered text plus the raw bits of every score
/// component, summary by summary in rank order. The text is followed by a
/// `0xff` byte, which no UTF-8 string contains, so adjacent fields cannot
/// run together.
fn ranking_hash(result: &QueryResult) -> u64 {
    let mut h = FNV_OFFSET;
    for s in &result.summaries {
        h = fnv1a(h, s.to_string().as_bytes());
        h = fnv1a(h, &[0xff]);
        for bits in [
            s.scores.score.to_bits(),
            s.scores.accuracy.to_bits(),
            s.scores.interpretability.to_bits(),
        ] {
            h = fnv1a(h, &bits.to_le_bytes());
        }
    }
    h
}

#[test]
fn fnv1a_matches_reference_vectors() {
    assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn e5_county_rankings_keep_their_bits() {
    let query = Query::new("base_salary")
        .with_condition_attrs(["department", "grade", "division"])
        .with_transform_attrs(["base_salary", "overtime_pay"]);
    let mut actual = Vec::new();
    for &(seed, snap, _, _) in &GOLDEN {
        let scenario = county(ROWS, seed);
        let pair = SnapshotPair::align(scenario.source, scenario.target).unwrap();
        let mut config = CharlesConfig::default().with_threads(1);
        config.snap_constants = snap;
        let session = Session::open_with_config(pair, config).unwrap();
        let result = session.run(&query).unwrap();
        assert!(
            !result.summaries.is_empty(),
            "seed {seed} snap {snap}: empty ranking"
        );
        let swept = session.sweep_alpha(&result, &ALPHAS).unwrap();
        let sweep: Vec<u64> = swept.iter().map(ranking_hash).collect();
        actual.push((
            seed,
            snap,
            ranking_hash(&result),
            [sweep[0], sweep[1], sweep[2]],
        ));
    }
    assert_eq!(
        actual,
        GOLDEN.to_vec(),
        "ranked-list bits moved; actual values: {actual:#x?}"
    );
}

/// Run hashes of the queries whose shortlists the setup assistant
/// supplies, on `county(ROWS, 42)`: both lists (the default query), and
/// the transformation list only (the query names its condition
/// attributes).
const ASSISTED_GOLDEN: [u64; 2] = [0x2785_6f82_cd9b_ff41, 0x23cc_d6c0_c4c2_90df];

#[test]
fn assistant_shortlist_rankings_keep_their_bits() {
    let scenario = county(ROWS, 42);
    let pair = SnapshotPair::align(scenario.source, scenario.target).unwrap();
    let session =
        Session::open_with_config(pair, CharlesConfig::default().with_threads(1)).unwrap();
    let queries = [
        Query::new("base_salary"),
        Query::new("base_salary").with_condition_attrs(["department", "grade", "division"]),
    ];
    let actual: Vec<u64> = queries
        .iter()
        .map(|query| {
            let result = session.run(query).unwrap();
            assert!(!result.summaries.is_empty(), "{query:?}: empty ranking");
            ranking_hash(&result)
        })
        .collect();
    assert_eq!(
        actual,
        ASSISTED_GOLDEN.to_vec(),
        "ranked-list bits moved; actual values: {actual:#x?}"
    );
}
