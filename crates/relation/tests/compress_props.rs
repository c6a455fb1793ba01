//! Property tests for the compressed column plane ([`charles_relation::compress`]).
//!
//! Two contracts are pinned here, differentially against the raw path:
//!
//! 1. **Lossless round-trip** — for every block encoding (constant, delta/
//!    bitpack, raw floats, RLE and packed codes), `compress` → `decompress`
//!    reproduces the original buffer `f64::to_bits`-exactly, including NaN
//!    payloads, ±∞, signed zero, all-null blocks, and partial tail blocks.
//! 2. **Zone-pruning transparency** — predicate masks evaluated over
//!    sealed columns (where whole blocks may be answered from zone maps
//!    without decoding) equal the full-scan masks on the raw twin
//!    bit-for-bit, for every comparison operator, Between, and InSet.

use charles_relation::{
    CmpOp, Column, DataType, Field, Predicate, Schema, Table, Value, GRAM_BLOCK_ROWS,
};
use proptest::prelude::*;

/// Floats that stress every encoding: integer-valued (delta/bitpack),
/// arbitrary reals (raw bits), specials (NaN, ±∞, signed zero), nulls.
fn float_value() -> BoxedStrategy<Value> {
    prop_oneof![
        4 => (-1_000_000i64..1_000_000).prop_map(|v| Value::Float(v as f64)),
        2 => (-1e12f64..1e12).prop_map(Value::Float),
        1 => prop_oneof![
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(f64::NEG_INFINITY)),
            Just(Value::Float(0.0)),
            Just(Value::Float(-0.0)),
        ],
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// Integers across narrow (bitpackable) and full-width ranges, plus nulls.
fn int_value() -> BoxedStrategy<Value> {
    prop_oneof![
        4 => (-1_000i64..1_000).prop_map(Value::Int),
        1 => any::<i64>().prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// Strings over a tiny alphabet (dictionary stays small, runs are common
/// enough that both the RLE and the packed code encodings get exercised).
fn str_value() -> BoxedStrategy<Value> {
    prop_oneof![
        5 => "[abc]{1,2}".prop_map(Value::str),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// A column of `dtype` cells, long enough to span several 128-row blocks
/// plus a partial tail.
fn column_of(dtype: DataType, cell: BoxedStrategy<Value>) -> impl Strategy<Value = Column> {
    proptest::collection::vec(cell, 0..(3 * GRAM_BLOCK_ROWS + 7))
        .prop_map(move |vals| Column::from_values(dtype, &vals).unwrap())
}

/// Bit-exact slot comparison: validity must agree, and valid slots must
/// hold identical values (floats compared on `to_bits`, so NaN payloads
/// and -0.0 count).
fn assert_slots_identical(raw: &Column, sealed: &Column) -> Result<(), TestCaseError> {
    prop_assert_eq!(raw.len(), sealed.len());
    prop_assert_eq!(raw.dtype(), sealed.dtype());
    for i in 0..raw.len() {
        prop_assert_eq!(raw.is_valid(i), sealed.is_valid(i), "validity at {}", i);
        if !raw.is_valid(i) {
            continue;
        }
        match (raw.get(i), sealed.get(i)) {
            (Value::Float(a), Value::Float(b)) => {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "float bits at {}", i);
            }
            (a, b) => prop_assert_eq!(a, b, "value at {}", i),
        }
    }
    Ok(())
}

/// A one-column table over `col` named `x`.
fn table_of(col: Column) -> Table {
    let schema = Schema::new(vec![Field::new("x", col.dtype())]).unwrap();
    Table::new(schema, vec![col]).unwrap()
}

/// Comparison literals biased toward values the generators actually emit,
/// so zone maps see genuine AllTrue/AllFalse/Decode mixes — plus the
/// specials whose classification has sharp edges.
fn float_literal() -> BoxedStrategy<f64> {
    prop_oneof![
        4 => (-1_000_000i64..1_000_000).prop_map(|v| v as f64),
        2 => -1e12f64..1e12,
        1 => prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.0),
            Just(-0.0),
        ],
    ]
    .boxed()
}

fn any_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn float_encodings_roundtrip_to_bits(col in column_of(DataType::Float64, float_value())) {
        let sealed = col.compress();
        prop_assert!(sealed.is_compressed());
        assert_slots_identical(&col, &sealed)?;
        // And back out through the explicit decode.
        let raw_again = sealed.decompress();
        prop_assert!(!raw_again.is_compressed());
        assert_slots_identical(&col, &raw_again)?;
    }

    #[test]
    fn int_encodings_roundtrip(col in column_of(DataType::Int64, int_value())) {
        let sealed = col.compress();
        prop_assert!(sealed.is_compressed());
        assert_slots_identical(&col, &sealed)?;
        assert_slots_identical(&col, &sealed.decompress())?;
    }

    #[test]
    fn code_encodings_roundtrip(col in column_of(DataType::Utf8, str_value())) {
        let sealed = col.compress();
        prop_assert!(sealed.is_compressed());
        assert_slots_identical(&col, &sealed)?;
        assert_slots_identical(&col, &sealed.decompress())?;
    }

    #[test]
    fn zone_pruned_cmp_masks_match_full_scan(
        col in column_of(DataType::Float64, float_value()),
        op in any_op(),
        lit in float_literal(),
    ) {
        let raw = table_of(col.clone());
        let sealed = raw.sealed();
        let p = Predicate::cmp("x", op, Value::Float(lit));
        let a = p.eval_mask(&raw).unwrap();
        let b = p.eval_mask(&sealed).unwrap();
        prop_assert_eq!(a, b, "op={:?} lit={}", op, lit);
    }

    #[test]
    fn zone_pruned_int_masks_match_full_scan(
        col in column_of(DataType::Int64, int_value()),
        op in any_op(),
        lit in -1_000i64..1_000,
    ) {
        let raw = table_of(col.clone());
        let sealed = raw.sealed();
        let p = Predicate::cmp("x", op, Value::Int(lit));
        let a = p.eval_mask(&raw).unwrap();
        let b = p.eval_mask(&sealed).unwrap();
        prop_assert_eq!(a, b, "op={:?} lit={}", op, lit);
    }

    #[test]
    fn zone_pruned_between_matches_full_scan(
        col in column_of(DataType::Float64, float_value()),
        lo in float_literal(),
        hi in float_literal(),
    ) {
        let raw = table_of(col.clone());
        let sealed = raw.sealed();
        let p = Predicate::between("x", Value::Float(lo), Value::Float(hi));
        let a = p.eval_mask(&raw).unwrap();
        let b = p.eval_mask(&sealed).unwrap();
        prop_assert_eq!(a, b, "lo={} hi={}", lo, hi);
    }

    #[test]
    fn string_eq_and_inset_match_full_scan(
        col in column_of(DataType::Utf8, str_value()),
        needle in "[abcz]{1,2}",
    ) {
        let raw = table_of(col.clone());
        let sealed = raw.sealed();
        for p in [
            Predicate::eq("x", needle.as_str()),
            Predicate::cmp("x", CmpOp::Ne, Value::str(needle.as_str())),
            Predicate::in_set("x", [Value::str(needle.as_str()), Value::str("a")]),
        ] {
            let a = p.eval_mask(&raw).unwrap();
            let b = p.eval_mask(&sealed).unwrap();
            prop_assert_eq!(a, b, "{}", p);
        }
    }
}

/// All-null columns of every compressible dtype, at block-boundary sizes:
/// empty, one slot, one block minus/exactly/plus one, and a multi-block
/// span with a tail.
#[test]
fn all_null_columns_roundtrip_at_block_boundaries() {
    let sizes = [
        0,
        1,
        GRAM_BLOCK_ROWS - 1,
        GRAM_BLOCK_ROWS,
        GRAM_BLOCK_ROWS + 1,
        3 * GRAM_BLOCK_ROWS + 5,
    ];
    for dtype in [DataType::Float64, DataType::Int64, DataType::Utf8] {
        for &n in &sizes {
            let vals = vec![Value::Null; n];
            let col = Column::from_values(dtype, &vals).unwrap();
            let sealed = col.compress();
            assert_eq!(sealed.len(), n, "{dtype:?} n={n}");
            assert_eq!(sealed.null_count(), n, "{dtype:?} n={n}");
            let back = sealed.decompress();
            assert_eq!(back.null_count(), n, "{dtype:?} n={n}");
            // And an all-null column can never satisfy a comparison.
            if n > 0 {
                let table = table_of(sealed);
                let p = Predicate::cmp("x", CmpOp::Le, Value::Float(0.0));
                let mask = if dtype == DataType::Utf8 {
                    Predicate::eq("x", "a").eval_mask(&table).unwrap()
                } else {
                    p.eval_mask(&table).unwrap()
                };
                assert!(mask.iter().all(|&m| !m), "{dtype:?} n={n}");
            }
        }
    }
}
