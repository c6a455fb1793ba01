//! Typed columnar storage.
//!
//! Each [`Column`] stores one attribute's values contiguously. Strings are
//! dictionary-encoded: the column holds `u32` codes into a deduplicated
//! string pool, which keeps categorical attributes (the typical *condition*
//! attributes in ChARLES) compact and makes group-by-value operations cheap.
//! Nulls are tracked with an optional validity mask; the mask is only
//! materialized when a null is actually present.
//!
//! Storage buffers are `Arc`-shared: cloning a column (or taking a
//! [`crate::view::ColumnView`] over it) is O(1) and aliases the same
//! backing vectors. Mutation goes through [`Arc::make_mut`], i.e. columns
//! are copy-on-write — many concurrent readers can scan the same buffers
//! while a writer evolves its own logical copy.

use crate::error::{RelationError, Result};
use crate::value::{DataType, Value};
use crate::view::{CodeGroups, CodesView, ColumnView, NumericView};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A deduplicating pool of strings for dictionary encoding.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    values: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

impl StrDict {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        StrDict::default()
    }

    /// Intern a string, returning its code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.lookup.get(s) {
            return code;
        }
        let code = self.values.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.values.push(arc.clone());
        self.lookup.insert(arc, code);
        code
    }

    /// Resolve a code back to its string.
    pub fn resolve(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// Look up the code of a string if it is interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Approximate resident bytes of the pool (string payloads plus the
    /// per-entry pointer overhead of the vector and lookup map). Used by
    /// memory-budgeted caches; not an exact allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let payload: usize = self.values.iter().map(|s| s.len()).sum();
        // One Arc in `values`, one Arc + u32 in `lookup`, per entry.
        payload + self.values.len() * (2 * std::mem::size_of::<usize>() + 4)
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A single typed column of values with `Arc`-shared (copy-on-write)
/// storage.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers with optional validity mask.
    Int64 {
        /// Raw values; entries where the mask is false are meaningless.
        values: Arc<Vec<i64>>,
        /// `Some(mask)` iff at least one null exists; `mask[i]` = valid.
        validity: Option<Arc<Vec<bool>>>,
    },
    /// 64-bit floats with optional validity mask.
    Float64 {
        /// Raw values.
        values: Arc<Vec<f64>>,
        /// Validity mask, see [`Column::Int64`].
        validity: Option<Arc<Vec<bool>>>,
    },
    /// Dictionary-encoded UTF-8 strings.
    Utf8 {
        /// The shared string pool.
        dict: Arc<StrDict>,
        /// Per-row dictionary codes.
        codes: Arc<Vec<u32>>,
        /// Validity mask, see [`Column::Int64`].
        validity: Option<Arc<Vec<bool>>>,
    },
    /// Booleans with optional validity mask.
    Bool {
        /// Raw values.
        values: Arc<Vec<bool>>,
        /// Validity mask, see [`Column::Int64`].
        validity: Option<Arc<Vec<bool>>>,
    },
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64 {
                values: Arc::new(Vec::new()),
                validity: None,
            },
            DataType::Float64 => Column::Float64 {
                values: Arc::new(Vec::new()),
                validity: None,
            },
            DataType::Utf8 => Column::Utf8 {
                dict: Arc::new(StrDict::new()),
                codes: Arc::new(Vec::new()),
                validity: None,
            },
            DataType::Bool => Column::Bool {
                values: Arc::new(Vec::new()),
                validity: None,
            },
        }
    }

    /// Build a column of `dtype` from dynamically typed values.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Result<Self> {
        let mut col = Column::empty(dtype);
        for v in values {
            col.push(v.clone())?;
        }
        Ok(col)
    }

    /// Convenience: a non-null Int64 column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::Int64 {
            values: Arc::new(values),
            validity: None,
        }
    }

    /// Convenience: a non-null Float64 column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float64 {
            values: Arc::new(values),
            validity: None,
        }
    }

    /// Convenience: a non-null Utf8 column.
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut dict = StrDict::new();
        let codes = values.iter().map(|s| dict.intern(s.as_ref())).collect();
        Column::Utf8 {
            dict: Arc::new(dict),
            codes: Arc::new(codes),
            validity: None,
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Utf8 { .. } => DataType::Utf8,
            Column::Bool { .. } => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { values, .. } => values.len(),
            Column::Float64 { values, .. } => values.len(),
            Column::Utf8 { codes, .. } => codes.len(),
            Column::Bool { values, .. } => values.len(),
        }
    }

    /// Approximate resident bytes of the column's storage (values,
    /// dictionary, and validity mask). `Arc`-shared buffers are counted
    /// **once per allocation** within this call (a column aliasing its own
    /// buffers is not inflated); to deduplicate across several holders —
    /// tables of an aligned pair, views of a session — thread one seen-set
    /// through [`Column::approx_bytes_dedup`] instead.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes_dedup(&mut HashSet::new())
    }

    /// [`Column::approx_bytes`] with deduplication by allocation identity:
    /// each `Arc` buffer is charged only the first time its address enters
    /// `seen`, so holders sharing storage (aligned snapshots, views) sum to the true resident footprint instead of a multiple of
    /// it. Not an exact allocator measurement.
    pub fn approx_bytes_dedup(&self, seen: &mut HashSet<usize>) -> usize {
        fn note<T>(seen: &mut HashSet<usize>, arc: &Arc<T>, bytes: usize) -> usize {
            if seen.insert(Arc::as_ptr(arc) as usize) {
                bytes
            } else {
                0
            }
        }
        let mask_bytes = |seen: &mut HashSet<usize>, validity: &Option<Arc<Vec<bool>>>| {
            validity.as_ref().map_or(0, |m| note(seen, m, m.len()))
        };
        match self {
            Column::Int64 { values, validity } => {
                note(seen, values, values.len() * 8) + mask_bytes(seen, validity)
            }
            Column::Float64 { values, validity } => {
                note(seen, values, values.len() * 8) + mask_bytes(seen, validity)
            }
            Column::Utf8 {
                dict,
                codes,
                validity,
            } => {
                note(seen, dict, dict.approx_bytes())
                    + note(seen, codes, codes.len() * 4)
                    + mask_bytes(seen, validity)
            }
            Column::Bool { values, validity } => {
                note(seen, values, values.len()) + mask_bytes(seen, validity)
            }
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn validity(&self) -> Option<&Vec<bool>> {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Utf8 { validity, .. }
            | Column::Bool { validity, .. } => validity.as_deref(),
        }
    }

    fn validity_arc(&self) -> Option<&Arc<Vec<bool>>> {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Utf8 { validity, .. }
            | Column::Bool { validity, .. } => validity.as_ref(),
        }
    }

    /// Whether row `i` holds a non-null value.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().is_none_or(|m| m[i])
    }

    /// Number of null entries.
    pub fn null_count(&self) -> usize {
        self.validity()
            .map_or(0, |m| m.iter().filter(|&&v| !v).count())
    }

    /// Get the value at row `i`.
    pub fn get(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            Column::Int64 { values, .. } => Value::Int(values[i]),
            Column::Float64 { values, .. } => Value::Float(values[i]),
            Column::Utf8 { dict, codes, .. } => Value::Str(dict.resolve(codes[i]).clone()),
            Column::Bool { values, .. } => Value::Bool(values[i]),
        }
    }

    /// Numeric view of row `i` (`None` for nulls and non-numeric columns).
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match self {
            Column::Int64 { values, .. } => Some(values[i] as f64),
            Column::Float64 { values, .. } => Some(values[i]),
            Column::Bool { values, .. } => Some(if values[i] { 1.0 } else { 0.0 }),
            Column::Utf8 { .. } => None,
        }
    }

    fn push_null(&mut self) {
        let len = self.len();
        let push_invalid = |validity: &mut Option<Arc<Vec<bool>>>| {
            Arc::make_mut(validity.get_or_insert_with(|| Arc::new(vec![true; len]))).push(false);
        };
        match self {
            Column::Int64 { values, validity } => {
                Arc::make_mut(values).push(0);
                push_invalid(validity);
            }
            Column::Float64 { values, validity } => {
                Arc::make_mut(values).push(0.0);
                push_invalid(validity);
            }
            Column::Utf8 {
                codes, validity, ..
            } => {
                Arc::make_mut(codes).push(0);
                push_invalid(validity);
            }
            Column::Bool { values, validity } => {
                Arc::make_mut(values).push(false);
                push_invalid(validity);
            }
        }
    }

    fn push_valid_mark(validity: &mut Option<Arc<Vec<bool>>>) {
        if let Some(mask) = validity {
            Arc::make_mut(mask).push(true);
        }
    }

    /// Append a value; `Int -> Float64` widening is performed implicitly.
    pub fn push(&mut self, value: Value) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        let mismatch = |col: &Column, value: &Value| RelationError::TypeMismatch {
            expected: col.dtype().name().to_string(),
            found: value
                .dtype()
                .map_or("Null".to_string(), |t| t.name().to_string()),
        };
        match self {
            Column::Int64 { values, validity } => match value {
                Value::Int(v) => {
                    Arc::make_mut(values).push(v);
                    Self::push_valid_mark(validity);
                    Ok(())
                }
                other => Err(mismatch(self, &other)),
            },
            Column::Float64 { values, validity } => match value {
                Value::Float(v) => {
                    Arc::make_mut(values).push(v);
                    Self::push_valid_mark(validity);
                    Ok(())
                }
                Value::Int(v) => {
                    Arc::make_mut(values).push(v as f64);
                    Self::push_valid_mark(validity);
                    Ok(())
                }
                other => Err(mismatch(self, &other)),
            },
            Column::Utf8 {
                dict,
                codes,
                validity,
            } => match value {
                Value::Str(s) => {
                    let code = Arc::make_mut(dict).intern(&s);
                    Arc::make_mut(codes).push(code);
                    Self::push_valid_mark(validity);
                    Ok(())
                }
                other => Err(mismatch(self, &other)),
            },
            Column::Bool { values, validity } => match value {
                Value::Bool(b) => {
                    Arc::make_mut(values).push(b);
                    Self::push_valid_mark(validity);
                    Ok(())
                }
                other => Err(mismatch(self, &other)),
            },
        }
    }

    /// Overwrite the value at row `i`.
    pub fn set(&mut self, i: usize, value: Value) -> Result<()> {
        let height = self.len();
        if i >= height {
            return Err(RelationError::RowIndexOutOfBounds { index: i, height });
        }
        if value.is_null() {
            match self {
                Column::Int64 { validity, .. }
                | Column::Float64 { validity, .. }
                | Column::Utf8 { validity, .. }
                | Column::Bool { validity, .. } => {
                    Arc::make_mut(validity.get_or_insert_with(|| Arc::new(vec![true; height])))
                        [i] = false;
                }
            }
            return Ok(());
        }
        let mark_valid = |validity: &mut Option<Arc<Vec<bool>>>| {
            if let Some(mask) = validity {
                Arc::make_mut(mask)[i] = true;
            }
        };
        let expected = self.dtype();
        let found = value
            .dtype()
            .map_or("Null".to_string(), |t| t.name().to_string());
        match self {
            Column::Int64 { values, validity } => {
                if let Value::Int(v) = value {
                    Arc::make_mut(values)[i] = v;
                    mark_valid(validity);
                    return Ok(());
                }
            }
            Column::Float64 { values, validity } => match value {
                Value::Float(v) => {
                    Arc::make_mut(values)[i] = v;
                    mark_valid(validity);
                    return Ok(());
                }
                Value::Int(v) => {
                    Arc::make_mut(values)[i] = v as f64;
                    mark_valid(validity);
                    return Ok(());
                }
                _ => {}
            },
            Column::Utf8 {
                dict,
                codes,
                validity,
            } => {
                if let Value::Str(s) = value {
                    let code = Arc::make_mut(dict).intern(&s);
                    Arc::make_mut(codes)[i] = code;
                    mark_valid(validity);
                    return Ok(());
                }
            }
            Column::Bool { values, validity } => {
                if let Value::Bool(b) = value {
                    Arc::make_mut(values)[i] = b;
                    mark_valid(validity);
                    return Ok(());
                }
            }
        }
        Err(RelationError::TypeMismatch {
            expected: expected.name().to_string(),
            found,
        })
    }

    /// A new column containing rows at `indices` (in that order).
    pub fn take(&self, indices: &[usize]) -> Column {
        let take_mask = |validity: &Option<Arc<Vec<bool>>>| {
            validity
                .as_ref()
                .map(|m| Arc::new(indices.iter().map(|&i| m[i]).collect()))
        };
        match self {
            Column::Int64 { values, validity } => Column::Int64 {
                values: Arc::new(indices.iter().map(|&i| values[i]).collect()),
                validity: take_mask(validity),
            },
            Column::Float64 { values, validity } => Column::Float64 {
                values: Arc::new(indices.iter().map(|&i| values[i]).collect()),
                validity: take_mask(validity),
            },
            Column::Utf8 {
                dict,
                codes,
                validity,
            } => Column::Utf8 {
                dict: dict.clone(),
                codes: Arc::new(indices.iter().map(|&i| codes[i]).collect()),
                validity: take_mask(validity),
            },
            Column::Bool { values, validity } => Column::Bool {
                values: Arc::new(indices.iter().map(|&i| values[i]).collect()),
                validity: take_mask(validity),
            },
        }
    }

    /// All values as `f64`, or an error naming `attr` if the column is not
    /// numeric or contains nulls. The fast path for regression inputs.
    pub fn to_f64_vec(&self, attr: &str) -> Result<Vec<f64>> {
        if self.null_count() > 0 {
            return Err(RelationError::Eval(format!(
                "attribute {attr:?} contains nulls; cannot use as numeric input"
            )));
        }
        match self {
            Column::Int64 { values, .. } => Ok(values.iter().map(|&v| v as f64).collect()),
            Column::Float64 { values, .. } => Ok(values.as_ref().clone()),
            Column::Bool { values, .. } => {
                Ok(values.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect())
            }
            Column::Utf8 { .. } => Err(RelationError::TypeMismatch {
                expected: "numeric".to_string(),
                found: format!("Utf8 (attribute {attr:?})"),
            }),
        }
    }

    /// A shared, dense `f64` view of a numeric column. For a null-free
    /// `Float64` column this is **zero-copy** (the view aliases the
    /// column's own buffer); `Int64`/`Bool` columns are widened into a
    /// fresh shared buffer once. Errors mirror [`Column::to_f64_vec`].
    pub fn numeric_view(&self, attr: &str) -> Result<NumericView> {
        if self.null_count() > 0 {
            return Err(RelationError::Eval(format!(
                "attribute {attr:?} contains nulls; cannot use as numeric input"
            )));
        }
        match self {
            Column::Float64 { values, .. } => Ok(NumericView::from_arc(values.clone())),
            Column::Int64 { values, .. } => {
                Ok(NumericView::new(values.iter().map(|&v| v as f64).collect()))
            }
            Column::Bool { values, .. } => Ok(NumericView::new(
                values.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
            )),
            Column::Utf8 { .. } => Err(RelationError::TypeMismatch {
                expected: "numeric".to_string(),
                found: format!("Utf8 (attribute {attr:?})"),
            }),
        }
    }

    /// A zero-copy dictionary-code view of a `Utf8` column (`None` for
    /// other types).
    pub fn codes_view(&self) -> Option<CodesView> {
        match self {
            Column::Utf8 {
                dict,
                codes,
                validity,
            } => Some(CodesView::new(
                dict.clone(),
                codes.clone(),
                validity.clone(),
            )),
            _ => None,
        }
    }

    /// A typed zero-copy view of this column: dictionary codes for `Utf8`,
    /// dense `f64` for numeric and boolean columns (which must be
    /// null-free — see [`Column::numeric_view`]).
    pub fn view(&self, attr: &str) -> Result<ColumnView> {
        match self.codes_view() {
            Some(codes) => Ok(ColumnView::Codes(codes)),
            None => Ok(ColumnView::Numeric(self.numeric_view(attr)?)),
        }
    }

    /// Group rows directly by dictionary code — no string materialization
    /// or hashing. Supported for `Utf8` (by code) and `Bool` (false/true)
    /// columns; `None` for numeric columns. Null rows form their own
    /// group. Group order is deterministic: first row of appearance.
    pub fn group_codes(&self) -> Option<CodeGroups> {
        match self {
            Column::Utf8 {
                dict,
                codes,
                validity,
            } => Some(CodeGroups::from_codes(
                codes,
                dict.len(),
                validity.as_deref().map(Vec::as_slice),
            )),
            Column::Bool { values, validity } => {
                let codes: Vec<u32> = values.iter().map(|&b| u32::from(b)).collect();
                Some(CodeGroups::from_codes(
                    &codes,
                    2,
                    validity.as_deref().map(Vec::as_slice),
                ))
            }
            _ => None,
        }
    }

    /// The validity mask shared as an `Arc`, if any null exists.
    pub fn validity_mask(&self) -> Option<&Arc<Vec<bool>>> {
        self.validity_arc()
    }

    /// Iterate values as `Value`s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Number of distinct non-null values.
    pub fn distinct_count(&self) -> usize {
        match self {
            Column::Utf8 {
                dict,
                codes,
                validity,
            } => {
                // Fast path: count distinct codes actually used.
                let mut seen = vec![false; dict.len()];
                let mut n = 0;
                for (i, &c) in codes.iter().enumerate() {
                    if validity.as_ref().is_none_or(|m| m[i]) && !seen[c as usize] {
                        seen[c as usize] = true;
                        n += 1;
                    }
                }
                n
            }
            _ => {
                let mut seen: std::collections::HashSet<Value> = std::collections::HashSet::new();
                for i in 0..self.len() {
                    if self.is_valid(i) {
                        seen.insert(self.get(i));
                    }
                }
                seen.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_interning_dedupes() {
        let mut d = StrDict::new();
        let a = d.intern("PhD");
        let b = d.intern("MS");
        let a2 = d.intern("PhD");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(&**d.resolve(a), "PhD");
        assert_eq!(d.code_of("MS"), Some(b));
        assert_eq!(d.code_of("BS"), None);
    }

    #[test]
    fn push_and_get_roundtrip() {
        let mut col = Column::empty(DataType::Float64);
        col.push(Value::Float(1.5)).unwrap();
        col.push(Value::Int(2)).unwrap(); // widening
        col.push(Value::Null).unwrap();
        assert_eq!(col.len(), 3);
        assert_eq!(col.get(0), Value::Float(1.5));
        assert_eq!(col.get(1), Value::Float(2.0));
        assert_eq!(col.get(2), Value::Null);
        assert_eq!(col.null_count(), 1);
    }

    #[test]
    fn push_type_mismatch() {
        let mut col = Column::empty(DataType::Int64);
        let err = col.push(Value::str("x")).unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
        // Float into Int64 is NOT silently narrowed.
        assert!(col.push(Value::Float(1.5)).is_err());
    }

    #[test]
    fn validity_mask_lazy() {
        let mut col = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(col.null_count(), 0);
        col.push(Value::Null).unwrap();
        assert_eq!(col.null_count(), 1);
        assert!(col.is_valid(0));
        assert!(!col.is_valid(3));
        col.push(Value::Int(5)).unwrap();
        assert!(col.is_valid(4));
    }

    #[test]
    fn set_overwrites_and_revalidates() {
        let mut col = Column::from_f64(vec![1.0, 2.0]);
        col.set(0, Value::Null).unwrap();
        assert_eq!(col.get(0), Value::Null);
        col.set(0, Value::Float(9.0)).unwrap();
        assert_eq!(col.get(0), Value::Float(9.0));
        assert_eq!(col.null_count(), 0);
        assert!(col.set(5, Value::Float(0.0)).is_err());
        assert!(col.set(1, Value::str("no")).is_err());
    }

    #[test]
    fn take_reorders_and_preserves_nulls() {
        let mut col = Column::from_strs(&["a", "b", "c"]);
        col.push(Value::Null).unwrap();
        let taken = col.take(&[3, 1, 1]);
        assert_eq!(taken.len(), 3);
        assert_eq!(taken.get(0), Value::Null);
        assert_eq!(taken.get(1), Value::str("b"));
        assert_eq!(taken.get(2), Value::str("b"));
    }

    #[test]
    fn to_f64_vec_paths() {
        assert_eq!(
            Column::from_i64(vec![1, 2]).to_f64_vec("x").unwrap(),
            vec![1.0, 2.0]
        );
        assert!(Column::from_strs(&["a"]).to_f64_vec("s").is_err());
        let mut withnull = Column::from_f64(vec![1.0]);
        withnull.push(Value::Null).unwrap();
        assert!(withnull.to_f64_vec("x").is_err());
    }

    #[test]
    fn distinct_counts() {
        let col = Column::from_strs(&["a", "b", "a", "a"]);
        assert_eq!(col.distinct_count(), 2);
        let col = Column::from_i64(vec![5, 5, 6]);
        assert_eq!(col.distinct_count(), 2);
        let mut col = Column::from_i64(vec![5]);
        col.push(Value::Null).unwrap();
        assert_eq!(col.distinct_count(), 1);
    }

    #[test]
    fn from_values_builds_typed() {
        let col = Column::from_values(
            DataType::Utf8,
            &[Value::str("x"), Value::Null, Value::str("x")],
        )
        .unwrap();
        assert_eq!(col.dtype(), DataType::Utf8);
        assert_eq!(col.len(), 3);
        assert_eq!(col.null_count(), 1);
    }

    #[test]
    fn float_view_is_zero_copy() {
        let col = Column::from_f64(vec![1.0, 2.0, 3.0]);
        let view = col.numeric_view("x").unwrap();
        assert_eq!(&*view, &[1.0, 2.0, 3.0]);
        if let Column::Float64 { values, .. } = &col {
            assert!(Arc::ptr_eq(values, view.shared()));
        } else {
            unreachable!()
        }
        // Cloning the view is O(1) aliasing, not a copy.
        let clone = view.clone();
        assert!(Arc::ptr_eq(view.shared(), clone.shared()));
    }

    #[test]
    fn int_and_bool_views_widen() {
        assert_eq!(
            &*Column::from_i64(vec![2, 3]).numeric_view("x").unwrap(),
            &[2.0, 3.0]
        );
        let col =
            Column::from_values(DataType::Bool, &[Value::Bool(true), Value::Bool(false)]).unwrap();
        assert_eq!(&*col.numeric_view("b").unwrap(), &[1.0, 0.0]);
        assert!(Column::from_strs(&["s"]).numeric_view("s").is_err());
    }

    #[test]
    fn copy_on_write_isolates_mutation() {
        let a = Column::from_f64(vec![1.0, 2.0]);
        let view = a.numeric_view("x").unwrap();
        let mut b = a.clone();
        b.set(0, Value::Float(99.0)).unwrap();
        // The original column and its outstanding view are untouched.
        assert_eq!(a.get(0), Value::Float(1.0));
        assert_eq!(view[0], 1.0);
        assert_eq!(b.get(0), Value::Float(99.0));
    }

    #[test]
    fn group_codes_partitions_rows() {
        let mut col = Column::from_strs(&["a", "b", "a", "c", "b"]);
        col.push(Value::Null).unwrap();
        let groups = col.group_codes().unwrap();
        assert_eq!(groups.n_groups(), 4); // a, b, c, null
                                          // First-appearance order, rows in row order.
        assert_eq!(groups.groups[0].1, vec![0, 2]);
        assert_eq!(groups.groups[1].1, vec![1, 4]);
        assert_eq!(groups.groups[2].1, vec![3]);
        assert_eq!(groups.groups[3].0, None); // null group
        assert_eq!(groups.groups[3].1, vec![5]);
        assert_eq!(groups.labels, vec![0, 1, 0, 2, 1, 3]);
        // Numeric columns have no code grouping.
        assert!(Column::from_f64(vec![1.0]).group_codes().is_none());
    }

    #[test]
    fn group_codes_bool() {
        let col = Column::from_values(
            DataType::Bool,
            &[Value::Bool(true), Value::Bool(false), Value::Bool(true)],
        )
        .unwrap();
        let groups = col.group_codes().unwrap();
        assert_eq!(groups.n_groups(), 2);
        assert_eq!(groups.groups[0].1, vec![0, 2]);
        assert_eq!(groups.groups[1].1, vec![1]);
    }
}
