//! Snapshot alignment: pairing each entity's source row with its target row.
//!
//! ChARLES assumes both snapshots describe the same entities (no inserts or
//! deletes) over an identical schema. [`SnapshotPair`] validates those
//! assumptions once and precomputes the row correspondence so downstream
//! passes (diffing, regression) can use plain index arithmetic.

use crate::error::{RelationError, Result};
use crate::index::KeyIndex;
use crate::table::Table;
use crate::value::Value;
use crate::view::NumericView;

/// A validated, aligned pair of snapshots.
#[derive(Debug, Clone)]
pub struct SnapshotPair {
    source: Table,
    target: Table,
    /// `target_row_of[i]` = target row holding the same entity as source
    /// row `i`.
    target_row_of: Vec<usize>,
    key_attr: Option<String>,
    /// Whether `target_row_of` is the identity permutation — the common
    /// case (same row order in both snapshots), where target columns can be
    /// viewed zero-copy instead of gathered.
    identity_aligned: bool,
}

impl SnapshotPair {
    /// Align by the tables' declared key column. Schemas must be identical
    /// and key sets must match exactly.
    pub fn align(source: Table, target: Table) -> Result<Self> {
        source.schema().ensure_same(target.schema())?;
        let key_attr = match (source.key_name(), target.key_name()) {
            (Some(a), Some(b)) if a == b => Some(a.to_string()),
            (None, None) => None,
            (a, b) => {
                return Err(RelationError::SchemaMismatch(format!(
                    "key declarations differ: {a:?} vs {b:?}"
                )))
            }
        };
        match &key_attr {
            Some(attr) => Self::align_by_key(source, target, attr.clone()),
            None => Self::align_by_position(source, target),
        }
    }

    /// Align by an explicit key attribute (tables need not have declared it).
    pub fn align_on(source: Table, target: Table, key_attr: &str) -> Result<Self> {
        source.schema().ensure_same(target.schema())?;
        Self::align_by_key(source, target, key_attr.to_string())
    }

    fn align_by_key(source: Table, target: Table, key_attr: String) -> Result<Self> {
        let src_idx = KeyIndex::build(&source, &key_attr)?;
        let tgt_idx = KeyIndex::build(&target, &key_attr)?;
        let missing = src_idx.keys_missing_from(&tgt_idx);
        if let Some(k) = missing.first() {
            return Err(RelationError::KeyNotFound(format!(
                "entity {k} exists in source but not target (ChARLES assumes no deletions)"
            )));
        }
        let extra = tgt_idx.keys_missing_from(&src_idx);
        if let Some(k) = extra.first() {
            return Err(RelationError::KeyNotFound(format!(
                "entity {k} exists in target but not source (ChARLES assumes no insertions)"
            )));
        }
        let key_col = source.column_by_name(&key_attr)?;
        let mut target_row_of = Vec::with_capacity(source.height());
        for i in 0..source.height() {
            let key = key_col.get(i);
            target_row_of.push(tgt_idx.require(&key)?);
        }
        let identity_aligned = target_row_of.iter().enumerate().all(|(i, &t)| i == t);
        Ok(SnapshotPair {
            source,
            target,
            target_row_of,
            key_attr: Some(key_attr),
            identity_aligned,
        })
    }

    fn align_by_position(source: Table, target: Table) -> Result<Self> {
        if source.height() != target.height() {
            return Err(RelationError::LengthMismatch {
                expected: source.height(),
                found: target.height(),
            });
        }
        let target_row_of = (0..source.height()).collect();
        Ok(SnapshotPair {
            source,
            target,
            target_row_of,
            key_attr: None,
            identity_aligned: true,
        })
    }

    /// The source snapshot.
    pub fn source(&self) -> &Table {
        &self.source
    }

    /// The target snapshot.
    pub fn target(&self) -> &Table {
        &self.target
    }

    /// The key attribute used for alignment, if any.
    pub fn key_attr(&self) -> Option<&str> {
        self.key_attr.as_deref()
    }

    /// Number of aligned entities.
    pub fn len(&self) -> usize {
        self.target_row_of.len()
    }

    /// Whether the pair is empty.
    pub fn is_empty(&self) -> bool {
        self.target_row_of.is_empty()
    }

    /// The target row index aligned with source row `i`.
    pub fn target_row(&self, source_row: usize) -> usize {
        self.target_row_of[source_row]
    }

    /// Whether the alignment is the identity permutation (source row `i`
    /// pairs with target row `i`). When true, target columns in source
    /// order are just the target's own columns.
    pub fn is_identity_aligned(&self) -> bool {
        self.identity_aligned
    }

    /// The key value of source row `i` (or `Int(i)` for positional pairs).
    pub fn key_of(&self, source_row: usize) -> Result<Value> {
        match &self.key_attr {
            Some(attr) => self.source.value(source_row, attr),
            None => Ok(Value::Int(source_row as i64)),
        }
    }

    /// Target attribute values, reordered into **source row order** — i.e.
    /// element `i` is the target value for the entity in source row `i`.
    /// This is the y-vector for all of ChARLES's regressions.
    pub fn target_numeric_aligned(&self, attr: &str) -> Result<Vec<f64>> {
        let col = self.target.column_by_name(attr)?;
        let mut out = Vec::with_capacity(self.len());
        for (i, &t) in self.target_row_of.iter().enumerate() {
            match col.get_f64(t) {
                Some(v) => out.push(v),
                None => {
                    return Err(RelationError::Eval(format!(
                        "target attribute {attr:?} is null/non-numeric for entity at source row {i}"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// [`Self::target_numeric_aligned`] as a shared [`NumericView`].
    ///
    /// For identity-aligned pairs over null-free `Float64` columns this is
    /// **zero-copy** — the view aliases the target table's own buffer;
    /// otherwise the gather happens once and the result is `Arc`-shared.
    /// This is the pair-level plane accessor long-lived sessions cache.
    pub fn target_numeric_view(&self, attr: &str) -> Result<NumericView> {
        if self.identity_aligned {
            self.target.numeric_view(attr)
        } else {
            Ok(NumericView::new(self.target_numeric_aligned(attr)?))
        }
    }

    /// A new pair restricted to the source rows in `rows` (alignment is
    /// preserved; useful for partition-local work).
    pub fn restrict(&self, rows: &[usize]) -> SnapshotPair {
        let source = self.source.take(rows);
        let tgt_rows: Vec<usize> = rows.iter().map(|&r| self.target_row_of[r]).collect();
        let target = self.target.take(&tgt_rows);
        SnapshotPair {
            source,
            target,
            target_row_of: (0..rows.len()).collect(),
            key_attr: self.key_attr.clone(),
            identity_aligned: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;

    fn src() -> Table {
        TableBuilder::new("s")
            .str_col("name", &["Anne", "Bob", "Cathy"])
            .float_col("bonus", &[23_000.0, 25_000.0, 11_000.0])
            .key("name")
            .build()
            .unwrap()
    }

    /// Target with rows shuffled relative to source.
    fn tgt_shuffled() -> Table {
        TableBuilder::new("t")
            .str_col("name", &["Cathy", "Anne", "Bob"])
            .float_col("bonus", &[11_000.0, 25_150.0, 27_250.0])
            .key("name")
            .build()
            .unwrap()
    }

    #[test]
    fn aligns_shuffled_rows_by_key() {
        let pair = SnapshotPair::align(src(), tgt_shuffled()).unwrap();
        assert_eq!(pair.len(), 3);
        assert_eq!(pair.target_row(0), 1); // Anne
        assert_eq!(pair.target_row(1), 2); // Bob
        assert_eq!(pair.target_row(2), 0); // Cathy
        assert_eq!(
            pair.target_numeric_aligned("bonus").unwrap(),
            vec![25_150.0, 27_250.0, 11_000.0]
        );
        assert_eq!(pair.key_attr(), Some("name"));
        assert_eq!(pair.key_of(1).unwrap(), Value::str("Bob"));
    }

    #[test]
    fn positional_alignment_without_keys() {
        let s = TableBuilder::new("s")
            .float_col("x", &[1.0, 2.0])
            .build()
            .unwrap();
        let t = TableBuilder::new("t")
            .float_col("x", &[10.0, 20.0])
            .build()
            .unwrap();
        let pair = SnapshotPair::align(s, t).unwrap();
        assert_eq!(pair.target_row(1), 1);
        assert_eq!(pair.key_of(1).unwrap(), Value::Int(1));
        assert_eq!(pair.key_attr(), None);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let s = TableBuilder::new("s")
            .float_col("x", &[1.0])
            .build()
            .unwrap();
        let t = TableBuilder::new("t").int_col("x", &[1]).build().unwrap();
        assert!(matches!(
            SnapshotPair::align(s, t).unwrap_err(),
            RelationError::SchemaMismatch(_)
        ));
    }

    #[test]
    fn entity_set_mismatch_rejected() {
        let t = TableBuilder::new("t")
            .str_col("name", &["Anne", "Bob", "Zoe"])
            .float_col("bonus", &[1.0, 2.0, 3.0])
            .key("name")
            .build()
            .unwrap();
        let err = SnapshotPair::align(src(), t).unwrap_err();
        assert!(err.to_string().contains("Cathy") || err.to_string().contains("Zoe"));
    }

    #[test]
    fn height_mismatch_positional_rejected() {
        let s = TableBuilder::new("s")
            .float_col("x", &[1.0, 2.0])
            .build()
            .unwrap();
        let t = TableBuilder::new("t")
            .float_col("x", &[1.0])
            .build()
            .unwrap();
        assert!(SnapshotPair::align(s, t).is_err());
    }

    #[test]
    fn align_on_undeclared_key() {
        let s = TableBuilder::new("s")
            .str_col("name", &["a", "b"])
            .float_col("x", &[1.0, 2.0])
            .build()
            .unwrap();
        let t = TableBuilder::new("t")
            .str_col("name", &["b", "a"])
            .float_col("x", &[20.0, 10.0])
            .build()
            .unwrap();
        let pair = SnapshotPair::align_on(s, t, "name").unwrap();
        assert_eq!(pair.target_numeric_aligned("x").unwrap(), vec![10.0, 20.0]);
    }

    #[test]
    fn identity_alignment_detected() {
        // Shuffled keys: not identity.
        let shuffled = SnapshotPair::align(src(), tgt_shuffled()).unwrap();
        assert!(!shuffled.is_identity_aligned());
        // Same order: identity, and the view is zero-copy.
        let same_order = TableBuilder::new("t")
            .str_col("name", &["Anne", "Bob", "Cathy"])
            .float_col("bonus", &[25_150.0, 27_250.0, 11_000.0])
            .key("name")
            .build()
            .unwrap();
        let pair = SnapshotPair::align(src(), same_order).unwrap();
        assert!(pair.is_identity_aligned());
        let view = pair.target_numeric_view("bonus").unwrap();
        let direct = pair.target().numeric_view("bonus").unwrap();
        assert!(std::sync::Arc::ptr_eq(view.shared(), direct.shared()));
        // Positional pairs are identity by construction.
        let s = TableBuilder::new("s")
            .float_col("x", &[1.0, 2.0])
            .build()
            .unwrap();
        let t = TableBuilder::new("t")
            .float_col("x", &[10.0, 20.0])
            .build()
            .unwrap();
        assert!(SnapshotPair::align(s, t).unwrap().is_identity_aligned());
    }

    #[test]
    fn target_numeric_view_matches_aligned_vec() {
        let pair = SnapshotPair::align(src(), tgt_shuffled()).unwrap();
        let view = pair.target_numeric_view("bonus").unwrap();
        assert_eq!(
            view.as_slice(),
            pair.target_numeric_aligned("bonus").unwrap().as_slice()
        );
    }

    #[test]
    fn restrict_preserves_alignment() {
        let pair = SnapshotPair::align(src(), tgt_shuffled()).unwrap();
        let sub = pair.restrict(&[1, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(
            sub.target_numeric_aligned("bonus").unwrap(),
            vec![27_250.0, 11_000.0]
        );
        assert_eq!(sub.source().value(0, "name").unwrap(), Value::str("Bob"));
    }
}
