//! The [`Table`]: an immutable-schema, columnar, in-memory relation.

use crate::column::Column;
use crate::error::{RelationError, Result};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// An in-memory relational table: a shared schema plus one [`Column`] per
/// field, all of equal length.
///
/// Tables are the unit ChARLES operates on: the *source* and *target*
/// snapshots are both `Table`s over the same schema. An optional key column
/// identifies the real-world entity each row represents, so the two
/// snapshots can be aligned row-by-row (see [`crate::align`]).
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    key: Option<usize>,
    name: String,
}

impl Table {
    /// Construct a table from a schema and matching columns.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(RelationError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        let mut height: Option<usize> = None;
        for (field, col) in schema.fields().iter().zip(columns.iter()) {
            if field.dtype() != col.dtype() {
                return Err(RelationError::TypeMismatch {
                    expected: field.dtype().name().to_string(),
                    found: format!("{} (column {:?})", col.dtype().name(), field.name()),
                });
            }
            match height {
                None => height = Some(col.len()),
                Some(h) if h != col.len() => {
                    return Err(RelationError::LengthMismatch {
                        expected: h,
                        found: col.len(),
                    })
                }
                _ => {}
            }
        }
        Ok(Table {
            schema,
            columns,
            key: None,
            name: String::new(),
        })
    }

    /// An empty table over a schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype()))
            .collect();
        Table {
            schema,
            columns,
            key: None,
            name: String::new(),
        }
    }

    /// Set a human-readable table name (used in display output).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Declare the named column as the entity key. Verifies uniqueness and
    /// absence of nulls.
    pub fn with_key(mut self, attr: &str) -> Result<Self> {
        let idx = self.schema.index_of(attr)?;
        let col = &self.columns[idx];
        let mut seen = std::collections::HashSet::with_capacity(col.len());
        for i in 0..col.len() {
            let v = col.get(i);
            if v.is_null() {
                return Err(RelationError::DuplicateKey(format!(
                    "null key at row {i} in column {attr:?}"
                )));
            }
            if !seen.insert(v.clone()) {
                return Err(RelationError::DuplicateKey(v.to_string()));
            }
        }
        self.key = Some(idx);
        Ok(self)
    }

    /// The table name ("" if unset).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Index of the key column, if declared.
    pub fn key_index(&self) -> Option<usize> {
        self.key
    }

    /// Name of the key column, if declared.
    pub fn key_name(&self) -> Option<&str> {
        self.key.map(|i| self.schema.fields()[i].name())
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Approximate resident bytes of all column storage (see
    /// [`Column::approx_bytes`]). `Arc`-aliased buffers are counted once
    /// per allocation within this table; to deduplicate across tables that
    /// share storage (aligned pairs) thread one seen-set through
    /// [`Table::approx_bytes_dedup`].
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes_dedup(&mut std::collections::HashSet::new())
    }

    /// [`Table::approx_bytes`] deduplicated by allocation identity across
    /// every holder sharing `seen` (see [`Column::approx_bytes_dedup`]).
    pub fn approx_bytes_dedup(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        self.columns
            .iter()
            .map(|c| c.approx_bytes_dedup(seen))
            .sum()
    }

    /// Column by index.
    pub fn column(&self, index: usize) -> Result<&Column> {
        self.columns
            .get(index)
            .ok_or(RelationError::ColumnIndexOutOfBounds {
                index,
                width: self.columns.len(),
            })
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Column by interned id — a direct index, no string hashing.
    ///
    /// # Panics
    /// Panics if `id` did not come from this table's schema (or an
    /// identical one).
    pub fn column_by_id(&self, id: crate::schema::AttrId) -> &Column {
        &self.columns[id.index()]
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Mutable column by name. Mutating the key column invalidates indexes
    /// built before the mutation; re-check with [`Table::with_key`] if so.
    pub fn column_by_name_mut(&mut self, name: &str) -> Result<&mut Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&mut self.columns[idx])
    }

    /// Cell value at (`row`, attribute `name`).
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        let height = self.height();
        if row >= height {
            return Err(RelationError::RowIndexOutOfBounds { index: row, height });
        }
        Ok(self.column_by_name(name)?.get(row))
    }

    /// Entire row as values in schema order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        let height = self.height();
        if row >= height {
            return Err(RelationError::RowIndexOutOfBounds { index: row, height });
        }
        Ok(self.columns.iter().map(|c| c.get(row)).collect())
    }

    /// Append a row of values in schema order.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.width() {
            return Err(RelationError::LengthMismatch {
                expected: self.width(),
                found: values.len(),
            });
        }
        // Validate all pushes up front so a failed row leaves the table
        // unchanged (columns must stay equal-length).
        for (col, v) in self.columns.iter().zip(values.iter()) {
            if !v.is_null() {
                let ok = matches!(
                    (col.dtype(), v),
                    (DataType::Int64, Value::Int(_))
                        | (DataType::Float64, Value::Float(_) | Value::Int(_))
                        | (DataType::Utf8, Value::Str(_))
                        | (DataType::Bool, Value::Bool(_))
                );
                if !ok {
                    return Err(RelationError::TypeMismatch {
                        expected: col.dtype().name().to_string(),
                        found: v.dtype().map_or("Null".into(), |t| t.name().to_string()),
                    });
                }
            }
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v).expect("validated above");
        }
        Ok(())
    }

    /// New table with only the rows at `indices` (in order). Key declaration
    /// is preserved when the subset keeps keys unique (always true for a
    /// subset of distinct indices).
    pub fn take(&self, indices: &[usize]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            key: self.key,
            name: self.name.clone(),
        }
    }

    /// New table keeping rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Table> {
        if mask.len() != self.height() {
            return Err(RelationError::LengthMismatch {
                expected: self.height(),
                found: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        Ok(self.take(&indices))
    }

    /// Numeric column as a dense `f64` vector (regression input fast path).
    pub fn numeric(&self, name: &str) -> Result<Vec<f64>> {
        self.column_by_name(name)?.to_f64_vec(name)
    }

    /// Shared numeric view of a column by name (zero-copy for null-free
    /// `Float64` columns; see [`Column::numeric_view`]).
    pub fn numeric_view(&self, name: &str) -> Result<crate::view::NumericView> {
        self.column_by_name(name)?.numeric_view(name)
    }

    /// Shared numeric view of a column by interned id.
    ///
    /// # Panics
    /// Panics if `id` did not come from this table's schema.
    pub fn numeric_view_by_id(
        &self,
        id: crate::schema::AttrId,
    ) -> Result<crate::view::NumericView> {
        self.column_by_id(id)
            .numeric_view(self.schema.attr_name(id))
    }

    /// Deep value equality (schema, heights, and every cell; names/keys are
    /// not compared).
    pub fn content_eq(&self, other: &Table) -> bool {
        if self.schema.ensure_same(&other.schema).is_err() || self.height() != other.height() {
            return false;
        }
        for (a, b) in self.columns.iter().zip(other.columns.iter()) {
            for i in 0..a.len() {
                let (va, vb) = (a.get(i), b.get(i));
                if va != vb {
                    return false;
                }
            }
        }
        true
    }

    /// Iterator over row indices (convenience for exhaustive scans).
    pub fn row_ids(&self) -> std::ops::Range<usize> {
        0..self.height()
    }
}

impl fmt::Display for Table {
    /// Pretty-prints up to 20 rows in a fixed-width grid.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_ROWS: usize = 20;
        let names = self.schema.names();
        let shown = self.height().min(MAX_ROWS);
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(r).to_string()).collect();
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        if !self.name.is_empty() {
            writeln!(f, "# {} ({} rows)", self.name, self.height())?;
        }
        for (n, w) in names.iter().zip(widths.iter()) {
            write!(f, "| {n:w$} ")?;
        }
        writeln!(f, "|")?;
        for w in &widths {
            write!(f, "|{:-<width$}", "", width = w + 2)?;
        }
        writeln!(f, "|")?;
        for row in &cells {
            for (cell, w) in row.iter().zip(widths.iter()) {
                write!(f, "| {cell:w$} ")?;
            }
            writeln!(f, "|")?;
        }
        if self.height() > MAX_ROWS {
            writeln!(f, "... {} more rows", self.height() - MAX_ROWS)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("exp", DataType::Int64),
            Field::new("salary", DataType::Float64),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_strs(&["Anne", "Bob", "Amber"]),
                Column::from_i64(vec![2, 3, 5]),
                Column::from_f64(vec![230_000.0, 250_000.0, 160_000.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_access() {
        let t = sample();
        assert_eq!(t.height(), 3);
        assert_eq!(t.width(), 3);
        assert_eq!(t.value(1, "name").unwrap(), Value::str("Bob"));
        assert_eq!(t.value(2, "exp").unwrap(), Value::Int(5));
        assert_eq!(
            t.row(0).unwrap(),
            vec![Value::str("Anne"), Value::Int(2), Value::Float(230_000.0)]
        );
    }

    #[test]
    fn constructor_validates_shape() {
        let schema = Schema::from_pairs([("a", DataType::Int64), ("b", DataType::Int64)]).unwrap();
        // wrong column count
        assert!(Table::new(schema.clone(), vec![Column::from_i64(vec![1])]).is_err());
        // mismatched lengths
        assert!(Table::new(
            schema.clone(),
            vec![Column::from_i64(vec![1]), Column::from_i64(vec![1, 2])]
        )
        .is_err());
        // wrong dtype
        assert!(Table::new(
            schema,
            vec![Column::from_i64(vec![1]), Column::from_f64(vec![1.0])]
        )
        .is_err());
    }

    #[test]
    fn key_declaration_checks_uniqueness() {
        let t = sample().with_key("name").unwrap();
        assert_eq!(t.key_name(), Some("name"));
        let schema = Schema::from_pairs([("k", DataType::Int64)]).unwrap();
        let dup = Table::new(schema, vec![Column::from_i64(vec![1, 1])]).unwrap();
        assert!(matches!(
            dup.with_key("k").unwrap_err(),
            RelationError::DuplicateKey(_)
        ));
    }

    #[test]
    fn push_row_is_atomic_on_error() {
        let mut t = sample();
        let err = t.push_row(vec![
            Value::str("Zoe"),
            Value::str("bad"),
            Value::Float(1.0),
        ]);
        assert!(err.is_err());
        // No partial append happened.
        assert_eq!(t.height(), 3);
        t.push_row(vec![Value::str("Zoe"), Value::Int(1), Value::Int(90_000)])
            .unwrap();
        assert_eq!(t.height(), 4);
        assert_eq!(t.value(3, "salary").unwrap(), Value::Float(90_000.0));
    }

    #[test]
    fn filter_and_take() {
        let t = sample();
        let f = t.filter(&[true, false, true]).unwrap();
        assert_eq!(f.height(), 2);
        assert_eq!(f.value(1, "name").unwrap(), Value::str("Amber"));
        let tk = t.take(&[2, 0]);
        assert_eq!(tk.value(0, "name").unwrap(), Value::str("Amber"));
        assert_eq!(tk.value(1, "name").unwrap(), Value::str("Anne"));
        assert!(t.filter(&[true]).is_err());
    }

    #[test]
    fn numeric_extraction() {
        let t = sample();
        assert_eq!(t.numeric("exp").unwrap(), vec![2.0, 3.0, 5.0]);
        assert!(t.numeric("name").is_err());
    }

    #[test]
    fn content_equality() {
        let t = sample();
        assert!(t.content_eq(&t.clone()));
        let f = t.filter(&[true, true, false]).unwrap();
        assert!(!t.content_eq(&f));
    }

    #[test]
    fn display_renders_grid() {
        let out = sample().with_name("emp").to_string();
        assert!(out.contains("# emp (3 rows)"));
        assert!(out.contains("| Anne"));
        assert!(out.contains("| salary"));
    }
}
