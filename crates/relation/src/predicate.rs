//! Row predicates: the boolean language used for conditions and UPDATE
//! `WHERE` clauses.
//!
//! A [`Predicate`] is a small boolean expression tree over attribute
//! comparisons. ChARLES's *condition* language (conjunctions of descriptors,
//! see `charles-core`) compiles into this representation for evaluation.

use crate::column::Column;
use crate::error::Result;
use crate::schema::AttrRef;
use crate::table::Table;
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operator for atomic predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering result.
    pub(crate) fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// Display symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "≠",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        }
    }
}

/// A boolean predicate over table rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (matches every row).
    True,
    /// Always false.
    False,
    /// `attr OP literal`; null attribute values never match.
    Cmp {
        /// Attribute handle (interned id when built by the engine; a bare
        /// name otherwise — both evaluate identically).
        attr: AttrRef,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// `attr ∈ {values}`.
    InSet {
        /// Attribute handle.
        attr: AttrRef,
        /// The allowed values (deduplicated, ordered for determinism).
        values: BTreeSet<Value>,
    },
    /// `lo ≤ attr < hi` (half-open interval, the canonical numeric bin).
    Between {
        /// Attribute handle.
        attr: AttrRef,
        /// Inclusive lower bound.
        lo: Value,
        /// Exclusive upper bound.
        hi: Value,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `attr = value`.
    pub fn eq(attr: impl Into<AttrRef>, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `attr OP value`.
    pub fn cmp(attr: impl Into<AttrRef>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            attr: attr.into(),
            op,
            value: value.into(),
        }
    }

    /// `attr ∈ set`.
    pub fn in_set<I, V>(attr: impl Into<AttrRef>, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Predicate::InSet {
            attr: attr.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// `lo ≤ attr < hi`.
    pub fn between(attr: impl Into<AttrRef>, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Predicate::Between {
            attr: attr.into(),
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Conjunction of two predicates, flattening nested `And`s.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Disjunction of two predicates, flattening nested `Or`s.
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::False, p) | (p, Predicate::False) => p,
            (Predicate::Or(mut a), Predicate::Or(b)) => {
                a.extend(b);
                Predicate::Or(a)
            }
            (Predicate::Or(mut a), p) => {
                a.push(p);
                Predicate::Or(a)
            }
            (p, Predicate::Or(mut b)) => {
                b.insert(0, p);
                Predicate::Or(b)
            }
            (a, b) => Predicate::Or(vec![a, b]),
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        match self {
            Predicate::True => Predicate::False,
            Predicate::False => Predicate::True,
            Predicate::Not(inner) => *inner,
            p => Predicate::Not(Box::new(p)),
        }
    }

    /// Resolve an attribute handle to a column: interned ids index
    /// directly (verified against the field name, so a handle resolved on
    /// an identically-shaped schema is accepted); otherwise one name
    /// lookup.
    fn column_of<'t>(table: &'t Table, attr: &AttrRef) -> Result<&'t Column> {
        if let Some(id) = attr.id() {
            if let Ok(field) = table.schema().field(id.index()) {
                if field.name() == attr.name() {
                    return Ok(table.column_by_id(id));
                }
            }
        }
        table.column_by_name(attr.name())
    }

    /// Evaluate against one row. Comparisons on null cells are false
    /// (three-valued logic collapsed, as in SQL `WHERE`).
    pub fn eval(&self, table: &Table, row: usize) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Cmp { attr, op, value } => {
                let cell = Self::column_of(table, attr)?.get(row);
                match op {
                    CmpOp::Eq => cell.sem_eq(value),
                    CmpOp::Ne => !cell.is_null() && !cell.sem_eq(value),
                    _ => cell.sem_cmp(value).is_some_and(|ord| op.test(ord)),
                }
            }
            Predicate::InSet { attr, values } => {
                let cell = Self::column_of(table, attr)?.get(row);
                !cell.is_null() && values.iter().any(|v| cell.sem_eq(v))
            }
            Predicate::Between { attr, lo, hi } => {
                let cell = Self::column_of(table, attr)?.get(row);
                cell.sem_cmp(lo).is_some_and(|o| o != Ordering::Less)
                    && cell.sem_cmp(hi).is_some_and(|o| o == Ordering::Less)
            }
            Predicate::And(parts) => {
                for p in parts {
                    if !p.eval(table, row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(parts) => {
                for p in parts {
                    if p.eval(table, row)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(inner) => !inner.eval(table, row)?,
        })
    }

    /// Evaluate against every row, producing a selection mask.
    ///
    /// Hot comparison shapes (string equality against a dictionary column,
    /// numeric comparisons, numeric ranges) are evaluated columnar-wise:
    /// string literals are resolved to dictionary codes **once** and rows
    /// compare integer codes or raw `f64`s — no per-row [`Value`]
    /// materialization. Everything else falls back to row-wise
    /// [`Predicate::eval`] with identical semantics.
    pub fn eval_mask(&self, table: &Table) -> Result<Vec<bool>> {
        let n = table.height();
        match self {
            Predicate::True => Ok(vec![true; n]),
            Predicate::False => Ok(vec![false; n]),
            Predicate::And(parts) => {
                let mut mask = vec![true; n];
                for p in parts {
                    let part = p.eval_mask(table)?;
                    for (m, v) in mask.iter_mut().zip(part) {
                        *m = *m && v;
                    }
                }
                Ok(mask)
            }
            Predicate::Or(parts) => {
                let mut mask = vec![false; n];
                for p in parts {
                    let part = p.eval_mask(table)?;
                    for (m, v) in mask.iter_mut().zip(part) {
                        *m = *m || v;
                    }
                }
                Ok(mask)
            }
            Predicate::Not(inner) => {
                let mut mask = inner.eval_mask(table)?;
                for m in &mut mask {
                    *m = !*m;
                }
                Ok(mask)
            }
            Predicate::Cmp { attr, op, value } => {
                let col = Self::column_of(table, attr)?;
                match Self::cmp_mask_columnar(col, *op, value) {
                    Some(mask) => Ok(mask),
                    None => self.eval_mask_rowwise(table),
                }
            }
            Predicate::Between { attr, lo, hi } => {
                let col = Self::column_of(table, attr)?;
                match (col, lo.as_f64(), hi.as_f64()) {
                    (Column::Int64 { .. } | Column::Float64 { .. }, Some(lo), Some(hi)) => {
                        Ok(Self::numeric_mask(col, |v| {
                            // Mirrors sem_cmp: f64 total order on both ends.
                            v.total_cmp(&lo) != Ordering::Less && v.total_cmp(&hi) == Ordering::Less
                        }))
                    }
                    // Compressed numeric plane: zone maps answer whole
                    // blocks; decoded blocks apply the identical total-order
                    // test, so the cleared mask matches the raw path
                    // bit-for-bit.
                    (Column::Compressed { data, .. }, Some(lo), Some(hi)) if data.is_numeric() => {
                        match data.between_mask(lo, hi) {
                            Some(mut mask) => {
                                Self::clear_nulls(col, &mut mask);
                                Ok(mask)
                            }
                            None => self.eval_mask_rowwise(table),
                        }
                    }
                    _ => self.eval_mask_rowwise(table),
                }
            }
            Predicate::InSet { attr, values } => {
                let col = Self::column_of(table, attr)?;
                if let Column::Utf8 { dict, codes, .. } = col {
                    if values.iter().all(|v| matches!(v, Value::Str(_))) {
                        // Resolve the whole set to codes once; membership is
                        // then an integer bitmap probe per row.
                        let mut member = vec![false; dict.len()];
                        for v in values {
                            if let Some(code) = v.as_str().and_then(|s| dict.code_of(s)) {
                                member[code as usize] = true;
                            }
                        }
                        // Null rows carry an un-interned sentinel code
                        // (possibly out of dictionary range): probe with
                        // `get`, and `clear_nulls` removes them anyway.
                        let mut mask: Vec<bool> = codes
                            .iter()
                            .map(|&c| member.get(c as usize).copied().unwrap_or(false))
                            .collect();
                        Self::clear_nulls(col, &mut mask);
                        return Ok(mask);
                    }
                }
                // Compressed string column: same membership-bitmap probe
                // over the decoded codes and the sealed pool.
                if let Column::Compressed { data, .. } = col {
                    if values.iter().all(|v| matches!(v, Value::Str(_))) {
                        if let (Some(Ok(dict)), Some(codes)) = (data.dict(), data.decode_codes()) {
                            let mut member = vec![false; dict.len()];
                            for v in values {
                                if let Some(code) = v.as_str().and_then(|s| dict.code_of(s)) {
                                    member[code as usize] = true;
                                }
                            }
                            let mut mask: Vec<bool> = codes
                                .iter()
                                .map(|&c| member.get(c as usize).copied().unwrap_or(false))
                                .collect();
                            Self::clear_nulls(col, &mut mask);
                            return Ok(mask);
                        }
                    }
                }
                self.eval_mask_rowwise(table)
            }
        }
    }

    /// Row-wise reference evaluation (the semantics the columnar path must
    /// reproduce exactly).
    fn eval_mask_rowwise(&self, table: &Table) -> Result<Vec<bool>> {
        let mut mask = Vec::with_capacity(table.height());
        for row in table.row_ids() {
            mask.push(self.eval(table, row)?);
        }
        Ok(mask)
    }

    /// Null rows never match; clear them in one pass.
    fn clear_nulls(col: &Column, mask: &mut [bool]) {
        if let Some(validity) = col.validity_mask() {
            for (m, &valid) in mask.iter_mut().zip(validity.iter()) {
                *m = *m && valid;
            }
        }
    }

    /// Columnar mask for numeric columns under an `f64` predicate,
    /// with nulls cleared.
    fn numeric_mask(col: &Column, pred: impl Fn(f64) -> bool) -> Vec<bool> {
        let mut mask: Vec<bool> = match col {
            Column::Int64 { values, .. } => values.iter().map(|&v| pred(v as f64)).collect(),
            Column::Float64 { values, .. } => values.iter().map(|&v| pred(v)).collect(),
            // lint:allow(no-panic-in-request-path: callers dispatch here only after dtype().is_numeric() — a non-numeric column is a dispatch bug, not an input condition)
            _ => unreachable!("numeric_mask on non-numeric column"),
        };
        Self::clear_nulls(col, &mut mask);
        mask
    }

    /// Columnar evaluation of one comparison, when the (column, literal)
    /// shape supports it. `None` means "use the row-wise path".
    fn cmp_mask_columnar(col: &Column, op: CmpOp, value: &Value) -> Option<Vec<bool>> {
        match (col, value) {
            // String equality against a dictionary column: one dictionary
            // probe, then integer comparisons. This is the single hottest
            // predicate shape in the ChARLES search (`edu = PhD`).
            (Column::Utf8 { dict, codes, .. }, Value::Str(s))
                if matches!(op, CmpOp::Eq | CmpOp::Ne) =>
            {
                let target = dict.code_of(s);
                let mut mask: Vec<bool> = match (op, target) {
                    (CmpOp::Eq, Some(code)) => codes.iter().map(|&c| c == code).collect(),
                    (CmpOp::Eq, None) => vec![false; codes.len()],
                    (CmpOp::Ne, Some(code)) => codes.iter().map(|&c| c != code).collect(),
                    (CmpOp::Ne, None) => vec![true; codes.len()],
                    // lint:allow(no-panic-in-request-path: the outer match arm is guarded to CmpOp::Eq | CmpOp::Ne)
                    _ => unreachable!("guarded to Eq/Ne above"),
                };
                Self::clear_nulls(col, &mut mask);
                Some(mask)
            }
            // Exact integer equality keeps i64 precision (sem_eq semantics).
            (Column::Int64 { values, .. }, Value::Int(lit)) if op == CmpOp::Eq => {
                let mut mask: Vec<bool> = values.iter().map(|&v| v == *lit).collect();
                Self::clear_nulls(col, &mut mask);
                Some(mask)
            }
            (Column::Int64 { values, .. }, Value::Int(lit)) if op == CmpOp::Ne => {
                let mut mask: Vec<bool> = values.iter().map(|&v| v != *lit).collect();
                Self::clear_nulls(col, &mut mask);
                Some(mask)
            }
            // Numeric columns against numeric literals: raw f64 loops.
            (Column::Int64 { .. } | Column::Float64 { .. }, Value::Int(_) | Value::Float(_)) => {
                let lit = value.as_f64()?;
                Some(match op {
                    // sem_eq compares with `==`; ordering uses total_cmp.
                    CmpOp::Eq => Self::numeric_mask(col, |v| v == lit),
                    CmpOp::Ne => Self::numeric_mask(col, |v| v != lit),
                    _ => Self::numeric_mask(col, |v| op.test(v.total_cmp(&lit))),
                })
            }
            // Compressed string equality: resolve the literal against the
            // sealed pool once, then classify whole blocks by code zones.
            (Column::Compressed { data, .. }, Value::Str(s))
                if matches!(op, CmpOp::Eq | CmpOp::Ne) =>
            {
                let target = match data.dict() {
                    Some(Ok(dict)) => dict.code_of(s),
                    _ => return None,
                };
                let mut mask = data.code_eq_mask(op, target)?;
                Self::clear_nulls(col, &mut mask);
                Some(mask)
            }
            // Compressed exact integer equality keeps i64 precision
            // (sem_eq semantics), pruned by exact i64 zone bounds.
            (Column::Compressed { data, .. }, Value::Int(lit))
                if matches!(op, CmpOp::Eq | CmpOp::Ne) && data.dtype() == DataType::Int64 =>
            {
                let mut mask = data.int_eq_mask(op, *lit)?;
                Self::clear_nulls(col, &mut mask);
                Some(mask)
            }
            // Compressed numeric comparisons: zone maps answer whole
            // blocks, decoded blocks apply the identical IEEE/total-order
            // tests — the cleared mask equals the raw loop bit-for-bit.
            (Column::Compressed { data, .. }, Value::Int(_) | Value::Float(_))
                if data.is_numeric() =>
            {
                let lit = value.as_f64()?;
                let mut mask = data.numeric_cmp_mask(op, lit)?;
                Self::clear_nulls(col, &mut mask);
                Some(mask)
            }
            _ => None,
        }
    }

    /// Row ids matching the predicate (columnar where possible).
    pub fn matching_rows(&self, table: &Table) -> Result<Vec<usize>> {
        let mask = self.eval_mask(table)?;
        Ok(mask
            .into_iter()
            .enumerate()
            .filter_map(|(i, m)| m.then_some(i))
            .collect())
    }

    /// Number of atomic comparisons — the paper's "descriptor count", used
    /// by the interpretability score (fewer descriptors = simpler).
    pub fn descriptor_count(&self) -> usize {
        match self {
            Predicate::True | Predicate::False => 0,
            Predicate::Cmp { .. } | Predicate::Between { .. } => 1,
            // A value set reads as one descriptor per listed value beyond
            // the first ("Asian, European Females, or ..." in the paper).
            Predicate::InSet { values, .. } => values.len().max(1),
            Predicate::And(parts) | Predicate::Or(parts) => {
                parts.iter().map(Predicate::descriptor_count).sum()
            }
            Predicate::Not(inner) => inner.descriptor_count(),
        }
    }

    /// Attribute names referenced by this predicate (sorted, deduplicated).
    pub fn attributes(&self) -> Vec<String> {
        let mut attrs = BTreeSet::new();
        self.collect_attrs(&mut attrs);
        attrs.into_iter().collect()
    }

    fn collect_attrs(&self, out: &mut BTreeSet<String>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Cmp { attr, .. }
            | Predicate::InSet { attr, .. }
            | Predicate::Between { attr, .. } => {
                out.insert(attr.name().to_string());
            }
            Predicate::And(parts) | Predicate::Or(parts) => {
                for p in parts {
                    p.collect_attrs(out);
                }
            }
            Predicate::Not(inner) => inner.collect_attrs(out),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("TRUE"),
            Predicate::False => f.write_str("FALSE"),
            Predicate::Cmp { attr, op, value } => {
                write!(f, "{attr} {} {value}", op.symbol())
            }
            Predicate::InSet { attr, values } => {
                write!(f, "{attr} ∈ {{")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
            Predicate::Between { attr, lo, hi } => {
                write!(f, "{lo} ≤ {attr} < {hi}")
            }
            Predicate::And(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∧ ")?;
                    }
                    if matches!(p, Predicate::Or(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Predicate::Or(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∨ ")?;
                    }
                    if matches!(p, Predicate::And(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Predicate::Not(inner) => write!(f, "¬({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;

    fn emp() -> Table {
        TableBuilder::new("emp")
            .str_col("edu", &["PhD", "MS", "MS", "BS"])
            .int_col("exp", &[2, 5, 1, 2])
            .float_col("salary", &[230_000.0, 160_000.0, 130_000.0, 110_000.0])
            .build()
            .unwrap()
    }

    #[test]
    fn eq_predicate() {
        let t = emp();
        let p = Predicate::eq("edu", "MS");
        assert_eq!(p.eval_mask(&t).unwrap(), vec![false, true, true, false]);
        assert_eq!(p.matching_rows(&t).unwrap(), vec![1, 2]);
    }

    #[test]
    fn all_null_string_column_matches_nothing() {
        // An all-null Utf8 column has an *empty* dictionary while its rows
        // carry the un-interned sentinel code — the columnar set/equality
        // paths must treat every row as a non-match, not index the
        // dictionary.
        use crate::schema::Schema;
        use crate::value::DataType;
        let schema = Schema::from_pairs([("s", DataType::Utf8)]).unwrap();
        let col = crate::column::Column::from_values(DataType::Utf8, &[Value::Null, Value::Null])
            .unwrap();
        let t = Table::new(schema, vec![col]).unwrap();
        for p in [
            Predicate::in_set("s", ["a"]),
            Predicate::eq("s", "a"),
            Predicate::cmp("s", CmpOp::Ne, "a"),
        ] {
            assert_eq!(p.eval_mask(&t).unwrap(), vec![false, false], "{p}");
            assert!(p.matching_rows(&t).unwrap().is_empty(), "{p}");
        }
    }

    #[test]
    fn ordering_predicates() {
        let t = emp();
        assert_eq!(
            Predicate::cmp("exp", CmpOp::Lt, 3).eval_mask(&t).unwrap(),
            vec![true, false, true, true]
        );
        assert_eq!(
            Predicate::cmp("exp", CmpOp::Ge, 2).eval_mask(&t).unwrap(),
            vec![true, true, false, true]
        );
        // Cross-type numeric comparison: Int column vs Float literal.
        assert_eq!(
            Predicate::cmp("exp", CmpOp::Gt, 1.5).eval_mask(&t).unwrap(),
            vec![true, true, false, true]
        );
    }

    #[test]
    fn set_and_range() {
        let t = emp();
        let p = Predicate::in_set("edu", ["PhD", "BS"]);
        assert_eq!(p.eval_mask(&t).unwrap(), vec![true, false, false, true]);
        let r = Predicate::between("salary", 120_000.0, 200_000.0);
        assert_eq!(r.eval_mask(&t).unwrap(), vec![false, true, true, false]);
    }

    #[test]
    fn boolean_combinators() {
        let t = emp();
        let ms_junior = Predicate::eq("edu", "MS").and(Predicate::cmp("exp", CmpOp::Lt, 3));
        assert_eq!(
            ms_junior.eval_mask(&t).unwrap(),
            vec![false, false, true, false]
        );
        let phd_or_bs = Predicate::eq("edu", "PhD").or(Predicate::eq("edu", "BS"));
        assert_eq!(
            phd_or_bs.eval_mask(&t).unwrap(),
            vec![true, false, false, true]
        );
        let not_ms = Predicate::eq("edu", "MS").not();
        assert_eq!(
            not_ms.eval_mask(&t).unwrap(),
            vec![true, false, false, true]
        );
    }

    #[test]
    fn identity_simplifications() {
        let p = Predicate::True.and(Predicate::eq("edu", "MS"));
        assert_eq!(p, Predicate::eq("edu", "MS"));
        let q = Predicate::False.or(Predicate::eq("edu", "MS"));
        assert_eq!(q, Predicate::eq("edu", "MS"));
        assert_eq!(Predicate::True.not(), Predicate::False);
        assert_eq!(Predicate::eq("a", 1).not().not(), Predicate::eq("a", 1));
    }

    #[test]
    fn and_flattens() {
        let p = Predicate::eq("a", 1)
            .and(Predicate::eq("b", 2))
            .and(Predicate::eq("c", 3));
        match &p {
            Predicate::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn descriptor_counts() {
        assert_eq!(Predicate::True.descriptor_count(), 0);
        assert_eq!(Predicate::eq("a", 1).descriptor_count(), 1);
        assert_eq!(
            Predicate::in_set("a", [1, 2, 3]).descriptor_count(),
            3,
            "value sets count one descriptor per value"
        );
        let conj = Predicate::eq("a", 1).and(Predicate::between("b", 0, 10));
        assert_eq!(conj.descriptor_count(), 2);
    }

    #[test]
    fn attribute_collection() {
        let p = Predicate::eq("edu", "MS")
            .and(Predicate::cmp("exp", CmpOp::Lt, 3))
            .or(Predicate::eq("edu", "BS"));
        assert_eq!(p.attributes(), vec!["edu".to_string(), "exp".to_string()]);
    }

    #[test]
    fn unknown_attribute_errors() {
        let t = emp();
        assert!(Predicate::eq("nope", 1).eval(&t, 0).is_err());
    }

    #[test]
    fn display_rendering() {
        assert_eq!(Predicate::eq("edu", "PhD").to_string(), "edu = PhD");
        assert_eq!(
            Predicate::eq("edu", "MS")
                .and(Predicate::cmp("exp", CmpOp::Lt, 3))
                .to_string(),
            "edu = MS ∧ exp < 3"
        );
        assert_eq!(Predicate::between("exp", 1, 3).to_string(), "1 ≤ exp < 3");
        assert_eq!(
            Predicate::in_set("edu", ["BS", "MS"]).to_string(),
            "edu ∈ {BS, MS}"
        );
    }

    #[test]
    fn null_never_matches() {
        use crate::value::{DataType, Value};
        let t = TableBuilder::new("t")
            .value_col("x", DataType::Float64, &[Value::Float(1.0), Value::Null])
            .unwrap()
            .build()
            .unwrap();
        for p in [
            Predicate::eq("x", 1.0),
            Predicate::cmp("x", CmpOp::Ne, 1.0),
            Predicate::cmp("x", CmpOp::Lt, 99.0),
            Predicate::in_set("x", [1.0]),
            Predicate::between("x", 0.0, 99.0),
        ] {
            assert!(!p.eval(&t, 1).unwrap(), "{p} matched null");
        }
    }
}
