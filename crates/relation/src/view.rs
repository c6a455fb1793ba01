//! Zero-copy column views — the shared data plane under the ChARLES search.
//!
//! The candidate search evaluates thousands of `(C, T, k)` triples against
//! the *same* source snapshot, from many worker threads at once. Views make
//! that cheap: a [`NumericView`] or [`CodesView`] is a couple of
//! `Arc` pointers into the column's own storage, so extraction happens once
//! per run and every reader — on any thread — scans the identical buffers.
//! Cloning a view never copies data, and every view covers its whole
//! buffer.
//!
//! [`CodeGroups`] is the group-by companion: rows grouped directly by
//! dictionary code, with no string materialization or hashing in the loop.

use crate::column::StrDict;
use std::ops::Deref;
use std::sync::Arc;

/// A dense, null-free `f64` view of a column, shared via `Arc`.
///
/// Dereferences to `&[f64]`, so it drops into any slice-based numeric code.
#[derive(Debug, Clone)]
pub struct NumericView {
    values: Arc<Vec<f64>>,
}

impl NumericView {
    /// Wrap freshly computed values.
    pub fn new(values: Vec<f64>) -> Self {
        NumericView::from_arc(Arc::new(values))
    }

    /// Share an existing buffer (zero-copy).
    pub fn from_arc(values: Arc<Vec<f64>>) -> Self {
        NumericView { values }
    }

    /// The underlying shared buffer (for aliasing checks and re-wrapping).
    pub fn shared(&self) -> &Arc<Vec<f64>> {
        &self.values
    }

    /// The values as a plain slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Gather the values at `rows` into a fresh vector — one dense indexed
    /// pass over the slice, no per-row column dispatch. Panics if any index
    /// is out of range, like slice indexing.
    pub fn gather(&self, rows: &[usize]) -> Vec<f64> {
        let s = self.as_slice();
        rows.iter().map(|&r| s[r]).collect()
    }

    /// Whether `rows` is exactly the identity selection `0..len` of this
    /// view — the common full-coverage case where callers can skip
    /// gathering and read [`NumericView::as_slice`] directly.
    pub fn covers_all_rows(&self, rows: &[usize]) -> bool {
        rows.len() == self.values.len() && rows.iter().enumerate().all(|(i, &r)| r == i)
    }
}

impl Deref for NumericView {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl From<Vec<f64>> for NumericView {
    fn from(values: Vec<f64>) -> Self {
        NumericView::new(values)
    }
}

/// A zero-copy view of a dictionary-encoded string column: shared
/// dictionary, shared per-row codes, shared validity.
#[derive(Debug, Clone)]
pub struct CodesView {
    dict: Arc<StrDict>,
    codes: Arc<Vec<u32>>,
    validity: Option<Arc<Vec<bool>>>,
}

impl CodesView {
    /// Assemble from shared parts (used by `Column::codes_view`).
    pub fn new(dict: Arc<StrDict>, codes: Arc<Vec<u32>>, validity: Option<Arc<Vec<bool>>>) -> Self {
        CodesView {
            dict,
            codes,
            validity,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The dictionary code at row `i`, or `None` for a null.
    pub fn code(&self, i: usize) -> Option<u32> {
        match &self.validity {
            Some(mask) if !mask[i] => None,
            _ => Some(self.codes[i]),
        }
    }

    /// The raw code buffer (entries at null rows are meaningless).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Resolve a code to its string.
    pub fn resolve(&self, code: u32) -> &str {
        self.dict.resolve(code)
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &StrDict {
        &self.dict
    }

    /// Number of distinct strings in the dictionary (an upper bound on the
    /// column's cardinality).
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Group the rows by dictionary code; see [`CodeGroups::from_codes`].
    pub fn group_codes(&self) -> CodeGroups {
        CodeGroups::from_codes(
            &self.codes,
            self.dict.len(),
            self.validity.as_deref().map(Vec::as_slice),
        )
    }
}

/// A typed zero-copy view of one column.
#[derive(Debug, Clone)]
pub enum ColumnView {
    /// Dense numeric values (numeric and boolean columns).
    Numeric(NumericView),
    /// Dictionary codes (string columns).
    Codes(CodesView),
}

impl ColumnView {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnView::Numeric(v) => v.as_slice().len(),
            ColumnView::Codes(v) => v.len(),
        }
    }

    /// Whether the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The numeric view, if this is one.
    pub fn as_numeric(&self) -> Option<&NumericView> {
        match self {
            ColumnView::Numeric(v) => Some(v),
            ColumnView::Codes(_) => None,
        }
    }

    /// The codes view, if this is one.
    pub fn as_codes(&self) -> Option<&CodesView> {
        match self {
            ColumnView::Codes(v) => Some(v),
            ColumnView::Numeric(_) => None,
        }
    }
}

/// Rows grouped by dictionary code — the integer-keyed replacement for
/// `HashMap<String, Vec<usize>>` group-bys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeGroups {
    /// Per-row dense group label (0-based, in order of first appearance).
    pub labels: Vec<usize>,
    /// One entry per distinct group, in order of first appearance: the
    /// dictionary code (`None` for the null group) and its rows in row
    /// order.
    pub groups: Vec<(Option<u32>, Vec<usize>)>,
}

impl CodeGroups {
    /// Group `codes` (with `n_codes` possible distinct codes) by value.
    /// Rows where `validity` is false form a single null group. Runs in
    /// O(rows + n_codes) with no hashing.
    pub fn from_codes(codes: &[u32], n_codes: usize, validity: Option<&[bool]>) -> Self {
        const UNSEEN: usize = usize::MAX;
        let mut slot_of_code = vec![UNSEEN; n_codes];
        let mut null_slot = UNSEEN;
        let mut labels = Vec::with_capacity(codes.len());
        let mut groups: Vec<(Option<u32>, Vec<usize>)> = Vec::new();
        for (row, &code) in codes.iter().enumerate() {
            let valid = validity.is_none_or(|m| m[row]);
            let slot = if valid {
                let slot = &mut slot_of_code[code as usize];
                if *slot == UNSEEN {
                    *slot = groups.len();
                    groups.push((Some(code), Vec::new()));
                }
                *slot
            } else {
                if null_slot == UNSEEN {
                    null_slot = groups.len();
                    groups.push((None, Vec::new()));
                }
                null_slot
            };
            groups[slot].1.push(row);
            labels.push(slot);
        }
        CodeGroups { labels, groups }
    }

    /// Number of distinct groups (including the null group, if present).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether any row was null.
    pub fn has_null_group(&self) -> bool {
        self.groups.iter().any(|(code, _)| code.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::Value;

    #[test]
    fn numeric_view_derefs_to_slice() {
        let view = NumericView::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(view.len(), 3);
        assert_eq!(view.iter().sum::<f64>(), 6.0);
        assert_eq!(view.as_slice(), &[1.0, 2.0, 3.0]);
        let from: NumericView = vec![4.0].into();
        assert_eq!(&*from, &[4.0]);
    }

    #[test]
    fn codes_view_roundtrip() {
        let mut col = Column::from_strs(&["x", "y", "x"]);
        col.push(Value::Null).unwrap();
        let view = col.codes_view().unwrap();
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
        assert_eq!(view.code(0), view.code(2));
        assert_ne!(view.code(0), view.code(1));
        assert_eq!(view.code(3), None);
        assert_eq!(view.resolve(view.code(1).unwrap()), "y");
        assert_eq!(view.dict_len(), 2);
        // Grouping through the view matches grouping through the column.
        assert_eq!(view.group_codes(), col.group_codes().unwrap());
    }

    #[test]
    fn column_view_dispatch() {
        let num = Column::from_f64(vec![1.0]).view("n").unwrap();
        assert!(num.as_numeric().is_some());
        assert!(num.as_codes().is_none());
        assert_eq!(num.len(), 1);
        let cat = Column::from_strs(&["a"]).view("c").unwrap();
        assert!(cat.as_codes().is_some());
        assert!(cat.as_numeric().is_none());
    }

    #[test]
    fn code_groups_dense_and_ordered() {
        let groups = CodeGroups::from_codes(&[2, 0, 2, 1, 0], 3, None);
        assert_eq!(groups.n_groups(), 3);
        assert_eq!(groups.labels, vec![0, 1, 0, 2, 1]);
        assert_eq!(groups.groups[0], (Some(2), vec![0, 2]));
        assert_eq!(groups.groups[1], (Some(0), vec![1, 4]));
        assert_eq!(groups.groups[2], (Some(1), vec![3]));
        assert!(!groups.has_null_group());
        let with_null = CodeGroups::from_codes(&[0, 0, 1], 2, Some(&[true, false, true]));
        assert!(with_null.has_null_group());
        assert_eq!(with_null.n_groups(), 3);
    }
}
