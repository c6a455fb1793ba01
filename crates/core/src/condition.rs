//! The condition language: conjunctions of *descriptors*.
//!
//! A condition identifies a data partition ("employees with an MS and less
//! than 3 years of experience"). The paper's interpretability desiderata
//! apply directly here: fewer descriptors are simpler, round thresholds are
//! more normal, larger matched partitions cover more.

use charles_numerics::normality::roundness;
use charles_relation::{AttrId, AttrRef, CmpOp, Predicate, Table, Value};
use std::fmt;

/// One atomic statement about an attribute.
///
/// Attributes are carried as [`AttrRef`] handles: engine-built descriptors
/// hold interned ids, so compiling and evaluating the condition never hashes
/// an attribute name; descriptors built from bare strings (tests, external
/// callers) behave identically through the by-name fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum Descriptor {
    /// `attr = value` (categorical equality).
    Equals {
        /// Attribute handle.
        attr: AttrRef,
        /// Matched value.
        value: Value,
    },
    /// `attr ≠ value`.
    NotEquals {
        /// Attribute handle.
        attr: AttrRef,
        /// Excluded value.
        value: Value,
    },
    /// `attr ∈ {values}` (categorical membership).
    OneOf {
        /// Attribute handle.
        attr: AttrRef,
        /// Matched values (sorted).
        values: Vec<Value>,
    },
    /// `attr < threshold` (numeric).
    LessThan {
        /// Attribute handle.
        attr: AttrRef,
        /// Exclusive upper bound.
        threshold: f64,
    },
    /// `attr ≥ threshold` (numeric).
    AtLeast {
        /// Attribute handle.
        attr: AttrRef,
        /// Inclusive lower bound.
        threshold: f64,
    },
    /// `lo ≤ attr < hi` (numeric bin).
    InRange {
        /// Attribute handle.
        attr: AttrRef,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
}

impl Descriptor {
    /// The name of the attribute this descriptor constrains.
    pub fn attr(&self) -> &str {
        self.attr_ref().name()
    }

    /// The attribute handle this descriptor constrains.
    pub fn attr_ref(&self) -> &AttrRef {
        match self {
            Descriptor::Equals { attr, .. }
            | Descriptor::NotEquals { attr, .. }
            | Descriptor::OneOf { attr, .. }
            | Descriptor::LessThan { attr, .. }
            | Descriptor::AtLeast { attr, .. }
            | Descriptor::InRange { attr, .. } => attr,
        }
    }

    /// Compile to a relation-engine predicate.
    pub fn to_predicate(&self) -> Predicate {
        match self {
            Descriptor::Equals { attr, value } => Predicate::eq(attr.clone(), value.clone()),
            Descriptor::NotEquals { attr, value } => {
                Predicate::cmp(attr.clone(), CmpOp::Ne, value.clone())
            }
            Descriptor::OneOf { attr, values } => {
                Predicate::in_set(attr.clone(), values.iter().cloned())
            }
            Descriptor::LessThan { attr, threshold } => {
                Predicate::cmp(attr.clone(), CmpOp::Lt, *threshold)
            }
            Descriptor::AtLeast { attr, threshold } => {
                Predicate::cmp(attr.clone(), CmpOp::Ge, *threshold)
            }
            Descriptor::InRange { attr, lo, hi } => Predicate::between(attr.clone(), *lo, *hi),
        }
    }

    /// Descriptor count for interpretability (value sets count per value;
    /// a range reads as two comparisons).
    pub fn complexity(&self) -> usize {
        match self {
            Descriptor::OneOf { values, .. } => values.len().max(1),
            Descriptor::InRange { .. } => 2,
            _ => 1,
        }
    }

    /// Numeric constants appearing in this descriptor (for normality).
    pub fn constants(&self) -> Vec<f64> {
        match self {
            Descriptor::LessThan { threshold, .. } | Descriptor::AtLeast { threshold, .. } => {
                vec![*threshold]
            }
            Descriptor::InRange { lo, hi, .. } => vec![*lo, *hi],
            Descriptor::Equals { value, .. } | Descriptor::NotEquals { value, .. } => {
                value.as_f64().map_or_else(Vec::new, |v| vec![v])
            }
            Descriptor::OneOf { values, .. } => values.iter().filter_map(Value::as_f64).collect(),
        }
    }

    /// The logical complement of this descriptor (used when walking the
    /// "NO" branch of a split).
    pub fn negate(&self) -> Descriptor {
        match self {
            Descriptor::Equals { attr, value } => Descriptor::NotEquals {
                attr: attr.clone(),
                value: value.clone(),
            },
            Descriptor::NotEquals { attr, value } => Descriptor::Equals {
                attr: attr.clone(),
                value: value.clone(),
            },
            Descriptor::LessThan { attr, threshold } => Descriptor::AtLeast {
                attr: attr.clone(),
                threshold: *threshold,
            },
            Descriptor::AtLeast { attr, threshold } => Descriptor::LessThan {
                attr: attr.clone(),
                threshold: *threshold,
            },
            // Complements of set/range descriptors have no direct
            // single-descriptor form; fall back to NOT via predicate when
            // evaluating. For rendering we keep a OneOf/InRange negation as
            // a best effort: it is only produced internally.
            Descriptor::OneOf { attr, values } => Descriptor::NotEquals {
                attr: attr.clone(),
                value: values.first().cloned().unwrap_or(Value::Null),
            },
            Descriptor::InRange { attr, lo, .. } => Descriptor::LessThan {
                attr: attr.clone(),
                threshold: *lo,
            },
        }
    }
}

impl fmt::Display for Descriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Descriptor::Equals { attr, value } => write!(f, "{attr} = {value}"),
            Descriptor::NotEquals { attr, value } => write!(f, "{attr} ≠ {value}"),
            Descriptor::OneOf { attr, values } => {
                write!(f, "{attr} ∈ {{")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
            Descriptor::LessThan { attr, threshold } => {
                write!(f, "{attr} < {}", fmt_num(*threshold))
            }
            Descriptor::AtLeast { attr, threshold } => {
                write!(f, "{attr} ≥ {}", fmt_num(*threshold))
            }
            Descriptor::InRange { attr, lo, hi } => {
                write!(f, "{} ≤ {attr} < {}", fmt_num(*lo), fmt_num(*hi))
            }
        }
    }
}

/// Render a float without a trailing `.0` when integral.
pub(crate) fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A conjunction of descriptors identifying one data partition.
///
/// The empty conjunction is the universal condition ("all rows").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Condition {
    descriptors: Vec<Descriptor>,
}

impl Condition {
    /// The universal condition (matches every row).
    pub fn all() -> Self {
        Condition::default()
    }

    /// A condition from descriptors.
    pub fn new(descriptors: Vec<Descriptor>) -> Self {
        Condition { descriptors }
    }

    /// Extend with one more descriptor (consuming builder style).
    pub fn with(mut self, d: Descriptor) -> Self {
        self.descriptors.push(d);
        self
    }

    /// The descriptors in conjunction order.
    pub fn descriptors(&self) -> &[Descriptor] {
        &self.descriptors
    }

    /// Whether this is the universal condition.
    pub fn is_universal(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Compile to a relation predicate.
    pub fn to_predicate(&self) -> Predicate {
        self.descriptors
            .iter()
            .map(Descriptor::to_predicate)
            .fold(Predicate::True, Predicate::and)
    }

    /// Rows matching the condition.
    pub fn matching_rows(&self, table: &Table) -> charles_relation::Result<Vec<usize>> {
        self.to_predicate().matching_rows(table)
    }

    /// Total descriptor complexity (the paper's condition-simplicity
    /// input).
    pub fn complexity(&self) -> usize {
        self.descriptors.iter().map(Descriptor::complexity).sum()
    }

    /// Attributes referenced (sorted, deduplicated).
    pub fn attributes(&self) -> Vec<String> {
        let mut attrs: Vec<String> = self
            .descriptors
            .iter()
            .map(|d| d.attr().to_string())
            .collect();
        attrs.sort();
        attrs.dedup();
        attrs
    }

    /// Mean roundness of the numeric constants (1.0 when there are none).
    pub fn normality(&self) -> f64 {
        let constants: Vec<f64> = self
            .descriptors
            .iter()
            .flat_map(|d| d.constants())
            .collect();
        if constants.is_empty() {
            return 1.0;
        }
        // lint:allow(float-fold-order: interpretability roundness heuristic over a handful of constants)
        constants.iter().map(|&c| roundness(c)).sum::<f64>() / constants.len() as f64
    }

    /// A canonical key for deduplicating structurally identical conditions.
    pub fn signature(&self) -> String {
        let mut parts: Vec<String> = self.descriptors.iter().map(|d| d.to_string()).collect();
        parts.sort();
        parts.join(" ∧ ")
    }

    /// The structural identity of this condition over one table (`None`
    /// when an attribute handle is unresolved): equal keys select equal
    /// rows. Unlike [`Condition::signature`] it compares thresholds by
    /// their exact bits, not their rendering.
    pub(crate) fn key(&self) -> Option<ConditionKey> {
        let mut keys = self
            .descriptors
            .iter()
            .map(|d| {
                let id = d.attr_ref().id()?;
                Some(match d {
                    Descriptor::Equals { value, .. } => DescriptorKey::Equals(id, value.clone()),
                    Descriptor::NotEquals { value, .. } => {
                        DescriptorKey::NotEquals(id, value.clone())
                    }
                    Descriptor::OneOf { values, .. } => DescriptorKey::OneOf(id, values.clone()),
                    Descriptor::LessThan { threshold, .. } => {
                        DescriptorKey::LessThan(id, threshold.to_bits())
                    }
                    Descriptor::AtLeast { threshold, .. } => {
                        DescriptorKey::AtLeast(id, threshold.to_bits())
                    }
                    Descriptor::InRange { lo, hi, .. } => {
                        DescriptorKey::InRange(id, lo.to_bits(), hi.to_bits())
                    }
                })
            })
            .collect::<Option<Vec<_>>>()?;
        // A conjunction selects the same rows in any order.
        keys.sort();
        Some(ConditionKey(keys))
    }
}

/// See [`Condition::key`]: the condition's descriptors, sorted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ConditionKey(Vec<DescriptorKey>);

/// One descriptor by attribute id, variant, values, and threshold bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum DescriptorKey {
    Equals(AttrId, Value),
    NotEquals(AttrId, Value),
    OneOf(AttrId, Vec<Value>),
    LessThan(AttrId, u64),
    AtLeast(AttrId, u64),
    InRange(AttrId, u64, u64),
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.descriptors.is_empty() {
            return f.write_str("(all rows)");
        }
        for (i, d) in self.descriptors.iter().enumerate() {
            if i > 0 {
                f.write_str(" ∧ ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_relation::TableBuilder;

    fn emp() -> Table {
        TableBuilder::new("emp")
            .str_col("edu", &["PhD", "MS", "MS", "BS"])
            .int_col("exp", &[2, 5, 1, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn equals_descriptor_matches() {
        let c = Condition::all().with(Descriptor::Equals {
            attr: "edu".into(),
            value: Value::str("MS"),
        });
        assert_eq!(c.matching_rows(&emp()).unwrap(), vec![1, 2]);
        assert_eq!(c.to_string(), "edu = MS");
        assert_eq!(c.complexity(), 1);
    }

    #[test]
    fn conjunction_matches_paper_rule_r3() {
        // edu = MS ∧ exp < 3 (paper R3's condition)
        let c = Condition::new(vec![
            Descriptor::Equals {
                attr: "edu".into(),
                value: Value::str("MS"),
            },
            Descriptor::LessThan {
                attr: "exp".into(),
                threshold: 3.0,
            },
        ]);
        assert_eq!(c.matching_rows(&emp()).unwrap(), vec![2]);
        assert_eq!(c.to_string(), "edu = MS ∧ exp < 3");
        assert_eq!(c.complexity(), 2);
        assert_eq!(c.attributes(), vec!["edu".to_string(), "exp".to_string()]);
    }

    #[test]
    fn universal_condition() {
        let c = Condition::all();
        assert!(c.is_universal());
        assert_eq!(c.matching_rows(&emp()).unwrap().len(), 4);
        assert_eq!(c.to_string(), "(all rows)");
        assert_eq!(c.complexity(), 0);
        assert_eq!(c.normality(), 1.0);
    }

    #[test]
    fn range_and_set_descriptors() {
        let r = Descriptor::InRange {
            attr: "exp".into(),
            lo: 1.0,
            hi: 3.0,
        };
        assert_eq!(r.to_string(), "1 ≤ exp < 3");
        assert_eq!(r.constants(), vec![1.0, 3.0]);
        let s = Descriptor::OneOf {
            attr: "edu".into(),
            values: vec![Value::str("BS"), Value::str("MS")],
        };
        assert_eq!(s.complexity(), 2);
        let c = Condition::new(vec![s]);
        assert_eq!(c.matching_rows(&emp()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn normality_prefers_round_thresholds() {
        let round = Condition::all().with(Descriptor::LessThan {
            attr: "exp".into(),
            threshold: 3.0,
        });
        let ragged = Condition::all().with(Descriptor::LessThan {
            attr: "exp".into(),
            threshold: 2.7963,
        });
        assert!(round.normality() > ragged.normality());
    }

    #[test]
    fn negation_pairs() {
        let d = Descriptor::Equals {
            attr: "edu".into(),
            value: Value::str("PhD"),
        };
        let n = d.negate();
        assert_eq!(n.to_string(), "edu ≠ PhD");
        assert_eq!(n.negate(), d);
        let lt = Descriptor::LessThan {
            attr: "exp".into(),
            threshold: 3.0,
        };
        assert_eq!(lt.negate().to_string(), "exp ≥ 3");
        // Negated equality excludes matches on the table.
        let c = Condition::all().with(n);
        assert_eq!(c.matching_rows(&emp()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn signature_is_order_invariant() {
        let a = Condition::new(vec![
            Descriptor::Equals {
                attr: "edu".into(),
                value: Value::str("MS"),
            },
            Descriptor::LessThan {
                attr: "exp".into(),
                threshold: 3.0,
            },
        ]);
        let b = Condition::new(vec![
            Descriptor::LessThan {
                attr: "exp".into(),
                threshold: 3.0,
            },
            Descriptor::Equals {
                attr: "edu".into(),
                value: Value::str("MS"),
            },
        ]);
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn fmt_num_trims_integers() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(2.5), "2.5");
        assert_eq!(fmt_num(-1000.0), "-1000");
    }
}
