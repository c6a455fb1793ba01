//! Transformations: how a partition's target values evolved.
//!
//! A [`Transformation`] is the right-hand side of a conditional
//! transformation — either *no change*, or a linear model over the source
//! snapshot's attribute values:
//! `new_target = intercept + Σ coef_i × old_attr_i`.

use crate::condition::fmt_num;
use charles_numerics::kernels;
use charles_numerics::normality::roundness;
use charles_relation::{AttrRef, Expr, Table};
use std::fmt;

/// One term of a linear transformation: `coefficient × attribute`.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// Source-snapshot attribute the term reads. Engine-built terms carry
    /// an interned id, so applying the transformation in the search hot
    /// path never hashes the attribute name.
    pub attr: AttrRef,
    /// Multiplicative coefficient.
    pub coefficient: f64,
}

/// A transformation over one data partition.
#[derive(Debug, Clone, PartialEq)]
pub enum Transformation {
    /// The target attribute did not change in this partition.
    Identity,
    /// `new = intercept + Σ term_i` over *source* values.
    Linear {
        /// Name of the target attribute being rewritten (display only).
        target: String,
        /// Linear terms (zero-coefficient terms are dropped at build time).
        terms: Vec<Term>,
        /// Additive intercept.
        intercept: f64,
    },
}

impl Transformation {
    /// Build a linear transformation, dropping negligible terms.
    ///
    /// A term whose coefficient is exactly 0.0 carries no information and
    /// would only pollute rendering and complexity scoring.
    pub fn linear(target: impl Into<String>, terms: Vec<Term>, intercept: f64) -> Self {
        let kept: Vec<Term> = terms.into_iter().filter(|t| t.coefficient != 0.0).collect();
        Transformation::Linear {
            target: target.into(),
            terms: kept,
            intercept,
        }
    }

    /// Whether this is the identity ("no change") transformation.
    pub fn is_identity(&self) -> bool {
        matches!(self, Transformation::Identity)
    }

    /// Predicted target values for `rows` of the *source* snapshot.
    ///
    /// `target_attr` is the attribute the transformation rewrites; identity
    /// transformations return its current (source) values.
    ///
    /// Each attribute resolves to its dense [`charles_relation::NumericView`]
    /// **once per call**, and values read straight off the column slice —
    /// no per-row `get_f64` dispatch. Columns that cannot expose a view
    /// (nulls, non-numeric) fall back to the per-row path, whose
    /// null/non-numeric errors are unchanged.
    pub fn apply(
        &self,
        source: &Table,
        target_attr: &str,
        rows: &[usize],
    ) -> charles_relation::Result<Vec<f64>> {
        match self {
            Transformation::Identity => {
                let col = source.column_by_name(target_attr)?;
                if let Ok(view) = col.numeric_view(target_attr) {
                    return Ok(view.gather(rows));
                }
                let mut out = Vec::with_capacity(rows.len());
                for &r in rows {
                    out.push(col.get_f64(r).ok_or_else(|| {
                        charles_relation::RelationError::Eval(format!(
                            "target {target_attr:?} null/non-numeric at row {r}"
                        ))
                    })?);
                }
                Ok(out)
            }
            Transformation::Linear {
                terms, intercept, ..
            } => {
                let mut out = vec![*intercept; rows.len()];
                for term in terms {
                    let col = source.column_by_name(term.attr.name())?;
                    match col.numeric_view(term.attr.name()) {
                        Ok(view) if view.covers_all_rows(rows) => {
                            kernels::axpy(&mut out, term.coefficient, view.as_slice());
                        }
                        Ok(view) => {
                            let s = view.as_slice();
                            for (o, &r) in out.iter_mut().zip(rows.iter()) {
                                *o += term.coefficient * s[r];
                            }
                        }
                        Err(_) => {
                            for (o, &r) in out.iter_mut().zip(rows.iter()) {
                                let v = col.get_f64(r).ok_or_else(|| {
                                    charles_relation::RelationError::Eval(format!(
                                        "attribute {:?} null/non-numeric at row {r}",
                                        term.attr
                                    ))
                                })?;
                                *o += term.coefficient * v;
                            }
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// Number of variables in the model (the paper's transformation
    /// simplicity input; identity = 0).
    pub fn complexity(&self) -> usize {
        match self {
            Transformation::Identity => 0,
            Transformation::Linear { terms, .. } => terms.len(),
        }
    }

    /// Numeric constants for normality scoring (coefficients + non-zero
    /// intercept).
    pub fn constants(&self) -> Vec<f64> {
        match self {
            Transformation::Identity => Vec::new(),
            Transformation::Linear {
                terms, intercept, ..
            } => {
                let mut cs: Vec<f64> = terms.iter().map(|t| t.coefficient).collect();
                if *intercept != 0.0 {
                    cs.push(*intercept);
                }
                cs
            }
        }
    }

    /// Mean roundness of constants (1.0 for identity).
    pub fn normality(&self) -> f64 {
        let cs = self.constants();
        if cs.is_empty() {
            return 1.0;
        }
        // lint:allow(float-fold-order: interpretability roundness heuristic over a handful of constants)
        cs.iter().map(|&c| roundness(c)).sum::<f64>() / cs.len() as f64
    }

    /// Attributes read by the transformation (sorted).
    pub fn attributes(&self) -> Vec<String> {
        match self {
            Transformation::Identity => Vec::new(),
            Transformation::Linear { terms, .. } => {
                let mut attrs: Vec<String> =
                    terms.iter().map(|t| t.attr.name().to_string()).collect();
                attrs.sort();
                attrs.dedup();
                attrs
            }
        }
    }

    /// Convert to a relation-engine expression (`None` for identity).
    pub fn to_expr(&self) -> Option<Expr> {
        match self {
            Transformation::Identity => None,
            Transformation::Linear {
                terms, intercept, ..
            } => {
                let mut expr: Option<Expr> = None;
                for t in terms {
                    let term = Expr::lit(t.coefficient).mul(Expr::col(t.attr.name().to_string()));
                    expr = Some(match expr {
                        None => term,
                        Some(e) => e.add(term),
                    });
                }
                let base = expr.unwrap_or(Expr::lit(0.0));
                Some(if *intercept == 0.0 {
                    base
                } else {
                    base.add(Expr::lit(*intercept))
                })
            }
        }
    }

    /// Canonical key for deduplication.
    pub fn signature(&self) -> String {
        match self {
            Transformation::Identity => "identity".to_string(),
            Transformation::Linear {
                terms, intercept, ..
            } => {
                let mut parts: Vec<String> = terms
                    .iter()
                    .map(|t| format!("{:.9}×{}", t.coefficient, t.attr))
                    .collect();
                parts.sort();
                format!("{} + {:.9}", parts.join(" + "), intercept)
            }
        }
    }
}

impl fmt::Display for Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transformation::Identity => f.write_str("no change"),
            Transformation::Linear {
                target,
                terms,
                intercept,
            } => {
                write!(f, "new_{target} = ")?;
                if terms.is_empty() {
                    return write!(f, "{}", fmt_num(*intercept));
                }
                for (i, t) in terms.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" + ")?;
                    }
                    write!(f, "{} × old_{}", fmt_num(t.coefficient), t.attr)?;
                }
                if *intercept != 0.0 {
                    if *intercept > 0.0 {
                        write!(f, " + {}", fmt_num(*intercept))?;
                    } else {
                        write!(f, " - {}", fmt_num(-*intercept))?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_relation::TableBuilder;

    fn emp() -> Table {
        TableBuilder::new("emp")
            .float_col("bonus", &[23_000.0, 16_000.0, 13_000.0])
            .float_col("salary", &[230_000.0, 160_000.0, 130_000.0])
            .build()
            .unwrap()
    }

    fn r1() -> Transformation {
        Transformation::linear(
            "bonus",
            vec![Term {
                attr: "bonus".into(),
                coefficient: 1.05,
            }],
            1000.0,
        )
    }

    #[test]
    fn renders_like_the_paper() {
        assert_eq!(r1().to_string(), "new_bonus = 1.05 × old_bonus + 1000");
        assert_eq!(Transformation::Identity.to_string(), "no change");
        let neg = Transformation::linear(
            "bonus",
            vec![Term {
                attr: "salary".into(),
                coefficient: 0.1,
            }],
            -500.0,
        );
        assert_eq!(neg.to_string(), "new_bonus = 0.1 × old_salary - 500");
    }

    #[test]
    fn apply_linear() {
        let out = r1().apply(&emp(), "bonus", &[0, 2]).unwrap();
        assert_eq!(
            out,
            vec![1.05 * 23_000.0 + 1000.0, 1.05 * 13_000.0 + 1000.0]
        );
    }

    #[test]
    fn apply_identity_returns_source_values() {
        let out = Transformation::Identity
            .apply(&emp(), "bonus", &[1])
            .unwrap();
        assert_eq!(out, vec![16_000.0]);
    }

    #[test]
    fn complexity_and_constants() {
        assert_eq!(Transformation::Identity.complexity(), 0);
        assert_eq!(r1().complexity(), 1);
        assert_eq!(r1().constants(), vec![1.05, 1000.0]);
        // Zero intercept omitted from constants.
        let t = Transformation::linear(
            "b",
            vec![Term {
                attr: "x".into(),
                coefficient: 2.0,
            }],
            0.0,
        );
        assert_eq!(t.constants(), vec![2.0]);
    }

    #[test]
    fn zero_coefficient_terms_dropped() {
        let t = Transformation::linear(
            "b",
            vec![
                Term {
                    attr: "x".into(),
                    coefficient: 0.0,
                },
                Term {
                    attr: "y".into(),
                    coefficient: 1.0,
                },
            ],
            0.0,
        );
        assert_eq!(t.complexity(), 1);
        assert_eq!(t.attributes(), vec!["y".to_string()]);
    }

    #[test]
    fn normality_prefers_round_coefficients() {
        let round = r1();
        let ragged = Transformation::linear(
            "bonus",
            vec![Term {
                attr: "bonus".into(),
                coefficient: 1.049_713,
            }],
            997.23,
        );
        assert!(round.normality() > ragged.normality());
        assert_eq!(Transformation::Identity.normality(), 1.0);
    }

    #[test]
    fn to_expr_roundtrip() {
        let expr = r1().to_expr().unwrap();
        assert_eq!(expr.eval(&emp(), 0).unwrap(), 1.05 * 23_000.0 + 1000.0);
        assert!(Transformation::Identity.to_expr().is_none());
        // Constant-only transformation.
        let c = Transformation::linear("b", vec![], 42.0);
        assert_eq!(c.to_expr().unwrap().eval(&emp(), 0).unwrap(), 42.0);
    }

    #[test]
    fn signatures_dedupe() {
        assert_eq!(r1().signature(), r1().signature());
        assert_ne!(r1().signature(), Transformation::Identity.signature());
        // Term order must not matter.
        let a = Transformation::linear(
            "b",
            vec![
                Term {
                    attr: "x".into(),
                    coefficient: 1.0,
                },
                Term {
                    attr: "y".into(),
                    coefficient: 2.0,
                },
            ],
            0.0,
        );
        let b = Transformation::linear(
            "b",
            vec![
                Term {
                    attr: "y".into(),
                    coefficient: 2.0,
                },
                Term {
                    attr: "x".into(),
                    coefficient: 1.0,
                },
            ],
            0.0,
        );
        assert_eq!(a.signature(), b.signature());
    }
}
