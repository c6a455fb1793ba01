//! Montgomery-County-style payroll scenario (paper Section 3).
//!
//! The demonstration dataset \[5\] is the public salary file of Montgomery
//! County, MD: *"all active, permanent employees ... over 8 attributes,
//! including Department, Department Name, Division, Gender, Base Salary,
//! Overtime Pay, Longevity Pay, and Grade"*. The real file is not
//! redistributable offline, so this generator produces a statistically
//! analogous population with exactly that schema, then evolves
//! `base_salary` with a department/grade-structured pay policy (modeled on
//! how county pay plans actually work: general COLA plus targeted uplifts
//! for public-safety unions and senior grades).

use crate::names::entity_names;
use crate::policy::{Policy, PolicyRule, Scenario};
use charles_relation::{CmpOp, Expr, Predicate, RelationError, Table, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Departments: (code, full name, division pool, salary base).
const DEPARTMENTS: [(&str, &str, [&str; 3], f64); 6] = [
    (
        "POL",
        "Department of Police",
        [
            "Patrol Services",
            "Investigative Services",
            "Management Services",
        ],
        72_000.0,
    ),
    (
        "FRS",
        "Fire and Rescue Service",
        ["Operations", "Fire Prevention", "Emergency Communications"],
        68_000.0,
    ),
    (
        "HHS",
        "Department of Health and Human Services",
        [
            "Public Health",
            "Children Youth and Families",
            "Aging and Disability",
        ],
        58_000.0,
    ),
    (
        "DOT",
        "Department of Transportation",
        ["Highway Services", "Transit Services", "Parking Management"],
        55_000.0,
    ),
    (
        "LIB",
        "Public Libraries",
        [
            "Branch Operations",
            "Collection Management",
            "Administration",
        ],
        48_000.0,
    ),
    (
        "FIN",
        "Department of Finance",
        ["Treasury", "Controller", "Risk Management"],
        62_000.0,
    ),
];

/// Generate the source payroll table (`n` employees, deterministic per
/// seed). Schema: name (key), department, department_name, division,
/// gender, grade, base_salary, overtime_pay, longevity_pay.
pub fn county_table(n: usize, seed: u64) -> Result<Table, RelationError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = entity_names(n);
    let mut department = Vec::with_capacity(n);
    let mut department_name = Vec::with_capacity(n);
    let mut division = Vec::with_capacity(n);
    let mut gender = Vec::with_capacity(n);
    let mut grade = Vec::with_capacity(n);
    let mut base_salary = Vec::with_capacity(n);
    let mut overtime_pay = Vec::with_capacity(n);
    let mut longevity_pay = Vec::with_capacity(n);
    for _ in 0..n {
        let (code, full, divisions, base) = DEPARTMENTS[rng.gen_range(0..DEPARTMENTS.len())];
        let grade_num: i64 = rng.gen_range(12..=30);
        // Salary grows ~4% per grade step with modest noise; rounded to
        // dollars like the real payroll file.
        let salary = (base * 1.04f64.powi((grade_num - 12) as i32)
            + rng.gen_range(-2_000.0..2_000.0))
        .round();
        // Public-safety departments accrue far more overtime.
        let ot_scale = if code == "POL" || code == "FRS" {
            0.18
        } else {
            0.04
        };
        let overtime = (salary * ot_scale * rng.gen_range(0.0..2.0)).round();
        // Longevity pay: service-step bonus after 10 years. Service is a
        // latent variable (not in the schema), so longevity is *noisy*
        // with respect to the published attributes — the real file behaves
        // the same way, and it keeps the pay policy identifiable (no
        // deterministic combination of columns can impersonate the grade
        // rule).
        let service: i64 = rng.gen_range(0..=30);
        let longevity = if service >= 10 {
            (service as f64 * 120.0).round()
        } else {
            0.0
        };
        department.push(code);
        department_name.push(full);
        division.push(divisions[rng.gen_range(0..divisions.len())]);
        gender.push(if rng.gen_bool(0.45) { "F" } else { "M" });
        grade.push(grade_num);
        base_salary.push(salary);
        overtime_pay.push(overtime);
        longevity_pay.push(longevity);
    }
    TableBuilder::new(format!("county-payroll-{n}"))
        .str_col("name", &names)
        .str_col("department", &department)
        .str_col("department_name", &department_name)
        .str_col("division", &division)
        .str_col("gender", &gender)
        .int_col("grade", &grade)
        .float_col("base_salary", &base_salary)
        .float_col("overtime_pay", &overtime_pay)
        .float_col("longevity_pay", &longevity_pay)
        .key("name")
        .build()
}

/// The latent FY pay policy used for the county scenario:
/// - police officers get 4% + $1500 (union agreement),
/// - fire & rescue get 3.5% + $1000,
/// - senior grades (≥ 24) elsewhere get 3%,
/// - everyone else gets a flat 2% COLA.
pub fn county_policy() -> Policy {
    Policy::new(
        "base_salary",
        vec![
            PolicyRule::update(
                "POL: 4% + $1500",
                Predicate::eq("department", "POL"),
                Expr::affine("base_salary", 1.04, 1500.0),
            ),
            PolicyRule::update(
                "FRS: 3.5% + $1000",
                Predicate::eq("department", "FRS"),
                Expr::affine("base_salary", 1.035, 1000.0),
            ),
            PolicyRule::update(
                "grade ≥ 24: 3%",
                Predicate::cmp("grade", CmpOp::Ge, 24),
                Expr::affine("base_salary", 1.03, 0.0),
            ),
            PolicyRule::update(
                "COLA 2%",
                Predicate::True,
                Expr::affine("base_salary", 1.02, 0.0),
            ),
        ],
    )
}

/// The full county scenario: payroll evolved by [`county_policy`].
pub fn county(n: usize, seed: u64) -> Scenario {
    let source = county_table(n, seed).expect("generated payroll is well-formed");
    Scenario::evolve(format!("county-{n}"), source, county_policy())
        .expect("county policy applies cleanly")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_paper_description() {
        let t = county_table(50, 1).unwrap();
        let names = t.schema().names();
        for attr in [
            "department",
            "department_name",
            "division",
            "gender",
            "grade",
            "base_salary",
            "overtime_pay",
            "longevity_pay",
        ] {
            assert!(names.contains(&attr), "missing {attr}");
        }
        assert_eq!(t.width(), 9); // 8 data attributes + key
    }

    #[test]
    fn department_name_consistent_with_code() {
        let t = county_table(300, 2).unwrap();
        for r in 0..t.height() {
            let code = t.value(r, "department").unwrap();
            let full = t.value(r, "department_name").unwrap();
            let expected = DEPARTMENTS
                .iter()
                .find(|(c, ..)| *c == code.as_str().unwrap())
                .unwrap()
                .1;
            assert_eq!(full.as_str().unwrap(), expected);
        }
    }

    #[test]
    fn policy_respected() {
        let s = county(400, 3);
        for r in 0..s.len() {
            let dept = s.source.value(r, "department").unwrap();
            let grade = s.source.value(r, "grade").unwrap().as_i64().unwrap();
            let old = s.source.value(r, "base_salary").unwrap().as_f64().unwrap();
            let new = s.target.value(r, "base_salary").unwrap().as_f64().unwrap();
            let want = match dept.as_str().unwrap() {
                "POL" => 1.04 * old + 1500.0,
                "FRS" => 1.035 * old + 1000.0,
                _ if grade >= 24 => 1.03 * old,
                _ => 1.02 * old,
            };
            assert!((new - want).abs() < 1e-6, "row {r}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert!(county_table(80, 9)
            .unwrap()
            .content_eq(&county_table(80, 9).unwrap()));
    }

    #[test]
    fn longevity_is_stepwise_and_not_salary_determined() {
        let t = county_table(500, 4).unwrap();
        let longevity = t.numeric("longevity_pay").unwrap();
        // Mix of zero (service < 10) and positive step values.
        assert!(longevity.contains(&0.0));
        assert!(longevity.iter().any(|&l| l > 0.0));
        // All positive values are multiples of the $120 service step.
        for &l in longevity.iter().filter(|&&l| l > 0.0) {
            assert_eq!(l % 120.0, 0.0, "longevity {l}");
        }
        // Not a function of salary: same salary band, different longevity.
        let corr = charles_numerics::pearson(&t.numeric("base_salary").unwrap(), &longevity)
            .unwrap()
            .abs();
        assert!(corr < 0.5, "longevity correlates with salary: {corr}");
    }
}
