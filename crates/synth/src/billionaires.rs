//! Forbes-billionaires-style scenario (the paper's "additional datasets"
//! reference \[2\]).
//!
//! The real Forbes list is not redistributable; this generator produces an
//! analogous wealth table (rank, name, net worth, age, country, industry)
//! and evolves `net_worth` with an industry-structured market policy —
//! the kind of latent semantics one would hope to recover from two
//! consecutive list editions.

use crate::names::entity_names;
use crate::policy::{Policy, PolicyRule, Scenario};
use charles_relation::{Expr, Predicate, RelationError, Table, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Industry pool with Pareto-ish wealth scales.
const INDUSTRIES: [(&str, f64); 6] = [
    ("Technology", 18.0),
    ("Finance & Investments", 9.0),
    ("Fashion & Retail", 11.0),
    ("Energy", 7.0),
    ("Healthcare", 6.0),
    ("Real Estate", 5.0),
];

const COUNTRIES: [&str; 8] = [
    "United States",
    "China",
    "India",
    "Germany",
    "France",
    "Brazil",
    "Japan",
    "Canada",
];

/// Generate the source wealth table (`n` billionaires, deterministic per
/// seed). Net worth is in billions of dollars, one decimal, ranked
/// descending like the published list.
pub fn billionaires_table(n: usize, seed: u64) -> Result<Table, RelationError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = entity_names(n);
    let mut rows: Vec<(String, f64, i64, &str, &str)> = Vec::with_capacity(n);
    for name in names {
        let (industry, scale) = INDUSTRIES[rng.gen_range(0..INDUSTRIES.len())];
        // Heavy-tailed: exp(Exp(1)) style draw scaled per industry.
        let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-9);
        let worth = ((scale * (1.0 - u.ln())) * 10.0).round() / 10.0;
        let age: i64 = rng.gen_range(35..=92);
        let country = COUNTRIES[rng.gen_range(0..COUNTRIES.len())];
        rows.push((name, worth.max(1.0), age, country, industry));
    }
    // Rank by descending net worth, like the published list.
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let ranks: Vec<i64> = (1..=n as i64).collect();
    let names: Vec<String> = rows.iter().map(|r| r.0.clone()).collect();
    let worths: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let ages: Vec<i64> = rows.iter().map(|r| r.2).collect();
    let countries: Vec<&str> = rows.iter().map(|r| r.3).collect();
    let industries: Vec<&str> = rows.iter().map(|r| r.4).collect();
    TableBuilder::new(format!("billionaires-{n}"))
        .int_col("rank", &ranks)
        .str_col("name", &names)
        .float_col("net_worth", &worths)
        .int_col("age", &ages)
        .str_col("country", &countries)
        .str_col("industry", &industries)
        .key("name")
        .build()
}

/// The latent market policy for one list edition: tech rallies 15%,
/// finance gains 6% plus a flat $0.5B of fund inflows, energy corrects
/// −8%, everything else drifts up 2%.
pub fn market_policy() -> Policy {
    Policy::new(
        "net_worth",
        vec![
            PolicyRule::update(
                "tech +15%",
                Predicate::eq("industry", "Technology"),
                Expr::affine("net_worth", 1.15, 0.0),
            ),
            PolicyRule::update(
                "finance +6% + 0.5",
                Predicate::eq("industry", "Finance & Investments"),
                Expr::affine("net_worth", 1.06, 0.5),
            ),
            PolicyRule::update(
                "energy −8%",
                Predicate::eq("industry", "Energy"),
                Expr::affine("net_worth", 0.92, 0.0),
            ),
            PolicyRule::update(
                "drift +2%",
                Predicate::True,
                Expr::affine("net_worth", 1.02, 0.0),
            ),
        ],
    )
}

/// The full billionaires scenario.
pub fn billionaires(n: usize, seed: u64) -> Scenario {
    let source = billionaires_table(n, seed).expect("generated list is well-formed");
    Scenario::evolve(format!("billionaires-{n}"), source, market_policy())
        .expect("market policy applies cleanly")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_by_descending_worth() {
        let t = billionaires_table(200, 5).unwrap();
        let worth = t.numeric("net_worth").unwrap();
        for w in worth.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(t.value(0, "rank").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn policy_respected() {
        let s = billionaires(150, 6);
        for r in 0..s.len() {
            let industry = s.source.value(r, "industry").unwrap();
            let old = s.source.value(r, "net_worth").unwrap().as_f64().unwrap();
            let new = s.target.value(r, "net_worth").unwrap().as_f64().unwrap();
            let want = match industry.as_str().unwrap() {
                "Technology" => 1.15 * old,
                "Finance & Investments" => 1.06 * old + 0.5,
                "Energy" => 0.92 * old,
                _ => 1.02 * old,
            };
            assert!((new - want).abs() < 1e-6, "row {r}");
        }
    }

    #[test]
    fn wealth_positive_and_heavy_tailed() {
        let t = billionaires_table(500, 7).unwrap();
        let worth = t.numeric("net_worth").unwrap();
        assert!(worth.iter().all(|&w| w >= 1.0));
        let max = worth.iter().fold(0.0f64, |m, &w| m.max(w));
        let median = {
            let mut s = worth.clone();
            s.sort_by(|a, b| a.total_cmp(b));
            s[s.len() / 2]
        };
        assert!(max > 4.0 * median, "max {max}, median {median}");
    }

    #[test]
    fn deterministic() {
        assert!(billionaires_table(60, 11)
            .unwrap()
            .content_eq(&billionaires_table(60, 11).unwrap()));
    }
}
