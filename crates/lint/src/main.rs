#![forbid(unsafe_code)]
//! `charles-lint` CLI: walk the workspace sources, print findings, exit
//! nonzero when any survive suppression.
//!
//! Usage: `charles-lint [--json] [--fix-suppressions [--apply]]
//!         [--bench-out PATH] [--max-seconds N] [ROOT]`
//!
//! - `ROOT` defaults to the current directory (CI runs
//!   `cargo run -p charles-lint` from the repo root).
//! - `--json` emits the machine-readable report (schema version 3)
//!   instead of the `path:line: [rule] message` lines.
//! - `--fix-suppressions` lists the stale `lint:allow` lines the
//!   `unused-suppression` pseudo-rule reports; `--apply` rewrites the
//!   files in place (without it, a dry run).
//! - `--bench-out PATH` writes wall-time and finding/suppression counts
//!   as JSON (the CI lint job records `BENCH_lint.json`).
//! - `--max-seconds N` fails (exit 1) if the pass took longer — the
//!   call graph must stay cheap enough to run on every change.
//!
//! Exit codes: 0 clean, 1 findings (or over time budget), 2 usage or
//! I/O error.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: charles-lint [--json] [--fix-suppressions [--apply]] \
                     [--bench-out PATH] [--max-seconds N] [ROOT]";

const HELP: &str = "  --json                machine-readable report (schema version 3)
  --fix-suppressions    list stale lint:allow lines (--apply rewrites)
  --bench-out PATH      write wall-time + counts as JSON
  --max-seconds N       exit 1 if the pass took longer

exit codes: 0 clean, 1 findings or over time budget, 2 usage/IO error";

fn main() -> ExitCode {
    let mut json = false;
    let mut fix = false;
    let mut apply = false;
    let mut bench_out: Option<PathBuf> = None;
    let mut max_seconds: Option<f64> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--fix-suppressions" => fix = true,
            "--apply" => apply = true,
            "--bench-out" => match args.next() {
                Some(p) => bench_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("charles-lint: --bench-out needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--max-seconds" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(n) => max_seconds = Some(n),
                None => {
                    eprintln!("charles-lint: --max-seconds needs a number\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}\n{HELP}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("charles-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if apply && !fix {
        eprintln!("charles-lint: --apply only makes sense with --fix-suppressions\n{USAGE}");
        return ExitCode::from(2);
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    if fix {
        let edits = match charles_lint::fix_suppressions(&root, apply) {
            Ok(edits) => edits,
            Err(e) => {
                eprintln!("charles-lint: failed to fix suppressions: {e}");
                return ExitCode::from(2);
            }
        };
        for e in &edits {
            let action = match &e.replacement {
                None => "remove line".to_string(),
                Some(_) => "strip trailing allow".to_string(),
            };
            println!("{}:{}: {action}", e.path, e.line);
        }
        println!(
            "charles-lint: {} stale suppression(s) {}",
            edits.len(),
            if apply {
                "removed"
            } else {
                "found (dry run; pass --apply to write)"
            }
        );
        return ExitCode::SUCCESS;
    }

    let started = Instant::now();
    let report = match charles_lint::lint_tree(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("charles-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let wall = started.elapsed().as_secs_f64();

    if let Some(path) = &bench_out {
        let bench = format!(
            "{{\"version\":3,\"wall_seconds\":{wall:.3},\"files_scanned\":{},\"findings\":{},\
             \"suppressions_used\":{}}}\n",
            report.files_scanned,
            report.findings.len(),
            report.suppressions_used
        );
        if let Err(e) = std::fs::write(path, bench) {
            eprintln!("charles-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if json {
        println!("{}", charles_lint::render_json(&report));
    } else {
        print!("{}", charles_lint::render_human(&report));
    }

    let mut failed = !report.findings.is_empty();
    if let Some(budget) = max_seconds {
        if wall > budget {
            eprintln!(
                "charles-lint: pass took {wall:.2}s, over the {budget:.2}s budget — \
                 the workspace gate must stay cheap enough for every PR"
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
