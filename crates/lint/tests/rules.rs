//! Fixture-based rule tests: run the whole engine over the `bad/` and
//! `clean/` trees under `tests/fixtures/` and pin the exact `file:line`
//! diagnostics, suppression accounting and JSON report schema.

use hisres_lint::diag::Severity;
use hisres_lint::{check_report, run, Options, Report};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str, deny_all: bool) -> Report {
    run(&fixture(name), &Options { deny_all }).expect("fixture tree lints")
}

/// `(rule, file, line)` triples, sorted, for easy comparison.
fn keys(r: &Report) -> Vec<(String, String, u32)> {
    let mut v: Vec<_> = r
        .diagnostics
        .iter()
        .map(|d| (d.rule.to_string(), d.file.clone(), d.line))
        .collect();
    v.sort();
    v
}

#[test]
fn bad_tree_reports_one_violation_per_rule_with_exact_positions() {
    let report = lint("bad", false);
    assert_eq!(
        keys(&report),
        vec![
            ("atomic-writes-only".into(), "crates/data/src/export.rs".into(), 3),
            ("determinism".into(), "crates/tensor/src/timing.rs".into(), 4),
            ("determinism".into(), "crates/tensor/src/timing.rs".into(), 5),
            ("float-eq".into(), "crates/graph/src/cmp.rs".into(), 3),
            ("lint-allow-syntax".into(), "crates/core/src/serve.rs".into(), 7),
            ("no-debug-leftovers".into(), "crates/nn/src/debug.rs".into(), 3),
            ("no-hot-alloc-reachable".into(), "crates/nn/src/fastpath.rs".into(), 3),
            ("no-hot-alloc-reachable".into(), "crates/nn/src/fastpath.rs".into(), 4),
            ("no-hot-alloc-reachable".into(), "crates/nn/src/fastpath.rs".into(), 5),
            ("panic-reachability".into(), "crates/core/src/ingest.rs".into(), 4),
            ("panic-reachability".into(), "crates/core/src/serve.rs".into(), 4),
            ("panic-reachability".into(), "crates/util/src/wal.rs".into(), 4),
            ("pool-only-threading".into(), "crates/core/src/worker.rs".into(), 3),
        ]
    );
    // Severity: the debug-leftover is a warning by default, the rest errors.
    for d in &report.diagnostics {
        let expect = if d.rule == "no-debug-leftovers" {
            Severity::Warning
        } else {
            Severity::Error
        };
        assert_eq!(d.severity, expect, "severity of {}", d.rule);
    }
    assert!(report.has_errors());
}

#[test]
fn deny_all_escalates_warnings() {
    let report = lint("bad", true);
    assert!(report.diagnostics.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn diagnostics_carry_snippets_and_columns() {
    let report = lint("bad", false);
    let unwrap = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "panic-reachability" && d.file == "crates/core/src/serve.rs")
        .expect("panic-reachability diagnostic");
    assert_eq!(unwrap.snippet, "let v = input.unwrap();");
    assert!(unwrap.col > 0);
    let spawn = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "pool-only-threading")
        .expect("pool-only-threading diagnostic");
    assert!(spawn.snippet.contains("thread::spawn"));
}

#[test]
fn clean_tree_is_silent_and_counts_the_reasoned_allow() {
    let report = lint("clean", true);
    assert_eq!(
        keys(&report),
        Vec::<(String, String, u32)>::new(),
        "clean fixture must produce no diagnostics"
    );
    // The justified `.unwrap()` and the warmup `vec![…]` were suppressed,
    // not missed: both rules fired and the reasoned allows silenced them.
    assert_eq!(report.suppressed, 2);
    assert!(!report.has_errors());
}

#[test]
fn reasonless_allow_is_reported_not_honoured() {
    let report = lint("bad", false);
    let syntax = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "lint-allow-syntax")
        .expect("lint-allow-syntax diagnostic");
    assert!(syntax.message.contains("must carry a reason"), "{}", syntax.message);
    // And the reasonless allow did NOT hide the panic! underneath it —
    // it surfaced as lint-allow-syntax at the same location instead.
    assert_eq!(syntax.line, 7);
}

#[test]
fn json_report_round_trips_through_the_schema_checker() {
    for (name, deny) in [("bad", false), ("bad", true), ("clean", true)] {
        let text = lint(name, deny).to_json().to_json_string();
        check_report(&text).unwrap_or_else(|e| panic!("{name} report schema: {e}"));
    }
}

#[test]
fn schema_checker_rejects_malformed_reports() {
    assert!(check_report("not json at all").is_err());
    assert!(check_report(r#"{"schema":"something-else/v9"}"#).is_err());
    // The previous schema generation is rejected by tag, not silently read.
    assert!(check_report(r#"{"schema":"hisres-lint/v1"}"#).is_err());
    // Right schema tag but missing required fields.
    assert!(check_report(r#"{"schema":"hisres-lint/v2"}"#).is_err());
    // v2 requires graph stats and per-rule kind/time_ms.
    let no_graph = r#"{"schema":"hisres-lint/v2","root":".","files_scanned":1,
        "suppressed":0,"elapsed_ms":1.0,
        "rules":[{"id":"x","severity":"error","kind":"token","description":"d","time_ms":0.1}],
        "diagnostics":[]}"#;
    assert!(check_report(no_graph).unwrap_err().contains("graph"));
    let bad_kind = r#"{"schema":"hisres-lint/v2","root":".","files_scanned":1,
        "suppressed":0,"elapsed_ms":1.0,
        "graph":{"nodes":0,"edges":0,"unresolved":0,"ambiguous":0,"external":0},
        "rules":[{"id":"x","severity":"error","kind":"regex","description":"d","time_ms":0.1}],
        "diagnostics":[]}"#;
    assert!(check_report(bad_kind).unwrap_err().contains("token|graph"));
    // A diagnostic with a wrong-typed line.
    let bad = r#"{"schema":"hisres-lint/v2","root":".","files_scanned":1,
        "suppressed":0,"elapsed_ms":1.0,
        "graph":{"nodes":0,"edges":0,"unresolved":0,"ambiguous":0,"external":0},
        "rules":[{"id":"x","severity":"error","kind":"token","description":"d","time_ms":0.1}],
        "diagnostics":[{"rule":"x","severity":"error","file":"f.rs",
        "line":"three","col":1,"message":"m","snippet":"s"}]}"#;
    assert!(check_report(bad).is_err());
}

#[test]
fn workspace_root_discovery_finds_the_repo() {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = hisres_lint::find_workspace_root(&here).expect("workspace root");
    assert!(root.join("scripts/verify.sh").exists());
}
