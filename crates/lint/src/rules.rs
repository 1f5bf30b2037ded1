//! The lint rule set: per-rule configuration and token-stream checks.
//!
//! Every rule walks the token stream produced by [`crate::lexer`], so
//! matches inside comments, strings and raw strings are impossible by
//! construction — the failure mode of the `grep` guards these rules
//! replaced.
//!
//! # Suppression
//!
//! A violation is silenced by a `//` comment **on the offending line**:
//!
//! ```text
//! let t = Instant::now(); // lint:allow(determinism): wall-clock only logged, never in math
//! ```
//!
//! The reason after the colon is mandatory; a reasonless `lint:allow`
//! is itself reported (rule `lint-allow-syntax`). Multiple rules may be
//! listed comma-separated: `lint:allow(float-eq, determinism): …`.
//!
//! # Adding a rule
//!
//! 1. Add a [`RuleConfig`] entry to [`config()`] below (id, severity,
//!    path scope, whether test code is exempt).
//! 2. Implement the check as a `fn(&FileCtx, &RuleConfig, &mut Vec<Diagnostic>)`
//!    over `ctx.code` tokens and dispatch it from [`check_file`].
//! 3. Add a fixture under `tests/fixtures/bad/` and an assertion in
//!    `tests/rules.rs` so the rule's `file:line` output stays pinned.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, TokKind, Token};

/// ---------------------------------------------------------------------
/// Per-rule configuration. Path prefixes are workspace-relative with `/`
/// separators; an empty `include` list means the whole workspace.
/// ---------------------------------------------------------------------
pub struct RuleConfig {
    pub id: &'static str,
    pub severity: Severity,
    pub description: &'static str,
    /// `"token"` rules run per-file over the token stream here;
    /// `"graph"` rules run over the workspace call graph in
    /// [`crate::graph_rules`]. Both share this config for reporting.
    pub kind: &'static str,
    /// Only paths starting with one of these prefixes are checked.
    /// For graph rules this names the *entry zone*, not the scan scope.
    pub include: &'static [&'static str],
    /// Paths starting with one of these prefixes are never checked.
    pub exclude: &'static [&'static str],
    /// Exempt `#[cfg(test)]` modules, `#[test]` fns and `tests/` trees.
    pub skip_test_code: bool,
}

/// Macros that smell like debugging leftovers in library code.
const DEBUG_MACROS: &[&str] = &["dbg", "eprintln", "eprint"];
/// Iteration-order-sensitive std types banned from deterministic modules.
const NONDET_TYPES: &[&str] = &["HashMap", "HashSet"];
/// Library source trees where stray debug output is a bug (the CLI and
/// bench binaries report to stderr on purpose).
const LIBRARY_SRC: &[&str] = &[
    "crates/util/src/",
    "crates/tensor/src/",
    "crates/graph/src/",
    "crates/data/src/",
    "crates/nn/src/",
    "crates/core/src/",
    "crates/baselines/src/",
    "crates/lint/src/",
];
/// Modules on the gradient path: bit-determinism of training trajectories
/// depends on these never observing wall-clock time or hash iteration
/// order.
const GRAD_PATH: &[&str] = &[
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/core/src/model.rs",
    "crates/core/src/trainer.rs",
    "crates/core/src/multistep.rs",
];
/// The shipped rule set. Order here is the order rules run and report.
/// The old `panic-free-zone` and `no-hot-alloc` token rules are
/// superseded by the transitive `panic-reachability` and
/// `no-hot-alloc-reachable` graph rules below.
pub fn config() -> Vec<RuleConfig> {
    vec![
        RuleConfig {
            id: "atomic-writes-only",
            severity: Severity::Error,
            description: "fs::write/File::create are not crash-safe; all \
                          persistent writes go through hisres_util::fsio::atomic_write",
            kind: "token",
            include: &[],
            // fsio *is* the atomic-write helper; the WAL is the one other
            // file allowed to own its durability story (append + fsync is
            // its correctness model — an atomic replace would destroy it).
            exclude: &["crates/util/src/fsio.rs", "crates/util/src/wal.rs"],
            skip_test_code: true,
        },
        RuleConfig {
            id: "pool-only-threading",
            severity: Severity::Error,
            description: "thread::spawn outside the worker pool breaks the \
                          deterministic data-parallel contract",
            kind: "token",
            include: &[],
            exclude: &["crates/util/src/pool.rs"],
            skip_test_code: true,
        },
        RuleConfig {
            id: "determinism",
            severity: Severity::Error,
            description: "Instant::now/SystemTime::now and HashMap/HashSet \
                          are banned on the gradient path (training \
                          trajectories must be bit-reproducible)",
            kind: "token",
            include: GRAD_PATH,
            exclude: &[],
            skip_test_code: true,
        },
        RuleConfig {
            id: "no-debug-leftovers",
            severity: Severity::Warning,
            description: "dbg!/eprintln! in library crates is debug output \
                          that should be removed or routed through a caller",
            kind: "token",
            include: LIBRARY_SRC,
            exclude: &[],
            skip_test_code: true,
        },
        RuleConfig {
            id: "float-eq",
            severity: Severity::Error,
            description: "== / != against a float literal is almost always \
                          an epsilon bug outside tests",
            kind: "token",
            include: &[],
            exclude: &[],
            skip_test_code: true,
        },
        RuleConfig {
            id: "panic-reachability",
            severity: Severity::Error,
            description: "no function transitively reachable from the \
                          serving/ingest/durability entry set may \
                          unwrap/expect, invoke a panic or assert macro, or \
                          index a slice without a bounds guard",
            kind: "graph",
            include: crate::graph_rules::PANIC_ZONE,
            exclude: &[],
            skip_test_code: true,
        },
        RuleConfig {
            id: "no-hot-alloc-reachable",
            severity: Severity::Error,
            description: "Vec::new/vec!/.to_vec() anywhere reachable from \
                          the steady-state serving kernels (forward_nograd*, \
                          score_topk, advance_encoder_state); take buffers \
                          from the Scratch arena",
            kind: "graph",
            include: crate::graph_rules::HOT_ENTRY_FILES,
            exclude: &[],
            skip_test_code: true,
        },
        RuleConfig {
            id: "durability-order",
            severity: Severity::Error,
            description: "in the WAL/fsio/ingest layer a write_all must be \
                          fsynced before any ack leaves the function, and \
                          temp-file writes must reach fs::rename",
            kind: "graph",
            include: crate::graph_rules::DURABILITY_FILES,
            exclude: &[],
            skip_test_code: true,
        },
        RuleConfig {
            id: "unused-suppression",
            severity: Severity::Warning,
            description: "a lint:allow comment whose rule no longer fires on \
                          that line is stale and must be deleted",
            kind: "graph",
            include: &[],
            exclude: &[],
            skip_test_code: false,
        },
    ]
}

/// Everything a rule needs to know about one source file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// Raw source lines (for snippets).
    pub lines: Vec<&'a str>,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of code (non-comment) tokens.
    pub code: Vec<usize>,
    /// Whether the whole file is test code (under a `tests/` tree).
    pub file_is_test: bool,
    /// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items
    /// and `#[test]` fns.
    pub test_ranges: Vec<(u32, u32)>,
    /// Per-line suppressions parsed from `// lint:allow(...)` comments.
    pub allows: Vec<Allow>,
}

/// One parsed `lint:allow` comment.
pub struct Allow {
    pub line: u32,
    pub rules: Vec<String>,
    pub has_reason: bool,
    /// Set once a diagnostic on this line was actually silenced.
    pub used: std::cell::Cell<bool>,
}

impl<'a> FileCtx<'a> {
    /// Lexes `source` and precomputes test ranges and suppressions.
    /// Lex errors are surfaced as a `lex-error` diagnostic by the caller.
    pub fn new(path: &'a str, source: &'a str) -> Result<FileCtx<'a>, crate::lexer::LexError> {
        let tokens = lex(source)?;
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_code())
            .map(|(i, _)| i)
            .collect();
        let file_is_test = path.split('/').any(|c| c == "tests" || c == "benches");
        let test_ranges = find_test_ranges(&tokens, &code);
        let allows = find_allows(&tokens);
        Ok(FileCtx {
            path,
            lines: source.lines().collect(),
            tokens,
            code,
            file_is_test,
            test_ranges,
            allows,
        })
    }

    /// The trimmed source line at `line` (1-based), for diagnostics.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Whether `line` is inside test code (`tests/` tree, `#[cfg(test)]`
    /// module, or `#[test]` fn).
    pub fn in_test_code(&self, line: u32) -> bool {
        self.file_is_test || self.test_ranges.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Scans for `#[cfg(test)]` / `#[test]` attributes and records the line
/// span of the item (module, fn, impl, …) they attach to, by matching the
/// braces of the item body.
fn find_test_ranges(tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let tok = |ci: usize| -> &Token { &tokens[code[ci]] };
    let mut i = 0usize;
    while i < code.len() {
        if tok(i).text == "#" && i + 1 < code.len() && tok(i + 1).text == "[" {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr = Vec::new();
            while j < code.len() && depth > 0 {
                match tok(j).text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                if depth > 0 {
                    attr.push(tok(j).text.clone());
                }
                j += 1;
            }
            let is_test_attr = attr.first().map(String::as_str) == Some("test")
                || (attr.first().map(String::as_str) == Some("cfg")
                    && attr.iter().any(|t| t == "test"));
            if is_test_attr {
                // Skip any further attributes, then find the item's body.
                let mut k = j;
                while k + 1 < code.len() && tok(k).text == "#" && tok(k + 1).text == "[" {
                    let mut d = 1usize;
                    k += 2;
                    while k < code.len() && d > 0 {
                        match tok(k).text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                let start_line = tok(i).line;
                // Find the opening brace of the item body. A `;` first
                // means a braceless item (e.g. `#[cfg(test)] use …;`) —
                // the range is just the attribute's own lines.
                let mut open = None;
                let mut m = k;
                while m < code.len() {
                    match tok(m).text.as_str() {
                        "{" => {
                            open = Some(m);
                            break;
                        }
                        ";" => break,
                        _ => m += 1,
                    }
                }
                let end_line = match open {
                    Some(o) => {
                        let mut d = 0usize;
                        let mut m = o;
                        let mut end = tok(o).line;
                        while m < code.len() {
                            match tok(m).text.as_str() {
                                "{" => d += 1,
                                "}" => {
                                    d -= 1;
                                    if d == 0 {
                                        end = tok(m).line;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        end
                    }
                    None => tok(if m < code.len() { m } else { code.len() - 1 }).line,
                };
                ranges.push((start_line, end_line));
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Parses `lint:allow(rule-a, rule-b): reason` out of `//` comments.
fn find_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokKind::LineComment {
            continue;
        }
        // Doc comments (`///`, `//!`) describe the syntax; only plain
        // `//` comments carry live suppressions.
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let Some(at) = t.text.find("lint:allow(") else {
            continue;
        };
        let rest = &t.text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.push(Allow {
                line: t.line,
                rules: Vec::new(),
                has_reason: false,
                used: std::cell::Cell::new(false),
            });
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let after = rest[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        out.push(Allow {
            line: t.line,
            rules,
            has_reason,
            used: std::cell::Cell::new(false),
        });
    }
    out
}

fn applies(cfg: &RuleConfig, path: &str) -> bool {
    let included = cfg.include.is_empty() || cfg.include.iter().any(|p| path.starts_with(p));
    let excluded = cfg.exclude.iter().any(|p| path.starts_with(p));
    included && !excluded
}

/// Runs every configured **token** rule over one file (graph rules run
/// in [`crate::graph_rules`] after the call graph is built). Diagnostics
/// suppressed by a well-formed `lint:allow` are counted in `suppressed`
/// instead of returned; malformed allows produce `lint-allow-syntax`
/// diagnostics. Per-rule wall-clock is accumulated into `timings`
/// (milliseconds, keyed by rule id) for the v2 report.
pub fn check_file(
    ctx: &FileCtx,
    rules: &[RuleConfig],
    suppressed: &mut usize,
    timings: &mut std::collections::BTreeMap<&'static str, f64>,
) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    for cfg in rules {
        if cfg.kind != "token" || !applies(cfg, ctx.path) {
            continue;
        }
        let t0 = std::time::Instant::now();
        match cfg.id {
            "atomic-writes-only" => check_atomic_writes(ctx, cfg, &mut raw),
            "pool-only-threading" => check_pool_threading(ctx, cfg, &mut raw),
            "determinism" => check_determinism(ctx, cfg, &mut raw),
            "no-debug-leftovers" => check_debug_leftovers(ctx, cfg, &mut raw),
            "float-eq" => check_float_eq(ctx, cfg, &mut raw),
            other => raw.push(Diagnostic {
                rule: "lint-config",
                severity: Severity::Error,
                file: ctx.path.into(),
                line: 1,
                col: 1,
                message: format!("rule {other:?} has no implementation"),
                snippet: String::new(),
                chain: Vec::new(),
            }),
        }
        *timings.entry(cfg.id).or_insert(0.0) += t0.elapsed().as_secs_f64() * 1e3;
    }
    // Apply suppressions, then report malformed / unused allows.
    let mut out = Vec::new();
    for d in raw {
        let allow = ctx
            .allows
            .iter()
            .find(|a| a.line == d.line && a.rules.iter().any(|r| r == d.rule));
        match allow {
            Some(a) if a.has_reason => {
                a.used.set(true);
                *suppressed += 1;
            }
            Some(a) => {
                a.used.set(true);
                out.push(Diagnostic {
                    rule: "lint-allow-syntax",
                    severity: Severity::Error,
                    file: d.file.clone(),
                    line: d.line,
                    col: d.col,
                    message: format!(
                        "lint:allow({}) must carry a reason: `// lint:allow({}): <why this is safe>`",
                        d.rule, d.rule
                    ),
                    snippet: d.snippet.clone(),
                    chain: Vec::new(),
                });
            }
            None => out.push(d),
        }
    }
    for a in &ctx.allows {
        if a.rules.is_empty() {
            out.push(Diagnostic {
                rule: "lint-allow-syntax",
                severity: Severity::Error,
                file: ctx.path.into(),
                line: a.line,
                col: 1,
                message: "malformed lint:allow — expected `lint:allow(<rule>): <reason>`".into(),
                snippet: ctx.snippet(a.line),
                chain: Vec::new(),
            });
        }
    }
    out
}

/// Shared helper: emit a diagnostic unless the token is in exempt test code.
fn emit(
    ctx: &FileCtx,
    cfg: &RuleConfig,
    tok: &Token,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    if cfg.skip_test_code && ctx.in_test_code(tok.line) {
        return;
    }
    out.push(Diagnostic {
        rule: cfg.id,
        severity: cfg.severity,
        file: ctx.path.into(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: ctx.snippet(tok.line),
        chain: Vec::new(),
    });
}

/// `fs::write` / `File::create` outside the atomic-write helper.
fn check_atomic_writes(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for w in ctx.code.windows(3) {
        let (a, b, c) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
        if b.text != "::" {
            continue;
        }
        if (a.text == "fs" && c.text == "write") || (a.text == "File" && c.text == "create") {
            emit(
                ctx,
                cfg,
                c,
                format!(
                    "{}::{} is not crash-safe; use hisres_util::fsio::atomic_write",
                    a.text, c.text
                ),
                out,
            );
        }
    }
}

/// `thread::spawn` outside the worker pool.
fn check_pool_threading(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for w in ctx.code.windows(3) {
        let (a, b, c) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
        if a.text == "thread" && b.text == "::" && c.text == "spawn" {
            emit(
                ctx,
                cfg,
                c,
                "thread::spawn bypasses the deterministic worker pool; use \
                 hisres_util::pool::par_chunks_mut"
                    .into(),
                out,
            );
        }
    }
}

/// Wall-clock reads and hash-ordered collections on the gradient path.
fn check_determinism(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for w in ctx.code.windows(3) {
        let (a, b, c) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
        if (a.text == "Instant" || a.text == "SystemTime") && b.text == "::" && c.text == "now" {
            emit(
                ctx,
                cfg,
                a,
                format!("{}::now() on the gradient path makes runs irreproducible", a.text),
                out,
            );
        }
    }
    for &i in &ctx.code {
        let t = &toks[i];
        if t.kind == TokKind::Ident && NONDET_TYPES.contains(&t.text.as_str()) {
            emit(
                ctx,
                cfg,
                t,
                format!(
                    "{} iteration order is nondeterministic; use BTreeMap/BTreeSet or a Vec",
                    t.text
                ),
                out,
            );
        }
    }
}

/// `dbg!` / `eprintln!` in library source trees.
fn check_debug_leftovers(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for w in ctx.code.windows(2) {
        let (a, b) = (&toks[w[0]], &toks[w[1]]);
        if a.kind == TokKind::Ident && DEBUG_MACROS.contains(&a.text.as_str()) && b.text == "!" {
            emit(
                ctx,
                cfg,
                a,
                format!("{}! in library code looks like a debugging leftover", a.text),
                out,
            );
        }
    }
}

/// `==` / `!=` where either operand is a float literal.
fn check_float_eq(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for (pos, &i) in ctx.code.iter().enumerate() {
        let t = &toks[i];
        if t.text != "==" && t.text != "!=" {
            continue;
        }
        let prev_float = pos > 0 && toks[ctx.code[pos - 1]].is_float();
        let next_float = ctx
            .code
            .get(pos + 1)
            .is_some_and(|&j| toks[j].is_float());
        if prev_float || next_float {
            emit(
                ctx,
                cfg,
                t,
                format!(
                    "`{}` against a float literal; compare with an epsilon or justify exactness",
                    t.text
                ),
                out,
            );
        }
    }
}
