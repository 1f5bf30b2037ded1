//! Whole-program rules over the [`crate::callgraph`] — the layer that
//! makes the per-file token rules transitive.
//!
//! Three rules live here:
//!
//! * **panic-reachability** — no function transitively reachable from
//!   the serving/ingest/durability entry set may `.unwrap()`,
//!   `.expect()`, invoke a panic/assert macro, or index a slice without
//!   a visible bounds guard. Supersedes the old `panic-free-zone` token
//!   rule: every function *defined* in the zone is an entry, so the old
//!   per-file coverage is the depth-0 case, and helpers in other crates
//!   become visible the moment the zone calls them.
//! * **no-hot-alloc-reachable** — extends PR 9's file-scoped
//!   `no-hot-alloc` to everything reachable from the steady-state
//!   serving kernels (`forward_nograd*`, `score_topk`,
//!   `advance_encoder_state` and the two kernel files).
//! * **durability-order** — intra-procedural, source-order dataflow in
//!   the WAL/fsio/ingest files: a buffer `write_all` must be followed by
//!   `sync_data`/`sync_all` before any ack/reply leaves the function,
//!   and a temp-file write must reach a `rename`. (Source order, not
//!   control flow: the rule is deliberately insensitive to branching —
//!   a sync on only one branch still counts, which keeps it quiet on
//!   fault-injection code at the cost of missing branch-only bugs.)
//!
//! Suppression is per *call site*: a `// lint:allow(<rule>): reason` on
//! an edge's call line cuts the whole subtree behind that edge out of
//! the reachability set (the catch_unwind boundaries in `serve.rs` are
//! the canonical cut points), and one on a sink line silences just that
//! sink. Reasons are mandatory, exactly as for token rules.
//!
//! Every diagnostic carries the shortest offending call chain
//! (`hisres::serve::handle_line → hisres_graph::cmp::neighbors →
//! .unwrap()`) in both the human rendering and the JSON `chain` array.

use crate::callgraph::Graph;
use crate::diag::{Diagnostic, Severity};
use crate::rules::FileCtx;
use std::collections::{BTreeMap, VecDeque};

/// Entry zone of `panic-reachability`: every non-test function defined
/// in these trees must not reach a panic. (The old token rule's include
/// list, verbatim — the zone is unchanged, its closure is new.)
pub const PANIC_ZONE: &[&str] = &[
    "crates/core/src/serve.rs",
    "crates/core/src/ingest.rs",
    "crates/util/src/fsio.rs",
    "crates/util/src/wal.rs",
];

/// Named entry points of `no-hot-alloc-reachable` (the steady-state
/// serving kernels), wherever they are defined.
pub const HOT_ENTRY_FNS: &[&str] = &[
    "forward_nograd",
    "forward_nograd_into",
    "score_topk",
    "advance_encoder_state",
];

/// Files whose every function is a hot-alloc entry (PR 9's file scope,
/// preserved so nothing the old rule covered escapes).
pub const HOT_ENTRY_FILES: &[&str] =
    &["crates/nn/src/fastpath.rs", "crates/core/src/topk.rs"];

/// Files the `durability-order` rule scans.
pub const DURABILITY_FILES: &[&str] = &[
    "crates/util/src/wal.rs",
    "crates/util/src/fsio.rs",
    "crates/core/src/ingest.rs",
];

/// Macros that panic (the token rule's list plus the assert family —
/// `debug_assert*` compiles out of release serving builds and stays
/// legal).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Call/method names that acknowledge a request back to a client.
const ACK_NAMES: &[&str] = &[
    "reply",
    "send_reply",
    "respond",
    "send_response",
    "write_response",
    "ack",
];

/// Looks up a suppression for `rule` at `file:line`. Returns `true`
/// when the diagnostic must not be emitted (either suppressed with a
/// reason, or replaced by a `lint-allow-syntax` error for a reasonless
/// allow).
fn try_suppress(
    ctxs: &BTreeMap<&str, &FileCtx>,
    file: &str,
    line: u32,
    col: u32,
    rule: &'static str,
    suppressed: &mut usize,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let Some(ctx) = ctxs.get(file) else { return false };
    let Some(a) = ctx
        .allows
        .iter()
        .find(|a| a.line == line && a.rules.iter().any(|r| r == rule))
    else {
        return false;
    };
    a.used.set(true);
    if a.has_reason {
        *suppressed += 1;
    } else {
        out.push(Diagnostic {
            rule: "lint-allow-syntax",
            severity: Severity::Error,
            file: file.into(),
            line,
            col,
            message: format!(
                "lint:allow({rule}) must carry a reason: \
                 `// lint:allow({rule}): <why this is safe>`"
            ),
            snippet: snippet(ctxs, file, line),
            chain: Vec::new(),
        });
    }
    true
}

fn snippet(ctxs: &BTreeMap<&str, &FileCtx>, file: &str, line: u32) -> String {
    ctxs.get(file).map(|c| c.snippet(line)).unwrap_or_default()
}

/// Whether `line` of `file` is test code (cfg(test) item or tests/ tree).
fn in_test(ctxs: &BTreeMap<&str, &FileCtx>, file: &str, line: u32) -> bool {
    ctxs.get(file).map(|c| c.in_test_code(line)).unwrap_or(false)
}

/// Multi-source BFS over call edges with per-edge suppression. Returns
/// the visit parent map `node → (parent node, call line)` (entries map
/// to no parent), which [`chain_to`] turns into shortest call chains.
fn reach(
    graph: &Graph,
    entries: &[usize],
    rule: &'static str,
    ctxs: &BTreeMap<&str, &FileCtx>,
    suppressed: &mut usize,
    out: &mut Vec<Diagnostic>,
) -> BTreeMap<usize, Option<(usize, u32)>> {
    let mut parent: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
    let mut q = VecDeque::new();
    for &e in entries {
        if parent.insert(e, None).is_none() {
            q.push_back(e);
        }
    }
    while let Some(n) = q.pop_front() {
        let file = graph.fns[n].file.clone();
        for edge in &graph.edges[n] {
            if parent.contains_key(&edge.to) {
                continue;
            }
            // Calls from test code don't extend the production closure.
            if in_test(ctxs, &file, edge.line) {
                continue;
            }
            if try_suppress(ctxs, &file, edge.line, edge.col, rule, suppressed, out) {
                continue;
            }
            parent.insert(edge.to, Some((n, edge.line)));
            q.push_back(edge.to);
        }
    }
    parent
}

/// Renders the entry → … → `node` call chain from a BFS parent map.
fn chain_to(
    graph: &Graph,
    parent: &BTreeMap<usize, Option<(usize, u32)>>,
    node: usize,
) -> Vec<String> {
    let mut rev = vec![graph.fns[node].key.clone()];
    let mut cur = node;
    while let Some(Some((p, _line))) = parent.get(&cur) {
        rev.push(graph.fns[*p].key.clone());
        cur = *p;
    }
    rev.reverse();
    rev
}

/// `panic-reachability`: see module docs.
pub fn check_panic_reachability(
    graph: &Graph,
    ctxs: &BTreeMap<&str, &FileCtx>,
    suppressed: &mut usize,
    out: &mut Vec<Diagnostic>,
) {
    let entries: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            !n.def.is_test
                && PANIC_ZONE.iter().any(|p| n.file.starts_with(p))
                && !in_test(ctxs, &n.file, n.def.line)
        })
        .map(|(i, _)| i)
        .collect();
    let visited = reach(graph, &entries, "panic-reachability", ctxs, suppressed, out);
    for (&ni, _) in &visited {
        let n = &graph.fns[ni];
        if n.def.is_test {
            continue;
        }
        for ev in &n.def.events {
            let sink = match &ev.kind {
                crate::parser::EventKind::Method(m)
                    if m == "unwrap" || m == "expect" =>
                {
                    format!(".{m}()")
                }
                crate::parser::EventKind::MacroUse(m)
                    if PANIC_MACROS.contains(&m.as_str()) =>
                {
                    format!("{m}!")
                }
                crate::parser::EventKind::Index
                    if !ev.guarded && !ev.in_unsafe && !n.def.bounds_aware =>
                {
                    "slice-index-without-guard".to_string()
                }
                _ => continue,
            };
            if in_test(ctxs, &n.file, ev.line) {
                continue;
            }
            if try_suppress(
                ctxs,
                &n.file,
                ev.line,
                ev.col,
                "panic-reachability",
                suppressed,
                out,
            ) {
                continue;
            }
            let mut chain = chain_to(graph, &visited, ni);
            chain.push(sink.clone());
            out.push(Diagnostic {
                rule: "panic-reachability",
                severity: Severity::Error,
                file: n.file.clone(),
                line: ev.line,
                col: ev.col,
                message: format!(
                    "{sink} is reachable from panic-free entry `{}`",
                    chain.first().cloned().unwrap_or_default()
                ),
                snippet: snippet(ctxs, &n.file, ev.line),
                chain,
            });
        }
    }
}

/// `no-hot-alloc-reachable`: see module docs.
pub fn check_hot_alloc_reachable(
    graph: &Graph,
    ctxs: &BTreeMap<&str, &FileCtx>,
    suppressed: &mut usize,
    out: &mut Vec<Diagnostic>,
) {
    let entries: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            !n.def.is_test
                && (HOT_ENTRY_FNS.contains(&n.def.name.as_str())
                    || HOT_ENTRY_FILES.iter().any(|p| n.file.starts_with(p)))
                && !in_test(ctxs, &n.file, n.def.line)
        })
        .map(|(i, _)| i)
        .collect();
    let visited = reach(
        graph,
        &entries,
        "no-hot-alloc-reachable",
        ctxs,
        suppressed,
        out,
    );
    for (&ni, _) in &visited {
        let n = &graph.fns[ni];
        if n.def.is_test {
            continue;
        }
        for ev in &n.def.events {
            // `Vec::new()` is deliberately NOT a sink: it is guaranteed
            // non-allocating — the later `push`/`extend` growth is what
            // allocates, and `vec!`/`with_capacity`/`to_vec` catch the
            // sized-at-birth cases.
            let sink = match &ev.kind {
                crate::parser::EventKind::Call(segs)
                    if segs.len() >= 2
                        && segs[segs.len() - 2] == "Vec"
                        && segs[segs.len() - 1] == "with_capacity" =>
                {
                    "Vec::with_capacity".to_string()
                }
                crate::parser::EventKind::MacroUse(m) if m == "vec" => {
                    "vec!".to_string()
                }
                crate::parser::EventKind::Method(m) if m == "to_vec" => {
                    ".to_vec()".to_string()
                }
                _ => continue,
            };
            if in_test(ctxs, &n.file, ev.line) {
                continue;
            }
            if try_suppress(
                ctxs,
                &n.file,
                ev.line,
                ev.col,
                "no-hot-alloc-reachable",
                suppressed,
                out,
            ) {
                continue;
            }
            let mut chain = chain_to(graph, &visited, ni);
            chain.push(sink.clone());
            out.push(Diagnostic {
                rule: "no-hot-alloc-reachable",
                severity: Severity::Error,
                file: n.file.clone(),
                line: ev.line,
                col: ev.col,
                message: format!(
                    "{sink} allocates on the steady-state path from `{}`",
                    chain.first().cloned().unwrap_or_default()
                ),
                snippet: snippet(ctxs, &n.file, ev.line),
                chain,
            });
        }
    }
}

/// One classified durability operation inside a function body.
enum DurOp {
    Write,
    Sync,
    Rename,
    Ack(String),
}

/// `durability-order`: see module docs.
pub fn check_durability_order(
    graph: &Graph,
    ctxs: &BTreeMap<&str, &FileCtx>,
    suppressed: &mut usize,
    out: &mut Vec<Diagnostic>,
) {
    for n in &graph.fns {
        if n.def.is_test || !DURABILITY_FILES.iter().any(|p| n.file.starts_with(p)) {
            continue;
        }
        if in_test(ctxs, &n.file, n.def.line) {
            continue;
        }
        // Classify events in source order.
        let mut ops: Vec<(DurOp, u32, u32)> = Vec::new();
        for ev in &n.def.events {
            let name = match &ev.kind {
                crate::parser::EventKind::Method(m) => m.as_str(),
                crate::parser::EventKind::Call(segs) => {
                    segs.last().map(String::as_str).unwrap_or("")
                }
                _ => continue,
            };
            let op = match name {
                "write_all" => DurOp::Write,
                "sync_data" | "sync_all" => DurOp::Sync,
                "rename" => DurOp::Rename,
                a if ACK_NAMES.contains(&a) => DurOp::Ack(a.to_string()),
                _ => continue,
            };
            ops.push((op, ev.line, ev.col));
        }
        let has_write = ops.iter().any(|(o, _, _)| matches!(o, DurOp::Write));
        if !has_write {
            continue;
        }
        // Check 1: every write must see a sync before the next ack.
        for (i, (op, wline, _)) in ops.iter().enumerate() {
            if !matches!(op, DurOp::Write) {
                continue;
            }
            for (later, aline, acol) in &ops[i + 1..] {
                match later {
                    DurOp::Sync => break,
                    DurOp::Ack(name) => {
                        if !try_suppress(
                            ctxs,
                            &n.file,
                            *aline,
                            *acol,
                            "durability-order",
                            suppressed,
                            out,
                        ) {
                            let chain = vec![
                                n.key.clone(),
                                format!("write_all@{wline}"),
                                format!("{name}@{aline}"),
                            ];
                            out.push(Diagnostic {
                                rule: "durability-order",
                                severity: Severity::Error,
                                file: n.file.clone(),
                                line: *aline,
                                col: *acol,
                                message: format!(
                                    "ack `{name}` before the write at line {wline} \
                                     is fsynced; call sync_data/sync_all first"
                                ),
                                snippet: snippet(ctxs, &n.file, *aline),
                                chain,
                            });
                        }
                        break;
                    }
                    _ => {}
                }
            }
        }
        // Check 2: temp-file writes must reach a rename.
        if n.def.mentions_tmp {
            let last_write = ops
                .iter()
                .rev()
                .find(|(o, _, _)| matches!(o, DurOp::Write))
                .map(|&(_, l, c)| (l, c));
            let has_rename_after = |line: u32| {
                ops.iter()
                    .any(|(o, l, _)| matches!(o, DurOp::Rename) && *l >= line)
            };
            if let Some((wline, wcol)) = last_write {
                if !has_rename_after(wline)
                    && !try_suppress(
                        ctxs,
                        &n.file,
                        wline,
                        wcol,
                        "durability-order",
                        suppressed,
                        out,
                    )
                {
                    let chain =
                        vec![n.key.clone(), format!("write_all@{wline}"), "∅ rename".into()];
                    out.push(Diagnostic {
                        rule: "durability-order",
                        severity: Severity::Error,
                        file: n.file.clone(),
                        line: wline,
                        col: wcol,
                        message: "temp-file write never reaches fs::rename — the \
                                  visible file can be replaced by a torn copy"
                            .into(),
                        snippet: snippet(ctxs, &n.file, wline),
                        chain,
                    });
                }
            }
        }
    }
}
