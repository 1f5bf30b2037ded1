//! Traced in-process replays of the three workloads. Each replay calls
//! the same public library functions the `hisres` binary runs for that
//! workload, wraps every layer boundary in a span, and checks that the
//! traced path computes exactly what the library's own entry points do.

use crate::trace::{self, aggregate, span, Agg, Span};
use hisres::eval::ScoreCtx;
use hisres::ingest::IngestRecord;
use hisres::model::{Encoded, HisRes};
use hisres::topk::BlockNorms;
use hisres::trainer::{query_pairs, snapshots_of, HisResEval};
use hisres::{
    evaluate, parse_request, score_at_topk, GuardPolicy, HisResConfig, IngestOutcome,
    IngestSession, IngestSessionConfig, Request, ServeConfig, ServeEngine, ServeScorer, Split,
    TrainConfig,
};
use hisres_baselines::FrequencyScorer;
use hisres_data::DatasetSplits;
use hisres_graph::{EdgeList, GlobalHistoryIndex, Snapshot};
use hisres_tensor::{clip_grad_norm, no_grad, Adam, NdArray};
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;
use hisres_util::wal::{CorruptPolicy, Wal};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

type Res<T> = Result<T, String>;
type TopK = Vec<Option<Vec<(u32, f32)>>>;

/// What a replay hands back: per-layer metrics, the replies it produced
/// (for the harness to compare with the served replies) and its spans.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub replies: Vec<String>,
    pub losses: Vec<String>,
    pub spans: Vec<Span>,
}

fn load_data(dir: &Path) -> Res<DatasetSplits> {
    hisres_data::loader::load_dir(dir.join("data"), "perfbench", 1).map_err(|e| e.to_string())
}

fn load_model(dir: &Path) -> Res<HisRes> {
    span("checkpoint.load", || {
        HisRes::load_checkpoint(dir.join("model.ckpt"))
    })
    .map_err(|e| format!("checkpoint: {e}"))
}

fn read_lines(path: &Path) -> Res<Vec<String>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect())
}

fn same_bits(a: &TopK, b: &TopK) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
            }
            (None, None) => true,
            _ => false,
        })
}

/// Counters kept next to the spans: distinct pairs per scoring batch and
/// relevant-graph edges per pair.
#[derive(Default)]
struct Counts {
    batches: Cell<u64>,
    pairs: Cell<u64>,
    edges: Cell<u64>,
}

impl Counts {
    fn reset(&self) {
        self.batches.set(0);
        self.pairs.set(0);
        self.edges.set(0);
    }
}

/// The body shared by `eval::score_at_topk` and `IngestSession::score_topk`
/// after their local encodings differ: group by pair, build each pair's
/// relevant graph, run the global stage, decode top-k — one span per call.
fn score_pairs_topk(
    model: &HisRes,
    global: &GlobalHistoryIndex,
    local: &Encoded,
    queries: &[(u32, u32)],
    k: usize,
    counts: &Counts,
) -> TopK {
    let prune_k = model.cfg.global_prune_topk.unwrap_or(usize::MAX);
    let mut groups: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, &pair) in queries.iter().enumerate() {
        groups.entry(pair).or_default().push(i);
    }
    counts.batches.set(counts.batches.get() + 1);
    counts.pairs.set(counts.pairs.get() + groups.len() as u64);
    let mut out: TopK = vec![None; queries.len()];
    let mut shared: Option<(Encoded, BlockNorms)> = None;
    for (&pair, rows) in &groups {
        let g_edges = if model.cfg.use_global {
            span("graph.relevant_graph", || {
                global.relevant_graph_pruned(&[pair], prune_k)
            })
        } else {
            EdgeList::new()
        };
        counts
            .edges
            .set(counts.edges.get() + g_edges.src.len() as u64);
        let mut rng = StdRng::seed_from_u64(0);
        let preds = if g_edges.is_empty() {
            let (enc, norms) = shared.get_or_insert_with(|| {
                let enc = span("model.encode_global", || {
                    model.encode_global_with(local, &g_edges, false, &mut rng)
                });
                let norms = span("model.decode_topk", || model.entity_block_norms(&enc));
                (enc, norms)
            });
            span("model.decode_topk", || {
                model.score_objects_topk(enc, &[pair], k, Some(norms))
            })
        } else {
            let enc = span("model.encode_global", || {
                model.encode_global_with(local, &g_edges, false, &mut rng)
            });
            span("model.decode_topk", || {
                model.score_objects_topk(&enc, &[pair], k, None)
            })
        };
        for &i in rows {
            out[i] = preds.first().cloned().flatten();
        }
    }
    out
}

/// `score_at_topk` with spans: the static server's full-scorer pass.
fn static_topk(
    model: &HisRes,
    ctx: &ScoreCtx,
    queries: &[(u32, u32)],
    k: usize,
    counts: &Counts,
) -> TopK {
    span("eval.score_topk", || {
        no_grad(|| {
            let start = ctx.snapshots.len().saturating_sub(model.cfg.history_len);
            let mut rng = StdRng::seed_from_u64(0);
            let local = span("model.encode_local", || {
                model.encode_local(&ctx.snapshots[start..], ctx.t, false, &mut rng)
            });
            score_pairs_topk(model, &ctx.global, &local, queries, k, counts)
        })
    })
}

/// `IngestSession::score_topk` with spans: the live server's full-scorer
/// pass. The session's relevance index is private, so the replay keeps a
/// mirror fed with exactly the snapshots the session absorbs.
fn live_topk(
    session: &IngestSession,
    mirror: &GlobalHistoryIndex,
    queries: &[(u32, u32)],
    k: usize,
    counts: &Counts,
) -> TopK {
    span("eval.score_topk", || {
        no_grad(|| {
            let model = session.model();
            let local = span("model.state_local", || {
                model.state_local_encoding(session.state())
            });
            score_pairs_topk(model, mirror, &local, queries, k, counts)
        })
    })
}

/// Stands in for `ModelScorer` / `SessionScorer` inside the engine: the
/// top-k path (every served query) is the traced one; the dense path is
/// only the engine's start-up calibration probe.
struct Traced<D, T> {
    dense: D,
    topk: T,
}

impl<D, T> ServeScorer for Traced<D, T>
where
    D: Fn(&[(u32, u32)]) -> NdArray,
    T: Fn(&[(u32, u32)], usize) -> TopK,
{
    fn name(&self) -> &str {
        "hisres-traced"
    }
    fn score(&self, queries: &[(u32, u32)]) -> NdArray {
        (self.dense)(queries)
    }
    fn score_topk(&self, queries: &[(u32, u32)], k: usize) -> Option<TopK> {
        Some((self.topk)(queries, k))
    }
}

fn engine(data: &DatasetSplits, scorer: Box<dyn ServeScorer>) -> ServeEngine {
    let fallback =
        FrequencyScorer::from_quads(data.num_entities(), data.num_relations(), &data.all_quads());
    ServeEngine::new(
        ServeConfig::default(),
        data.num_entities(),
        data.num_relations(),
        scorer,
        Box::new(fallback),
    )
}

/// The (s, r) pairs of the last `n` query lines, for cross-checks.
fn last_pairs(lines: &[String], n: usize) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = lines
        .iter()
        .rev()
        .filter_map(|l| match parse_request(l) {
            Ok(Request::Query(q)) => match (q.s, q.r) {
                (hisres::SymbolRef::Id(s), hisres::SymbolRef::Id(r)) => Some((s, r)),
                _ => None,
            },
            _ => None,
        })
        .take(n)
        .collect();
    pairs.reverse();
    pairs
}

fn mean(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn ms(aggs: &BTreeMap<&'static str, Agg>, name: &str) -> f64 {
    aggs.get(name).map_or(0.0, Agg::mean_ms)
}

/// Median over query requests of parse + engine time: the traced share of
/// one request's latency (`serve.frontend_ms` is the served p50 minus
/// this). Each engine span carries the id of the request after the last
/// one it answered, so a request is charged the first engine span whose
/// id exceeds its own.
fn traced_request_ms(spans: &[Span]) -> f64 {
    let ingests: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "ingest.apply")
        .map(|s| s.req)
        .collect();
    let mut parse: BTreeMap<u64, f64> = BTreeMap::new();
    let mut engine: Vec<(u64, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let d = (s.end_ns - s.start_ns) as f64 / 1e6;
        match s.name {
            "serve.parse" if !ingests.contains(&s.req) => *parse.entry(s.req).or_default() += d,
            "serve.engine" => engine.push((s.req, d)),
            _ => {}
        }
    }
    let mut per_req = Vec::with_capacity(parse.len());
    for (req, p) in parse {
        if let Some(&(_, e)) = engine.iter().find(|(id, _)| *id > req) {
            per_req.push(p + e);
        }
    }
    median(per_req)
}

fn serve_metrics(
    aggs: &BTreeMap<&'static str, Agg>,
    counts: &Counts,
    spans: &[Span],
) -> Vec<(&'static str, f64)> {
    let engine = aggs.get("serve.engine").copied().unwrap_or_default();
    let rg = aggs
        .get("graph.relevant_graph")
        .copied()
        .unwrap_or_default();
    let decode_ms = aggs
        .get("model.decode_topk")
        .map_or(0.0, |a| a.total_ns as f64 / 1e6);
    vec![
        ("serve.parse_us", ms(aggs, "serve.parse") * 1e3),
        ("serve.engine_ms", engine.mean_ms()),
        (
            "serve.engine_self_ms",
            mean(engine.self_ns as f64 / 1e6, engine.count),
        ),
        ("traced_request_ms", traced_request_ms(spans)),
        ("eval.score_topk_ms", ms(aggs, "eval.score_topk")),
        (
            "eval.pairs_per_batch",
            mean(counts.pairs.get() as f64, counts.batches.get()),
        ),
        ("model.encode_local_ms", ms(aggs, "model.encode_local")),
        ("model.state_local_ms", ms(aggs, "model.state_local")),
        ("model.encode_global_ms", ms(aggs, "model.encode_global")),
        ("model.decode_topk_ms", mean(decode_ms, counts.pairs.get())),
        ("graph.relevant_graph_us", rg.mean_ms() * 1e3),
        (
            "graph.relevant_edges",
            mean(counts.edges.get() as f64, counts.pairs.get()),
        ),
    ]
}

/// The three runs of a replay: a short warm-up and an untraced run for
/// the overhead figure, and the traced run whose spans are kept.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Warmup,
    Traced,
    Untraced,
}

/// Runs `pass` as a warm-up, traced and untraced, in that order. Each pass
/// returns its result and the seconds its replay loop took per unit of
/// work (request or epoch); the traced pass's result comes back with
/// `trace.overhead_frac` = (on − off) / off, both warm.
fn with_overhead<T>(mut pass: impl FnMut(Pass) -> Res<(T, f64)>) -> Res<(T, f64)> {
    trace::set_enabled(false);
    pass(Pass::Warmup)?;
    trace::set_enabled(true);
    trace::set_request(0);
    let (out, on) = pass(Pass::Traced)?;
    let spans = trace::take();
    trace::set_enabled(false);
    let (_, off) = pass(Pass::Untraced)?;
    trace::restore(spans);
    trace::set_enabled(true);
    Ok((out, (on - off) / off.max(1e-12)))
}

/// Wall time of `eval::evaluate` on the test split, inside an `eval.rank` span.
fn rank_test(model: &HisRes, data: &DatasetSplits) -> f64 {
    let t0 = Instant::now();
    span("eval.rank", || {
        evaluate(&HisResEval { model }, data, Split::Test)
    });
    t0.elapsed().as_secs_f64()
}

/// serve_static: the open-loop query stream, one request per engine batch
/// as at low load, through a `ServeEngine` whose full scorer is the traced
/// `score_at_topk`.
pub fn replay_static(dir: &Path) -> Res<Outcome> {
    let data = load_data(dir)?;
    let lines = read_lines(&dir.join("stream.jsonl"))?;
    let counts = Rc::new(Counts::default());
    let ((replies, model, ctx), overhead) = with_overhead(|pass| {
        counts.reset();
        let model = Rc::new(load_model(dir)?);
        let ctx = Rc::new(ScoreCtx::at_end_of(&data));
        let (m, c, n) = (model.clone(), ctx.clone(), counts.clone());
        let (md, cd) = (model.clone(), ctx.clone());
        let engine = engine(
            &data,
            Box::new(Traced {
                dense: move |q: &[(u32, u32)]| hisres::score_at(&md, &cd, q),
                topk: move |q: &[(u32, u32)], k| static_topk(&m, &c, q, k, &n),
            }),
        );
        engine.calibrate();
        let t0 = Instant::now();
        let mut replies = Vec::with_capacity(lines.len());
        let n = if pass == Pass::Warmup {
            lines.len().min(16)
        } else {
            lines.len()
        };
        for (i, line) in lines[..n].iter().enumerate() {
            trace::set_request(i as u64);
            let started = Instant::now();
            let parsed = span("serve.parse", || parse_request(line));
            trace::set_request(i as u64 + 1);
            let mut out = span("serve.engine", || {
                engine.handle_parsed_batch(vec![(parsed, started)])
            });
            replies.push(out.pop().map(|r| r.line).unwrap_or_default());
        }
        Ok((
            (replies, model, ctx),
            t0.elapsed().as_secs_f64() / n.max(1) as f64,
        ))
    })?;
    let rank_s = rank_test(&model, &data);
    let spans = trace::take();
    trace::set_enabled(false);
    let pairs = last_pairs(&lines, 8);
    let same = same_bits(
        &static_topk(&model, &ctx, &pairs, 10, &Counts::default()),
        &score_at_topk(&model, &ctx, &pairs, 10),
    );
    if !same {
        return Err("traced scorer differs from score_at_topk".into());
    }
    let aggs = aggregate(&spans);
    let mut metrics = serve_metrics(&aggs, &counts, &spans);
    metrics.extend([
        ("eval.rank_s", rank_s),
        ("checkpoint.load_ms", ms(&aggs, "checkpoint.load")),
        ("trace.overhead_frac", overhead),
    ]);
    Ok(Outcome {
        metrics,
        replies,
        losses: Vec::new(),
        spans,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The held-out snapshots in `future.txt`, one per timestamp from the first.
fn future_snapshots(dir: &Path) -> Res<Vec<Snapshot>> {
    let text = std::fs::read_to_string(dir.join("future.txt")).map_err(|e| e.to_string())?;
    let quads = hisres_data::loader::parse_quads(&text, 1).map_err(|e| e.to_string())?;
    let Some(t0) = quads.iter().map(|q| q.t).min() else {
        return Ok(Vec::new());
    };
    let t1 = quads.iter().map(|q| q.t).max().unwrap_or(t0);
    let mut snaps: Vec<Snapshot> = (t0..=t1)
        .map(|t| Snapshot {
            t,
            triples: Vec::new(),
        })
        .collect();
    for q in quads {
        snaps[(q.t - t0) as usize].triples.push((q.s, q.r, q.o));
    }
    Ok(snaps)
}

/// Per-pass state of the live replay that outlives the pass.
struct LivePass {
    replies: Vec<String>,
    session: Rc<RefCell<IngestSession>>,
    mirror: Rc<RefCell<GlobalHistoryIndex>>,
    replayed: u64,
    record_bytes: u64,
}

/// serve_live: recovery over the WAL prefix, then per step one ingest and
/// that step's forecast queries as one engine batch, in the order the one
/// pipelined connection delivers them.
pub fn replay_live(dir: &Path, prefix: usize) -> Res<Outcome> {
    let data = load_data(dir)?;
    let lines = read_lines(&dir.join("stream.jsonl"))?;
    let future = future_snapshots(dir)?;
    let nr = data.num_relations();
    let counts = Rc::new(Counts::default());
    let mut pass_no = 0;
    let (live, overhead) = with_overhead(|_| {
        counts.reset();
        pass_no += 1;
        let wal_dir = dir.join(format!("trace_wal_{pass_no}"));
        copy_dir(&dir.join("wal_prefix"), &wal_dir)?;
        let (mut side_wal, _) = Wal::open(wal_dir.join("side.wal"), CorruptPolicy::Truncate)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let model = load_model(dir)?;
        let mut mirror = ScoreCtx::at_end_of(&data).global;
        for snap in future.iter().take(prefix) {
            mirror.add_snapshot(snap, nr);
        }
        let session = span("ingest.open", || {
            IngestSession::open(
                model,
                ScoreCtx::at_end_of(&data),
                IngestSessionConfig::new(wal_dir.join("wal.log")),
            )
        })
        .map_err(|e| format!("ingest open: {e}"))?;
        let replayed = session.recovery().replayed_records;
        let mut shadow = session.state().clone();
        let session = Rc::new(RefCell::new(session));
        let mirror = Rc::new(RefCell::new(mirror));
        let (s, m, n) = (session.clone(), mirror.clone(), counts.clone());
        let sd = session.clone();
        let engine = engine(
            &data,
            Box::new(Traced {
                dense: move |q: &[(u32, u32)]| sd.borrow().score(q),
                topk: move |q: &[(u32, u32)], k| live_topk(&s.borrow(), &m.borrow(), q, k, &n),
            }),
        );
        engine.calibrate();
        let mut replies = Vec::with_capacity(lines.len());
        let mut batch = Vec::new();
        let mut record_bytes = 0u64;
        let flush = |batch: &mut Vec<_>, replies: &mut Vec<String>| {
            if !batch.is_empty() {
                let out = span("serve.engine", || {
                    engine.handle_parsed_batch(std::mem::take(batch))
                });
                replies.extend(out.into_iter().map(|r| r.line));
            }
        };
        for (i, line) in lines.iter().enumerate() {
            trace::set_request(i as u64);
            let started = Instant::now();
            let req = match span("serve.parse", || parse_request(line)) {
                Ok(Request::Ingest(req)) => req,
                parsed => {
                    batch.push((parsed, started));
                    continue;
                }
            };
            flush(&mut batch, &mut replies);
            match span("ingest.apply", || {
                session.borrow_mut().ingest(req.seq, req.t, &req.quads)
            }) {
                Ok(IngestOutcome::Applied { seq, .. }) => replies.push(format!(
                    "{{\"ok\":true,\"ingest\":\"applied\",\"seq\":{seq}}}"
                )),
                Ok(IngestOutcome::Duplicate { .. }) => {
                    return Err(format!("ingest seq {} acked as a duplicate", req.seq))
                }
                Err(e) => return Err(format!("ingest seq {} failed: {e}", req.seq)),
            }
            // Side measurements of the steps `ingest` performs inside it:
            // the fsync'd append of the same record, the encoder advance
            // and the relevance-index update.
            let snap = Snapshot {
                t: req.t.unwrap_or(shadow.t),
                triples: req.quads.clone(),
            };
            let rec = IngestRecord {
                seq: req.seq,
                t: snap.t,
                triples: req.quads,
            };
            let payload = hisres_util::json::to_string(&rec).map_err(|e| e.to_string())?;
            record_bytes += payload.len() as u64;
            span("wal.append", || side_wal.append(payload.as_bytes()))
                .map_err(|e| e.to_string())?;
            {
                let s = session.borrow();
                span("model.advance", || {
                    s.model().advance_encoder_state(&mut shadow, &snap)
                });
            }
            span("graph.add_snapshot", || {
                mirror.borrow_mut().add_snapshot(&snap, nr)
            });
            trace::set_request(i as u64 + 1);
        }
        trace::set_request(lines.len() as u64);
        flush(&mut batch, &mut replies);
        let secs = t0.elapsed().as_secs_f64() / lines.len().max(1) as f64;
        if session.borrow().state() != &shadow {
            return Err("shadow encoder state diverged from the session".into());
        }
        Ok((
            LivePass {
                replies,
                session,
                mirror,
                replayed,
                record_bytes,
            },
            secs,
        ))
    })?;
    let model = HisRes::load_checkpoint(dir.join("model.ckpt")).map_err(|e| e.to_string())?;
    let rank_s = rank_test(&model, &data);
    let spans = trace::take();
    trace::set_enabled(false);
    let pairs = last_pairs(&lines, 8);
    let session = live.session.borrow();
    let same = same_bits(
        &live_topk(
            &session,
            &live.mirror.borrow(),
            &pairs,
            10,
            &Counts::default(),
        ),
        &session.score_topk(&pairs, 10),
    );
    if !same {
        return Err("traced scorer differs from IngestSession::score_topk".into());
    }
    let aggs = aggregate(&spans);
    let ingests = aggs.get("ingest.apply").map_or(0, |a| a.count);
    let mut metrics = serve_metrics(&aggs, &counts, &spans);
    metrics.extend([
        ("eval.rank_s", rank_s),
        ("model.advance_ms", ms(&aggs, "model.advance")),
        (
            "graph.add_snapshot_us",
            ms(&aggs, "graph.add_snapshot") * 1e3,
        ),
        ("ingest.apply_ms", ms(&aggs, "ingest.apply")),
        ("ingest.open_ms", ms(&aggs, "ingest.open")),
        ("ingest.replayed_records", live.replayed as f64),
        ("wal.append_ms", ms(&aggs, "wal.append")),
        (
            "wal.bytes_per_record",
            mean(live.record_bytes as f64, ingests),
        ),
        ("checkpoint.load_ms", ms(&aggs, "checkpoint.load")),
        ("trace.overhead_frac", overhead),
    ]);
    let replies = live.replies.clone();
    drop(session);
    Ok(Outcome {
        metrics,
        replies,
        losses: Vec::new(),
        spans,
    })
}

/// train: `train_with`'s loop for the CLI's default configuration and
/// skip-step guard, rebuilt from the public step kernels with a span
/// around each stage. Its per-epoch lines must equal the CLI's.
pub fn replay_train(dir: &Path, epochs: usize) -> Res<Outcome> {
    let data = load_data(dir)?;
    // `hisres train` defaults (crates/cli/src/commands.rs).
    let mut cfg = HisResConfig::default();
    cfg.dim = 32;
    cfg.conv_channels = (cfg.dim / 4).max(2);
    cfg.history_len = 3;
    cfg.seed = 42;
    let tc = TrainConfig {
        epochs,
        lr: 0.01,
        patience: 3,
        verbose: false,
        guard: GuardPolicy::SkipStep,
        ..Default::default()
    };
    let ((losses, model), overhead) = with_overhead(|pass| {
        let t0 = Instant::now();
        let model = HisRes::new(&cfg, data.num_entities(), data.num_relations());
        let tc = TrainConfig {
            epochs: match pass {
                Pass::Warmup => 1,
                Pass::Traced => tc.epochs,
                Pass::Untraced => tc.epochs.min(3),
            },
            ..tc.clone()
        };
        let losses = train_loop(&model, &data, &tc)?;
        let per_epoch = t0.elapsed().as_secs_f64() / losses.len().max(1) as f64;
        Ok(((losses, model), per_epoch))
    })?;
    let rank_s = rank_test(&model, &data);
    // The checkpoint `hisres train` wrote, loaded as `hisres eval` loads it.
    load_model(dir)?;
    let spans = trace::take();
    let aggs = aggregate(&spans);
    let steps = aggs.get("train.forward").map_or(0, |a| a.count);
    let per_step = |name: &str| {
        mean(
            aggs.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e6),
            steps,
        )
    };
    let metrics = vec![
        ("eval.rank_s", rank_s),
        (
            "graph.add_snapshot_us",
            ms(&aggs, "graph.add_snapshot") * 1e3,
        ),
        ("checkpoint.load_ms", ms(&aggs, "checkpoint.load")),
        ("train.graph_ms", per_step("train.graph")),
        ("train.forward_ms", per_step("train.forward")),
        ("train.backward_ms", per_step("train.backward")),
        ("train.clip_ms", per_step("train.clip")),
        ("train.adam_ms", per_step("train.adam")),
        ("train.steps", mean(steps as f64, losses.len() as u64)),
        ("trace.overhead_frac", overhead),
    ];
    Ok(Outcome {
        metrics,
        replies: Vec::new(),
        losses,
        spans,
    })
}

/// One training run; returns the per-epoch progress lines exactly as
/// `hisres train` prints them.
fn train_loop(model: &HisRes, data: &DatasetSplits, tc: &TrainConfig) -> Res<Vec<String>> {
    let mut opt = Adam::new(model.store.params().cloned().collect(), tc.lr);
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let snaps = snapshots_of(&data.train);
    let nr = model.num_relations();
    let prune_k = model.cfg.global_prune_topk.unwrap_or(usize::MAX);
    let mut lines = Vec::new();
    let mut best_mrr = 0.0f64;
    let mut best: Option<String> = None;
    let mut since_best = 0usize;
    for epoch in 0..tc.epochs {
        let mut global = GlobalHistoryIndex::new();
        let mut loss_sum = 0.0f64;
        let mut steps = 0usize;
        for (t, target) in snaps.iter().enumerate() {
            if target.triples.is_empty() {
                continue;
            }
            trace::set_request((epoch * snaps.len() + t) as u64);
            if t > 0 {
                opt.zero_grad();
                let start = t.saturating_sub(model.cfg.history_len);
                let g_edges = if model.cfg.use_global {
                    span("train.graph", || {
                        global.relevant_graph_pruned(&query_pairs(&target.triples, nr), prune_k)
                    })
                } else {
                    EdgeList::new()
                };
                let loss = span("train.forward", || {
                    model.loss_at(
                        &snaps[start..t],
                        target.t,
                        &target.triples,
                        &g_edges,
                        &mut rng,
                    )
                });
                let lv = loss.value().item();
                let ok = lv.is_finite() && {
                    span("train.backward", || loss.backward());
                    span("train.clip", || {
                        clip_grad_norm(model.store.params(), tc.grad_clip)
                    })
                    .is_finite()
                };
                if ok {
                    span("train.adam", || opt.step());
                    loss_sum += f64::from(lv);
                    steps += 1;
                } else {
                    opt.zero_grad();
                }
            }
            span("graph.add_snapshot", || global.add_snapshot(target, nr));
        }
        let mean_loss = (loss_sum / steps.max(1) as f64) as f32;
        let res = span("eval.valid", || {
            evaluate(&HisResEval { model }, data, Split::Valid)
        });
        lines.push(format!(
            "epoch {epoch}: loss {mean_loss:.4}, valid MRR {:.2}",
            res.mrr
        ));
        if res.mrr > best_mrr {
            best_mrr = res.mrr;
            best = Some(model.store.to_json());
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= tc.patience {
                break;
            }
        }
    }
    if let Some(params) = best {
        model.store.load_json(&params).map_err(|e| e.to_string())?;
    }
    Ok(lines)
}
