//! Seeded workload inputs: a synthetic timeline split into the history
//! the program is given (a dataset directory `hisres` loads) and the
//! held-out future the benchmark replays against it.

use hisres_data::synthetic::{generate, SyntheticConfig};
use hisres_data::DatasetSplits;
use hisres_graph::{Quad, Tkg};
use std::fmt::Write as _;
use std::path::Path;

/// Size class of a generated timeline.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A toy size for the benchmark's self-check.
    Toy,
}

/// Timeline shape of one workload.
struct Shape {
    /// Generator parameters (the seed is filled in from the workload seed).
    cfg: SyntheticConfig,
    /// Leading timestamps given to the program as its dataset.
    history: usize,
    /// Of the held-out future, the leading snapshots that are ingested
    /// before set-up (serve_live's WAL prefix); 0 elsewhere.
    prefix: usize,
}

/// The icews14s-syn generator configuration with another seed and length.
fn icews14s_like(num_timestamps: usize) -> SyntheticConfig {
    SyntheticConfig {
        num_timestamps,
        ..hisres_data::datasets::icews14s_config()
    }
}

/// The shape of `workload` at `size`.
fn shape(workload: &str, size: Size) -> Result<Shape, String> {
    let toy = size == Size::Toy;
    Ok(match workload {
        // ~2k entities with a short history: one training epoch takes
        // seconds, and the windowed local encode over |E| entities is the
        // dominant per-batch cost of serving.
        "serve_static" => {
            let (e, hist) = if toy { (200, 16) } else { (2000, 24) };
            let cfg = SyntheticConfig {
                num_entities: e,
                num_relations: 40,
                num_timestamps: hist + 2,
                periodic_patterns: e / 2,
                period_range: (4, 12),
                periodic_fire_prob: 0.9,
                causal_rules: 10,
                causal_fire_prob: 0.75,
                trigger_events_per_t: e / 40,
                recency_repeat_prob: 0.5,
                recency_draws_per_t: e / 60,
                noise_events_per_t: e / 60,
                seed: 0,
            };
            Shape {
                cfg,
                history: hist,
                prefix: 0,
            }
        }
        // icews14s-syn's shape, extended past its 120 timestamps so the
        // held-out tail holds a WAL prefix plus >= 100 live ingests.
        "serve_live" => {
            let (hist, prefix, tail) = if toy { (40, 4, 12) } else { (100, 20, 130) };
            Shape {
                cfg: icews14s_like(hist + prefix + tail),
                history: hist,
                prefix,
            }
        }
        // icews14s-syn as shipped (120 timestamps); no held-out future.
        "train" => Shape {
            cfg: icews14s_like(if toy { 40 } else { 120 }),
            history: 0,
            prefix: 0,
        },
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn dump(quads: &[Quad]) -> String {
    let mut s = String::new();
    for q in quads {
        let _ = writeln!(s, "{}\t{}\t{}\t{}", q.s, q.r, q.o, q.t);
    }
    s
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `out/data/{train,valid,test,stat}.txt` (the program's dataset)
/// and `out/future.txt` (the held-out events after it). Returns the sizes
/// as one JSON object.
pub fn write_inputs(workload: &str, seed: u64, size: Size, out: &Path) -> Result<String, String> {
    let mut sh = shape(workload, size)?;
    // Distinct generator streams per workload for the same seed.
    let salt = match workload {
        "serve_static" => 1,
        "serve_live" => 2,
        _ => 3,
    };
    sh.cfg.seed = seed.wrapping_mul(1_000_003).wrapping_add(salt);
    let g = generate(&sh.cfg);
    let (hist, future): (Vec<Quad>, Vec<Quad>) = if sh.history == 0 {
        (g.tkg.quads.clone(), Vec::new())
    } else {
        g.tkg
            .quads
            .iter()
            .partition(|q| (q.t as usize) < sh.history)
    };
    let tkg = Tkg::new(sh.cfg.num_entities, sh.cfg.num_relations, hist);
    let splits = DatasetSplits::from_tkg(workload, "1 step", &tkg);
    let data = out.join("data");
    std::fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
    write(&data.join("train.txt"), &dump(&splits.train.quads))?;
    write(&data.join("valid.txt"), &dump(&splits.valid.quads))?;
    write(&data.join("test.txt"), &dump(&splits.test.quads))?;
    write(
        &data.join("stat.txt"),
        &format!("{} {}\n", sh.cfg.num_entities, sh.cfg.num_relations),
    )?;
    write(&out.join("future.txt"), &dump(&future))?;
    let history_snapshots = tkg.timestamps().last().map_or(0, |&t| t as usize + 1);
    let future_snapshots = sh.cfg.num_timestamps - history_snapshots;
    Ok(format!(
        "{{\"entities\":{},\"relations\":{},\"history_snapshots\":{},\"history_facts\":{},\
         \"train_facts\":{},\"valid_facts\":{},\"test_facts\":{},\"future_snapshots\":{},\
         \"future_facts\":{},\"prefix_snapshots\":{},\"generator_seed\":{}}}",
        sh.cfg.num_entities,
        sh.cfg.num_relations,
        history_snapshots,
        tkg.quads.len(),
        splits.train.len(),
        splits.valid.len(),
        splits.test.len(),
        future_snapshots,
        future.len(),
        sh.prefix,
        sh.cfg.seed
    ))
}
