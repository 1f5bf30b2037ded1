//! `perfbench-tracer` — the in-process half of the repository benchmark
//! (`perfbench/run.py` drives it; see `perfbench/README.md`).
//!
//! ```text
//! perfbench-tracer gen   --workload W --seed N --out DIR [--toy]
//! perfbench-tracer trace --workload W --dir DIR [--prefix P] [--epochs E]
//! ```
//!
//! `gen` writes the workload's seeded inputs and prints their sizes as
//! JSON. `trace` replays the workload's operation stream from `DIR` with a
//! span around each layer call, writes `spans.jsonl`, `trace_replies.txt`
//! and `trace_losses.txt` into `DIR`, and prints the per-layer metrics as
//! one JSON object.

mod gen;
mod replay;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn need<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    opt(args, key).ok_or_else(|| format!("missing {key}"))
}

fn number<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match opt(args, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{key}: cannot parse {v:?}")),
    }
}

fn write(path: PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = need(args, "--workload")?;
    match args.first().map(String::as_str) {
        Some("gen") => {
            let size = if args.iter().any(|a| a == "--toy") {
                gen::Size::Toy
            } else {
                gen::Size::Full
            };
            let seed = number(args, "--seed", 0u64)?;
            let out = PathBuf::from(need(args, "--out")?);
            println!("{}", gen::write_inputs(workload, seed, size, &out)?);
        }
        Some("trace") => {
            let dir = PathBuf::from(need(args, "--dir")?);
            let outcome = match workload {
                "serve_static" => replay::replay_static(&dir)?,
                "serve_live" => replay::replay_live(&dir, number(args, "--prefix", 0usize)?)?,
                "train" => replay::replay_train(&dir, number(args, "--epochs", 1usize)?)?,
                other => return Err(format!("unknown workload {other:?}")),
            };
            write(dir.join("spans.jsonl"), &trace::to_jsonl(&outcome.spans))?;
            write(dir.join("trace_replies.txt"), &outcome.replies.join("\n"))?;
            write(dir.join("trace_losses.txt"), &outcome.losses.join("\n"))?;
            let fields: Vec<String> = outcome
                .metrics
                .iter()
                .map(|(k, v)| {
                    format!(
                        "\"{k}\":{}",
                        if v.is_finite() {
                            v.to_string()
                        } else {
                            "null".into()
                        }
                    )
                })
                .collect();
            println!("{{{}}}", fields.join(","));
        }
        _ => return Err("usage: perfbench-tracer gen|trace --workload W ...".into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
