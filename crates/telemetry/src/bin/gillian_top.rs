//! `gillian-top` — a live terminal dashboard for a running exploration.
//!
//! Tails the `GILLIAN_LIVE` JSONL file (snapshot-delta frames emitted by
//! the engines, schema `gillian-live-v2`) and renders an in-place
//! dashboard: paths/sec, frontier size and depth, command throughput,
//! and the hottest counter deltas of the last frame. Zero dependencies —
//! plain ANSI escapes, the crate's own JSON parser.
//!
//! Usage: `gillian-top [--once] [path.jsonl]`
//!
//! The path defaults to `$GILLIAN_LIVE`. `--once` reads whatever frames
//! exist, renders the latest state once (without escapes), and exits —
//! what CI uses to assert the live sink worked. In follow mode the
//! dashboard exits when it sees a frame with `"final":true` after the
//! file stops growing, or on Ctrl-C.

use gillian_telemetry::json::{self, Value};
use gillian_telemetry::live::LIVE_SCHEMA;
use std::time::Duration;

/// One parsed live frame (only what the dashboard shows).
#[derive(Clone, Debug, Default)]
struct Frame {
    seq: u64,
    wall_micros: u64,
    paths: u64,
    pending: u64,
    depth: u64,
    cmds: u64,
    paths_per_sec: f64,
    is_final: bool,
    counters: Vec<(String, u64)>,
}

fn parse_frame(line: &str) -> Option<Frame> {
    let v = json::parse(line).ok()?;
    if v.get("type").and_then(Value::as_str) != Some("live_frame")
        || v.get("schema").and_then(Value::as_str) != Some(LIVE_SCHEMA)
    {
        return None;
    }
    let num = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let mut counters: Vec<(String, u64)> = match v.get("counters") {
        Some(Value::Obj(m)) => m
            .iter()
            .filter_map(|(k, c)| c.as_u64().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    };
    counters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Some(Frame {
        seq: num("seq"),
        wall_micros: num("wall_micros"),
        paths: num("paths"),
        pending: num("pending"),
        depth: num("depth"),
        cmds: num("cmds"),
        paths_per_sec: v
            .get("paths_per_sec")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        is_final: matches!(v.get("final"), Some(Value::Bool(true))),
        counters,
    })
}

/// Renders the dashboard for the latest frame plus a paths/sec history
/// sparkbar over recent frames.
fn render(frame: &Frame, history: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gillian-top · frame {} · wall {:.1}s{}",
        frame.seq,
        frame.wall_micros as f64 / 1e6,
        if frame.is_final { " · FINISHED" } else { "" }
    );
    let _ = writeln!(
        out,
        "paths {:>8} done · {:>6} pending · depth {:>3} · {:>10} cmds",
        frame.paths, frame.pending, frame.depth, frame.cmds
    );
    let peak = history.iter().cloned().fold(1.0_f64, f64::max);
    let bars: String = history
        .iter()
        .map(|&r| {
            const LEVELS: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];
            let i = ((r / peak) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[i.min(LEVELS.len() - 1)]
        })
        .collect();
    let _ = writeln!(
        out,
        "rate  {:>8.1} paths/s  [{bars:>30}]  peak {peak:.1}",
        frame.paths_per_sec
    );
    if !frame.counters.is_empty() {
        let _ = writeln!(out, "hot counters (delta since last frame):");
        for (name, value) in frame.counters.iter().take(8) {
            let _ = writeln!(out, "  {name:<36} {value:>12}");
        }
    }
    out
}

fn main() {
    let mut once = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--once" => once = true,
            "--help" | "-h" => {
                println!(
                    "usage: gillian-top [--once] [live.jsonl]  (path defaults to $GILLIAN_LIVE)"
                );
                return;
            }
            other => path = Some(other.to_string()),
        }
    }
    let Some(path) = path.or_else(|| std::env::var("GILLIAN_LIVE").ok().filter(|s| !s.is_empty()))
    else {
        eprintln!("gillian-top: no live file (pass a path or set GILLIAN_LIVE)");
        std::process::exit(2);
    };

    let mut offset = 0usize;
    let mut latest: Option<Frame> = None;
    let mut history: Vec<f64> = Vec::new();
    let mut idle_polls = 0u32;
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            // A later run truncates the file on its first write: restart.
            if text.len() < offset {
                offset = 0;
                history.clear();
            }
            let fresh = &text[offset..];
            // Only consume complete lines; a frame mid-write stays for
            // the next poll.
            let consumed = fresh.rfind('\n').map(|i| i + 1).unwrap_or(0);
            for line in fresh[..consumed].lines() {
                if let Some(frame) = parse_frame(line) {
                    history.push(frame.paths_per_sec);
                    if history.len() > 30 {
                        history.remove(0);
                    }
                    latest = Some(frame);
                }
            }
            if consumed > 0 {
                idle_polls = 0;
            } else {
                idle_polls += 1;
            }
            offset += consumed;
        }
        if once {
            break;
        }
        if let Some(frame) = &latest {
            // In-place redraw: home the cursor, clear below, repaint.
            print!("\x1b[H\x1b[2J{}", render(frame, &history));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            if frame.is_final && idle_polls >= 2 {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    match &latest {
        Some(frame) => {
            if once {
                print!("{}", render(frame, &history));
            } else {
                println!("gillian-top: run finished after {} frame(s)", frame.seq + 1);
            }
        }
        None => {
            eprintln!("gillian-top: {path}: no live frames found");
            std::process::exit(1);
        }
    }
}
