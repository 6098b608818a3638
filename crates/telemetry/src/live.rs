//! Live mode: periodic snapshot-delta frames for a running exploration.
//!
//! When `GILLIAN_LIVE=path.jsonl` is set, every exploration emits one JSON
//! frame roughly every `GILLIAN_LIVE_EVERY_MS` (default 250ms) with the
//! run's progress — finished paths, frontier size/depth, commands,
//! paths/sec over the last frame interval — plus the nonzero **counter
//! deltas** of the metrics registry since the previous frame. The
//! `gillian-top` binary tails the file and renders an in-place terminal
//! dashboard; the frame schema ([`LIVE_SCHEMA`]) is the precursor of the
//! future service-mode event stream, so it is versioned and validated.
//!
//! Disabled (the default) costs one `Option` branch per exploration
//! round; no sampler thread is spawned, no clock is read and nothing is
//! written.
//!
//! Frame schema (`gillian-live-v1`), one JSON object per line:
//!
//! ```json
//! {"type":"live_frame","schema":"gillian-live-v1","seq":3,
//!  "ts_micros":1234,"wall_micros":750123,"paths":128,"pending":17,
//!  "depth":9,"cmds":40960,"paths_per_sec":170.7,"workers":4,
//!  "final":false,"counters":{"solver.sat_queries":512}}
//! ```

use crate::export;
use crate::json::ObjWriter;
use crate::metrics::{registry, MetricsSnapshot};
use crate::names;
use crate::now_micros;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Schema tag stamped into every live frame.
pub const LIVE_SCHEMA: &str = "gillian-live-v1";

/// Default frame interval when `GILLIAN_LIVE_EVERY_MS` is unset.
pub const DEFAULT_EVERY_MS: u64 = 250;

/// A progress sample the engine hands to [`LiveSink::tick`]. All fields
/// are cheap reads the engines already have (loop-local counts or
/// relaxed atomics).
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveStats {
    /// Paths recorded in the result so far.
    pub paths_finished: u64,
    /// Worklist/frontier size (pending paths).
    pub pending: u64,
    /// Depth hint: branch-trace length of the path last stepped (or the
    /// deepest pending item — engines pick what they can see cheaply).
    pub depth: u32,
    /// Commands executed so far.
    pub cmds: u64,
    /// Workers driving the run.
    pub workers: u32,
}

/// Cached `GILLIAN_LIVE` / `GILLIAN_LIVE_EVERY_MS` configuration.
fn env_config() -> &'static (Option<String>, u64) {
    static CONFIG: OnceLock<(Option<String>, u64)> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let path = std::env::var("GILLIAN_LIVE").ok().filter(|s| !s.is_empty());
        let every = std::env::var("GILLIAN_LIVE_EVERY_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&ms: &u64| ms > 0)
            .unwrap_or(DEFAULT_EVERY_MS);
        (path, every)
    })
}

/// The live JSONL sink of one exploration run, ticked by the engine's
/// sampler thread; frames are flushed as they are written so tailing
/// tools see them promptly.
#[derive(Debug)]
pub struct LiveSink {
    file: std::fs::File,
    every: Duration,
    started: Instant,
    last_emit: Option<Instant>,
    prev_metrics: MetricsSnapshot,
    prev_paths: u64,
    seq: u64,
}

impl LiveSink {
    /// The sink `GILLIAN_LIVE` asks for, or `None` (the default).
    pub fn from_env() -> Option<LiveSink> {
        let (path, every_ms) = env_config();
        LiveSink::to_path(path.as_deref()?, *every_ms)
    }

    /// A sink writing frames to `path` every `every_ms` milliseconds.
    /// The process's first open truncates; later runs append.
    pub fn to_path(path: &str, every_ms: u64) -> Option<LiveSink> {
        let (file, _) = export::open_sink(path)?;
        Some(LiveSink {
            file,
            every: Duration::from_millis(every_ms.max(1)),
            started: Instant::now(),
            last_emit: None,
            prev_metrics: registry().snapshot(),
            prev_paths: 0,
            seq: 0,
        })
    }

    /// The configured frame interval.
    pub fn every(&self) -> Duration {
        self.every
    }

    /// Emits a frame when the interval has elapsed since the last one
    /// (the first tick emits immediately). Returns whether a frame was
    /// written.
    pub fn tick(&mut self, stats: &LiveStats) -> bool {
        let due = match self.last_emit {
            None => true,
            Some(at) => at.elapsed() >= self.every,
        };
        if due {
            self.emit(stats, false);
        }
        due
    }

    /// Emits the run's closing frame (`"final":true`) regardless of the
    /// interval, so a dashboard can show terminal state and exit.
    pub fn finish(&mut self, stats: &LiveStats) {
        self.emit(stats, true);
    }

    fn emit(&mut self, stats: &LiveStats, final_frame: bool) {
        let now = Instant::now();
        let dt = self
            .last_emit
            .map(|at| now.duration_since(at))
            .unwrap_or_else(|| self.started.elapsed());
        let snapshot = registry().snapshot();
        let delta = snapshot.clone().since(&self.prev_metrics);
        let paths_per_sec = if dt.as_secs_f64() > 0.0 {
            (stats.paths_finished.saturating_sub(self.prev_paths)) as f64 / dt.as_secs_f64()
        } else {
            0.0
        };
        let mut counters = ObjWriter::new();
        for (name, value) in delta.counters() {
            if value > 0 {
                counters.u64(name, value);
            }
        }
        let line = ObjWriter::new()
            .str("type", "live_frame")
            .str("schema", LIVE_SCHEMA)
            .u64("seq", self.seq)
            .u64("ts_micros", now_micros())
            .u64("wall_micros", self.started.elapsed().as_micros() as u64)
            .u64("paths", stats.paths_finished)
            .u64("pending", stats.pending)
            .u64("depth", stats.depth as u64)
            .u64("cmds", stats.cmds)
            .f64("paths_per_sec", (paths_per_sec * 10.0).round() / 10.0)
            .u64("workers", stats.workers as u64)
            .bool("final", final_frame)
            .raw("counters", &counters.finish())
            .finish();
        let _ = self.file.write_all(line.as_bytes());
        let _ = self.file.write_all(b"\n");
        let _ = self.file.flush();
        registry().counter(names::LIVE_FRAMES).incr();
        self.seq += 1;
        self.last_emit = Some(now);
        self.prev_metrics = snapshot;
        self.prev_paths = stats.paths_finished;
    }
}

/// Validates a live JSONL file: every line is a schema-tagged
/// `live_frame` with the required fields, seq numbers ascend per run
/// (they reset when a new run starts appending). Returns the frame
/// count.
pub fn validate_live(text: &str) -> Result<u64, String> {
    use crate::json::{self, Value};
    let mut frames = 0u64;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ty = v.get("type").and_then(Value::as_str);
        if ty != Some("live_frame") {
            return Err(format!("line {lineno}: not a live_frame ({ty:?})"));
        }
        let schema = v.get("schema").and_then(Value::as_str);
        if schema != Some(LIVE_SCHEMA) {
            return Err(format!("line {lineno}: unknown schema {schema:?}"));
        }
        for field in [
            "seq",
            "ts_micros",
            "wall_micros",
            "paths",
            "pending",
            "depth",
            "cmds",
            "paths_per_sec",
            "workers",
        ] {
            if v.get(field).is_none() {
                return Err(format!("line {lineno}: frame missing \"{field}\""));
            }
        }
        if !v.get("counters").map(Value::is_obj).unwrap_or(false) {
            return Err(format!("line {lineno}: frame missing counters object"));
        }
        frames += 1;
    }
    if frames == 0 {
        return Err("live file contains no frames".into());
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("gillian-live-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn frames_write_validate_and_delta() {
        let path = tmp("frames.jsonl");
        let mut sink = LiveSink::to_path(&path, 1000).expect("sink opens");
        let c = registry().counter("test.live_probe");
        c.add(3);
        assert!(sink.tick(&LiveStats {
            paths_finished: 2,
            pending: 5,
            depth: 3,
            cmds: 40,
            workers: 1,
        }));
        // Second tick inside the interval: suppressed.
        assert!(!sink.tick(&LiveStats::default()));
        c.add(4);
        sink.finish(&LiveStats {
            paths_finished: 6,
            pending: 0,
            depth: 0,
            cmds: 99,
            workers: 1,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate_live(&text).unwrap(), 2);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"test.live_probe\":3"));
        assert!(
            lines[1].contains("\"test.live_probe\":4"),
            "second frame carries only the delta: {}",
            lines[1]
        );
        assert!(lines[1].contains("\"final\":true"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validation_rejects_malformed_frames() {
        assert!(validate_live("").is_err());
        assert!(validate_live("{\"type\":\"nope\"}\n").is_err());
        assert!(
            validate_live(&format!(
                "{{\"type\":\"live_frame\",\"schema\":\"{LIVE_SCHEMA}\"}}\n"
            ))
            .is_err(),
            "missing required fields"
        );
    }
}
