//! Spans recorded by the benchmark around its calls into each layer, the
//! self-time arithmetic over them, and their JSONL form.
//!
//! Every traced test is one request: a `test` root span with children
//! for exploration (`explore`), everything after it up to the verdict
//! (`verdict`, itself holding `model` searches and concrete `replay`s),
//! or the whole oracle run (`difftest`). Under `explore` hang three
//! *aggregate* children taken from the root of the exploration-tree
//! profile: `exec.dispatch`, `solver.sat` and `memory.action`. The
//! profiler reports dispatcher time inclusive of the solver and memory
//! time spent inside it, so dispatch self time is step − sat − action.
//! Aggregates have no position of their own; they are laid end to end
//! from their parent's start, which makes them disjoint and lets one
//! union rule compute every self time.

use gillian_telemetry::json::ObjWriter;
use gillian_telemetry::NodeCost;
use std::collections::BTreeMap;
use std::io::Write as _;

/// One span. Times are µs on the telemetry clock
/// ([`gillian_telemetry::now_micros`]), which the engine's own journal
/// events share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The request (test execution) the span belongs to.
    pub req: u64,
    /// Id within the request, from 1.
    pub id: u32,
    /// The enclosing span's id, 0 for the request's root.
    pub parent: u32,
    pub name: String,
    /// The test name on root spans, empty elsewhere.
    pub label: String,
    pub start_us: u64,
    pub dur_us: u64,
    /// Operations the span stands for (queries, actions, commands).
    pub count: u64,
}

impl Span {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// One JSONL line (no newline).
    pub fn to_json(&self) -> String {
        ObjWriter::new()
            .u64("req", self.req)
            .u64("id", u64::from(self.id))
            .u64("parent", u64::from(self.parent))
            .str("name", &self.name)
            .str("label", &self.label)
            .u64("start_us", self.start_us)
            .u64("dur_us", self.dur_us)
            .u64("count", self.count)
            .finish()
    }

    /// Parses a line written by [`Span::to_json`].
    #[cfg(test)]
    pub fn from_json(line: &str) -> Result<Span, String> {
        use gillian_telemetry::json;
        let v = json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("span field {k} missing or not a count"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("span field {k} missing or not a string"))
        };
        let id = |k: &str| num(k).and_then(|n| u32::try_from(n).map_err(|e| format!("{k}: {e}")));
        Ok(Span {
            req: num("req")?,
            id: id("id")?,
            parent: id("parent")?,
            name: text("name")?,
            label: text("label")?,
            start_us: num("start_us")?,
            dur_us: num("dur_us")?,
            count: num("count")?,
        })
    }
}

/// Builds the span tree of one request.
#[derive(Debug, Default)]
pub struct Recorder {
    req: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(req: u64) -> Recorder {
        Recorder {
            req,
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now; returns its id.
    pub fn open(&mut self, name: &str, parent: u32) -> u32 {
        self.push(name, parent, gillian_telemetry::now_micros(), 0, 1)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        let span = &mut self.spans[id as usize - 1];
        span.dur_us = gillian_telemetry::now_micros().saturating_sub(span.start_us);
    }

    /// Records a span with known bounds; returns its id.
    pub fn push(&mut self, name: &str, parent: u32, start_us: u64, dur_us: u64, count: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            req: self.req,
            id,
            parent,
            name: name.to_string(),
            label: String::new(),
            start_us,
            dur_us,
            count,
        });
        id
    }

    /// Names the request (on its root span).
    pub fn label(&mut self, id: u32, label: &str) {
        self.spans[id as usize - 1].label = label.to_string();
    }

    /// The start of span `id`.
    pub fn start_of(&self, id: u32) -> u64 {
        self.spans[id as usize - 1].start_us
    }

    /// The end of span `id`.
    pub fn end_of(&self, id: u32) -> u64 {
        self.spans[id as usize - 1].end_us()
    }

    /// Adds the aggregate layer children of `explore` from the root cost
    /// of its exploration-tree profile.
    pub fn profile(&mut self, explore: u32, root: &NodeCost) {
        let dispatch = root
            .step_micros
            .saturating_sub(root.sat_micros + root.action_micros);
        let mut at = self.start_of(explore);
        for (name, dur, count) in [
            ("exec.dispatch", dispatch, root.step_cmds),
            ("solver.sat", root.sat_micros, root.sat_queries),
            ("memory.action", root.action_micros, root.actions),
        ] {
            self.push(name, explore, at, dur, count);
            at += dur;
        }
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its children's intervals cover. Children
/// are matched by `(req, parent)`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<(u64, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry((s.req, s.parent))
            .or_default()
            .push((s.start_us, s.end_us()));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&(s.req, s.id)).map_or(&[][..], Vec::as_slice);
            s.dur_us - covered(s.start_us, s.end_us(), kids)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-layer totals over many requests: summed self time, summed
/// duration and summed operation count, by span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub self_us: u64,
    pub dur_us: u64,
    pub count: u64,
}

/// Totals by span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<String, LayerTotal> {
    let mut out: BTreeMap<String, LayerTotal> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name.clone()).or_default();
        t.self_us += self_us;
        t.dur_us += s.dur_us;
        t.count += s.count;
    }
    out
}

/// Writes spans as JSONL, one per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &str, start_us: u64, dur_us: u64) -> Span {
        Span {
            req: 1,
            id,
            parent,
            name: name.into(),
            label: String::new(),
            start_us,
            dur_us,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // test [0,100) with explore [10,60) and verdict [60,90); explore
        // holds two overlapping children [10,30) and [20,40), so its
        // covered part is [10,40).
        let spans = vec![
            span(1, 0, "test", 0, 100),
            span(2, 1, "explore", 10, 50),
            span(3, 1, "verdict", 60, 30),
            span(4, 2, "a", 10, 20),
            span(5, 2, "b", 20, 20),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 20, 20]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, 0, "test", 10, 10), span(2, 1, "late", 15, 50)];
        assert_eq!(self_times(&spans), vec![5, 50]);
    }

    #[test]
    fn dispatch_self_time_excludes_sat_and_action_time() {
        let mut rec = Recorder::new(7);
        let test = rec.push("test", 0, 1_000, 900, 1);
        let explore = rec.push("explore", test, 1_000, 800, 1);
        let root = NodeCost {
            sat_queries: 40,
            sat_micros: 300,
            actions: 12,
            action_micros: 100,
            step_cmds: 5_000,
            step_micros: 700,
        };
        rec.profile(explore, &root);
        let spans = rec.finish();
        let totals = layer_totals(&spans);
        assert_eq!(totals["exec.dispatch"].self_us, 300);
        assert_eq!(totals["solver.sat"].self_us, 300);
        assert_eq!(totals["memory.action"].self_us, 100);
        assert_eq!(totals["memory.action"].count, 12);
        // 800 µs of exploration, 700 of it inside the dispatcher.
        assert_eq!(totals["explore"].self_us, 100);
        assert_eq!(totals["test"].self_us, 100);
    }

    #[test]
    fn dispatch_never_goes_negative() {
        let mut rec = Recorder::new(1);
        let explore = rec.push("explore", 0, 0, 50, 1);
        let root = NodeCost {
            sat_micros: 40,
            action_micros: 20,
            step_micros: 30,
            ..NodeCost::default()
        };
        rec.profile(explore, &root);
        let totals = layer_totals(&rec.finish());
        assert_eq!(totals["exec.dispatch"].dur_us, 0);
        assert_eq!(totals["explore"].self_us, 0);
    }

    #[test]
    fn spans_round_trip_through_jsonl() {
        let mut s = span(3, 1, "solver.sat", 1_234_567, 89);
        s.req = 42;
        s.count = 1_000;
        s.label = "bst/\"quoted\"".into();
        let line = s.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Span::from_json(&line), Ok(s));
        assert!(Span::from_json("{\"req\":1}").is_err());
    }
}
