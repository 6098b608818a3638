//! The exploration-tree profiler: a queryable model of one run's branch
//! tree with time and solver cost attributed to its nodes.
//!
//! Reconstructed purely from the merged journal (see `DESIGN.md` §16):
//! `PathStarted`/`PathForked`/`PathFinished` events give the shape,
//! keyed by the deterministic branch-trace path ids; `SatQuery` and
//! `ActionExec` events land on the node their emitting thread was
//! executing (the [`crate::journal::set_path_context`] attribution);
//! `ProcTime` events carry the bytecode dispatcher's per-call-stack
//! exclusive time. Costs roll up **inclusively** over subtrees, so "hot
//! subtree" queries answer *where in the tree* a run burned its budget,
//! and per-procedure aggregation answers *in whose code*.
//!
//! Because path ids are schedule-independent, the tree a 4-worker run
//! reconstructs is the same tree a one-worker run produces — node
//! stats differ only in wall-clock timings.

use crate::journal::{path_string, Event, EventRecord, PathId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Cost attributed to one tree node (exclusively or inclusively).
///
/// `step_micros` is dispatcher wall time and already *contains* the
/// solver/memory time spent inside those blocks, so the three planes
/// overlap; [`NodeCost::busy_micros`] picks the best single wall
/// estimate instead of summing them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCost {
    /// Sat queries attributed here.
    pub sat_queries: u64,
    /// Sat-query wall time (µs).
    pub sat_micros: u64,
    /// Memory-model action dispatches attributed here.
    pub actions: u64,
    /// Action wall time (µs).
    pub action_micros: u64,
    /// Commands retired by the dispatcher here.
    pub step_cmds: u64,
    /// Dispatcher wall time (µs), from `ProcTime` segments.
    pub step_micros: u64,
}

impl NodeCost {
    fn add(&mut self, other: &NodeCost) {
        self.sat_queries += other.sat_queries;
        self.sat_micros += other.sat_micros;
        self.actions += other.actions;
        self.action_micros += other.action_micros;
        self.step_cmds += other.step_cmds;
        self.step_micros += other.step_micros;
    }

    /// The node's wall-time estimate: dispatcher time when profiled,
    /// otherwise the solver+memory attribution (the dispatcher segment
    /// already includes sat/action time spent inside it, so the two
    /// planes must not be summed).
    pub fn busy_micros(&self) -> u64 {
        self.step_micros.max(self.sat_micros + self.action_micros)
    }
}

/// One node of the exploration tree (a branch point or a leaf).
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Successor count (`0` for a leaf or an unexpanded node).
    pub arms: u32,
    /// The finish outcome, when a `PathFinished` landed here.
    pub outcome: Option<&'static str>,
    /// Cumulative commands along the path at finish (leaves only).
    pub cmds: u64,
    /// Finished leaves in this subtree (inclusive, self included).
    pub leaves: u64,
    /// Cost attributed to this node alone.
    pub excl: NodeCost,
    /// Cost of the whole subtree rooted here.
    pub incl: NodeCost,
    /// Earliest event timestamp attributed to the subtree (µs since the
    /// telemetry epoch); `u64::MAX` when nothing carried a timestamp.
    pub first_ts: u64,
    /// Latest such timestamp.
    pub last_ts: u64,
}

impl Default for TreeNode {
    fn default() -> TreeNode {
        TreeNode {
            arms: 0,
            outcome: None,
            cmds: 0,
            leaves: 0,
            excl: NodeCost::default(),
            incl: NodeCost::default(),
            first_ts: u64::MAX,
            last_ts: 0,
        }
    }
}

impl TreeNode {
    /// The subtree's observed wall-clock span (µs): last attributed
    /// event minus first. Spans of sibling subtrees overlap when several
    /// workers run — they are windows, not a partition.
    pub fn span_micros(&self) -> u64 {
        if self.first_ts == u64::MAX {
            0
        } else {
            self.last_ts.saturating_sub(self.first_ts)
        }
    }
}

/// Per-procedure cost aggregated over the whole run, from `ProcTime`
/// segments (the *leaf* frame of each segment's call stack owns the
/// exclusive time).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Dispatcher segments attributed to the procedure.
    pub segments: u64,
    /// Commands retired in the procedure's own code.
    pub cmds: u64,
    /// Exclusive wall time (µs).
    pub micros: u64,
}

/// The reconstructed exploration tree of one run.
#[derive(Clone, Debug, Default)]
pub struct ExploreTree {
    nodes: BTreeMap<PathId, TreeNode>,
    procs: BTreeMap<String, ProcStat>,
    /// Folded flamegraph stacks: `"<branch frames>;<call frames>"` →
    /// exclusive µs.
    folded: BTreeMap<String, u64>,
    /// Events that carried no path attribution at all (checkpoint
    /// writes, faults, context-free sat queries).
    pub unattributed: u64,
}

impl ExploreTree {
    /// Reconstructs the tree from a merged journal.
    pub fn from_records(records: &[EventRecord]) -> ExploreTree {
        let mut tree = ExploreTree::default();
        for rec in records {
            let Some(path) = rec.path() else {
                if !matches!(rec.event, Event::Resumed { .. }) {
                    tree.unattributed += 1;
                }
                continue;
            };
            let path = path.to_vec();
            match &rec.event {
                Event::PathStarted { .. } => {
                    tree.touch(&path, rec.ts_micros);
                }
                Event::PathForked { arms, .. } => {
                    let node = tree.touch(&path, rec.ts_micros);
                    node.arms = node.arms.max(*arms);
                }
                Event::PathFinished { outcome, cmds, .. } => {
                    let node = tree.touch(&path, rec.ts_micros);
                    node.outcome = Some(outcome);
                    node.cmds = *cmds;
                }
                Event::SatQuery { micros, .. } => {
                    let node = tree.touch(&path, rec.ts_micros);
                    node.excl.sat_queries += 1;
                    node.excl.sat_micros += micros;
                }
                Event::ActionExec { micros, .. } => {
                    let node = tree.touch(&path, rec.ts_micros);
                    node.excl.actions += 1;
                    node.excl.action_micros += micros;
                }
                Event::ProcTime {
                    stack,
                    cmds,
                    micros,
                    ..
                } => {
                    let node = tree.touch(&path, rec.ts_micros);
                    node.excl.step_cmds += cmds;
                    node.excl.step_micros += micros;
                    let leaf = stack.rsplit(';').next().unwrap_or(stack).to_string();
                    let proc = tree.procs.entry(leaf).or_default();
                    proc.segments += 1;
                    proc.cmds += cmds;
                    proc.micros += micros;
                    *tree.folded.entry(folded_key(&path, stack)).or_insert(0) += micros;
                }
                Event::DeadlineHit { .. } | Event::PanicIsolated { .. } => {
                    tree.touch(&path, rec.ts_micros);
                }
                _ => {}
            }
        }
        tree.roll_up();
        tree
    }

    /// The node for `path` (with exclusive stats; ancestors are
    /// materialized so every node's parent chain exists).
    fn touch(&mut self, path: &[u32], ts: u64) -> &mut TreeNode {
        if !self.nodes.contains_key(path) {
            for cut in 0..path.len() {
                self.nodes.entry(path[..cut].to_vec()).or_default();
            }
            self.nodes.insert(path.to_vec(), TreeNode::default());
        }
        let node = self.nodes.get_mut(path).expect("just inserted");
        node.first_ts = node.first_ts.min(ts);
        node.last_ts = node.last_ts.max(ts);
        node
    }

    /// Propagates exclusive costs, leaf counts, and timestamp windows up
    /// the tree. Children sort strictly after their parent under the
    /// `Vec<u32>` ordering, so one reverse pass visits every child
    /// before its parent.
    fn roll_up(&mut self) {
        let keys: Vec<PathId> = self.nodes.keys().cloned().collect();
        for key in keys.iter() {
            let node = self.nodes.get_mut(key).expect("key from map");
            node.incl = node.excl;
            node.leaves = u64::from(node.outcome.is_some());
        }
        for key in keys.iter().rev() {
            if key.is_empty() {
                continue;
            }
            let child = self.nodes.get(key).expect("key from map");
            let (incl, leaves, first, last) =
                (child.incl, child.leaves, child.first_ts, child.last_ts);
            let parent = self
                .nodes
                .get_mut(&key[..key.len() - 1])
                .expect("ancestors materialized");
            parent.incl.add(&incl);
            parent.leaves += leaves;
            parent.first_ts = parent.first_ts.min(first);
            parent.last_ts = parent.last_ts.max(last);
        }
    }

    /// Total nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no events reconstructed any node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `path`, when the run visited it.
    pub fn node(&self, path: &[u32]) -> Option<&TreeNode> {
        self.nodes.get(path)
    }

    /// All nodes, in path order (parents before children).
    pub fn nodes(&self) -> impl Iterator<Item = (&[u32], &TreeNode)> {
        self.nodes.iter().map(|(k, v)| (k.as_slice(), v))
    }

    /// Per-procedure exclusive cost, hottest first.
    pub fn procs(&self) -> Vec<(&str, &ProcStat)> {
        let mut rows: Vec<(&str, &ProcStat)> =
            self.procs.iter().map(|(k, v)| (k.as_str(), v)).collect();
        rows.sort_by(|a, b| b.1.micros.cmp(&a.1.micros).then(a.0.cmp(b.0)));
        rows
    }

    /// Top-`k` **branch points** (interior nodes) by inclusive busy
    /// time: the subtrees a run spent its budget under.
    pub fn hot_subtrees(&self, k: usize) -> Vec<(&[u32], &TreeNode)> {
        let mut rows: Vec<(&[u32], &TreeNode)> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.arms > 0)
            .map(|(p, n)| (p.as_slice(), n))
            .collect();
        rows.sort_by(|a, b| {
            b.1.incl
                .busy_micros()
                .cmp(&a.1.incl.busy_micros())
                .then(a.0.cmp(b.0))
        });
        rows.truncate(k);
        rows
    }

    /// Top-`k` branch-trace prefixes by inclusive **sat** cost. Every
    /// branch step extends the path condition by one conjunct, so a
    /// branch-trace prefix names a pc prefix: this ranks which partial
    /// path conditions cost the solver the most.
    pub fn hot_pc_prefixes(&self, k: usize) -> Vec<(&[u32], &TreeNode)> {
        let mut rows: Vec<(&[u32], &TreeNode)> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.arms > 0 && n.incl.sat_micros > 0)
            .map(|(p, n)| (p.as_slice(), n))
            .collect();
        rows.sort_by(|a, b| {
            b.1.incl
                .sat_micros
                .cmp(&a.1.incl.sat_micros)
                .then(a.0.cmp(b.0))
        });
        rows.truncate(k);
        rows
    }

    /// The folded stack lines (`stack;frames value\n`…), sorted by
    /// stack — the `inferno` / speedscope "collapsed stacks" format.
    /// Values are exclusive microseconds.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, micros) in &self.folded {
            let _ = writeln!(out, "{stack} {micros}");
        }
        out
    }

    /// The distinct folded stack keys (for golden tests, which cannot
    /// assert on timing values).
    pub fn folded_keys(&self) -> Vec<&str> {
        self.folded.keys().map(|k| k.as_str()).collect()
    }
}

/// The folded-stack key of one dispatcher segment: the branch trace
/// (one frame per branch decision, rooted at `(root)`) followed by the
/// call frames. Sibling subtrees share their prefix frames, so a
/// flamegraph of these keys *is* the exploration tree, with procedure
/// frames nested inside each branch.
pub fn folded_key(path: &[u32], stack: &str) -> String {
    let mut key = String::from("(root)");
    for step in path {
        let _ = write!(key, ";{step}");
    }
    if !stack.is_empty() {
        let _ = write!(key, ";{stack}");
    }
    key
}

/// Renders a tree node's path for reports (`(root)` for the empty
/// trace, `"0.1"` otherwise).
pub fn node_label(path: &[u32]) -> String {
    if path.is_empty() {
        "(root)".to_string()
    } else {
        path_string(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Verdict;

    fn rec(seq: u64, ts: u64, path_ctx: Option<PathId>, event: Event) -> EventRecord {
        EventRecord {
            ts_micros: ts,
            worker: 0,
            seq,
            path_ctx,
            event,
        }
    }

    fn sample_records() -> Vec<EventRecord> {
        vec![
            rec(0, 10, None, Event::PathStarted { path: vec![] }),
            rec(
                1,
                11,
                None,
                Event::ProcTime {
                    path: vec![],
                    stack: "main".into(),
                    cmds: 4,
                    micros: 40,
                },
            ),
            rec(
                2,
                12,
                Some(vec![]),
                Event::SatQuery {
                    key: 1,
                    conjuncts: 1,
                    verdict: Verdict::Sat,
                    micros: 100,
                    cache_hit: false,
                    pc: String::new(),
                },
            ),
            rec(
                3,
                13,
                None,
                Event::PathForked {
                    parent: vec![],
                    arms: 2,
                },
            ),
            rec(
                4,
                20,
                None,
                Event::ProcTime {
                    path: vec![0],
                    stack: "main;f".into(),
                    cmds: 6,
                    micros: 60,
                },
            ),
            rec(
                5,
                21,
                Some(vec![0]),
                Event::SatQuery {
                    key: 2,
                    conjuncts: 2,
                    verdict: Verdict::Unsat,
                    micros: 30,
                    cache_hit: false,
                    pc: String::new(),
                },
            ),
            rec(
                6,
                22,
                Some(vec![0]),
                Event::ActionExec {
                    lang: "while",
                    action: "store".into(),
                    branches: 1,
                    micros: 7,
                },
            ),
            rec(
                7,
                25,
                None,
                Event::PathFinished {
                    path: vec![0],
                    outcome: "normal",
                    cmds: 10,
                },
            ),
            rec(
                8,
                30,
                None,
                Event::ProcTime {
                    path: vec![1],
                    stack: "main".into(),
                    cmds: 5,
                    micros: 20,
                },
            ),
            rec(
                9,
                33,
                None,
                Event::PathFinished {
                    path: vec![1],
                    outcome: "error",
                    cmds: 9,
                },
            ),
        ]
    }

    #[test]
    fn reconstructs_shape_and_attributes_cost() {
        let tree = ExploreTree::from_records(&sample_records());
        assert_eq!(tree.len(), 3, "root + two leaves");
        let root = tree.node(&[]).unwrap();
        assert_eq!(root.arms, 2);
        assert_eq!(root.leaves, 2);
        assert_eq!(root.excl.sat_micros, 100);
        assert_eq!(root.excl.step_micros, 40);
        assert_eq!(root.incl.step_micros, 120, "40 + 60 + 20");
        assert_eq!(root.incl.sat_micros, 130);
        assert_eq!(root.incl.actions, 1);
        assert_eq!(root.incl.step_cmds, 15);
        assert_eq!(root.span_micros(), 33 - 10);
        let left = tree.node(&[0]).unwrap();
        assert_eq!(left.outcome, Some("normal"));
        assert_eq!(left.arms, 0);
        assert_eq!(left.leaves, 1);
        assert_eq!(left.excl.sat_micros, 30);
        assert_eq!(left.incl.busy_micros(), 60, "step time covers sat+action");
        assert_eq!(tree.unattributed, 0);
    }

    #[test]
    fn hot_queries_rank_by_inclusive_cost() {
        let tree = ExploreTree::from_records(&sample_records());
        let hot = tree.hot_subtrees(5);
        assert_eq!(hot.len(), 1, "only the root is a branch point");
        assert_eq!(hot[0].0, &[] as &[u32]);
        let pcs = tree.hot_pc_prefixes(5);
        assert_eq!(pcs.len(), 1);
        assert_eq!(pcs[0].1.incl.sat_micros, 130);
        let procs = tree.procs();
        assert_eq!(procs[0].0, "f", "f owns the 60µs segment");
        assert_eq!(procs[0].1.micros, 60);
        assert_eq!(procs[1].0, "main");
        assert_eq!(procs[1].1.micros, 60, "40 at root + 20 on path 1");
        assert_eq!(procs[1].1.cmds, 9);
    }

    #[test]
    fn folded_stacks_nest_branches_then_frames() {
        let tree = ExploreTree::from_records(&sample_records());
        let folded = tree.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec!["(root);0;main;f 60", "(root);1;main 20", "(root);main 40"],
            "sorted, parseable `stack value` lines"
        );
        for line in lines {
            let (stack, value) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("numeric value");
        }
    }

    #[test]
    fn merging_duplicate_segments_sums_values() {
        let mut records = sample_records();
        records.push(rec(
            10,
            40,
            None,
            Event::ProcTime {
                path: vec![],
                stack: "main".into(),
                cmds: 1,
                micros: 5,
            },
        ));
        let tree = ExploreTree::from_records(&records);
        assert!(tree.folded().contains("(root);main 45"));
    }

    #[test]
    fn empty_journal_gives_empty_tree() {
        let tree = ExploreTree::from_records(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.folded(), "");
        assert!(tree.hot_subtrees(3).is_empty());
    }
}
