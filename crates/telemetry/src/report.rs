//! The human exploration profile: what a run did, where the time went.
//!
//! A [`Report`] is assembled at explore end from three independent
//! sources, each optional:
//!
//! - the **metrics delta** (registry snapshot before/after the run) —
//!   latency histograms and counters, present even with the journal off;
//! - the **branch traces** of the finished paths — tree shape stats,
//!   always present;
//! - the **merged journal** — top-k slowest sat queries and the
//!   per-language action table, present only when tracing was enabled.
//!
//! Rendering is pure string building; nothing here prints. Binaries
//! (`examples/stress.rs`, the bench bins) decide whether to show it.

use crate::journal::{Event, EventRecord, Verdict};
use crate::metrics::MetricsSnapshot;
use crate::names;
use crate::tree::{node_label, ExploreTree};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// How many slowest queries a report keeps.
pub const TOP_K_QUERIES: usize = 10;

/// How many rows the hot-subtree / hot-proc / hot-pc sections show.
pub const TOP_K_HOT: usize = 5;

/// Shape statistics of the explored branch tree, computed from the
/// schedule-independent branch traces of the finished paths.
#[derive(Clone, Debug, Default)]
pub struct TreeStats {
    /// Finished paths (leaves of the explored tree).
    pub leaves: u64,
    /// Deepest branch trace.
    pub max_depth: u32,
    /// Mean branch-trace depth.
    pub mean_depth: f64,
    /// Distinct interior branch points.
    pub interior: u64,
    /// Widest fork observed (successor count at one node).
    pub max_arms: u32,
}

impl TreeStats {
    /// Computes tree stats from finished-path branch traces.
    ///
    /// The interior nodes are the distinct proper prefixes of the traces.
    /// In sorted order, the proper prefixes a trace shares with any
    /// earlier trace are exactly those it shares with its predecessor, so
    /// one pass over the longest common prefixes of neighbours counts
    /// them. The widest fork is one more than the largest successor index
    /// on any trace.
    pub fn from_paths<'a>(paths: impl IntoIterator<Item = &'a [u32]>) -> TreeStats {
        let mut sorted: Vec<&[u32]> = paths.into_iter().collect();
        sorted.sort_unstable();
        let leaves = sorted.len() as u64;
        let depth_sum: u64 = sorted.iter().map(|p| p.len() as u64).sum();
        let mut interior = 0u64;
        let mut prev: &[u32] = &[];
        for (i, path) in sorted.iter().enumerate() {
            let seen = if i == 0 {
                0
            } else {
                let lcp = prev.iter().zip(*path).take_while(|(a, b)| a == b).count();
                path.len().min(lcp + 1).min(prev.len())
            };
            interior += (path.len() - seen) as u64;
            prev = path;
        }
        TreeStats {
            leaves,
            max_depth: sorted.iter().map(|p| p.len() as u32).max().unwrap_or(0),
            mean_depth: if leaves == 0 {
                0.0
            } else {
                depth_sum as f64 / leaves as f64
            },
            interior,
            max_arms: sorted
                .iter()
                .flat_map(|p| p.iter())
                .max()
                .map_or(0, |&arm| arm + 1),
        }
    }
}

/// One of the slowest satisfiability queries of a run.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The canonical cache key's hash.
    pub key: u64,
    /// Conjunct count of the path condition.
    pub conjuncts: u32,
    /// The verdict.
    pub verdict: Verdict,
    /// Latency in microseconds.
    pub micros: u64,
    /// Whether the result cache answered.
    pub cache_hit: bool,
    /// Rendering of the path condition, when the journal captured one.
    pub pc: String,
}

/// One row of the per-language action latency table.
#[derive(Clone, Debug)]
pub struct LangActionRow {
    /// The memory model's language tag.
    pub lang: &'static str,
    /// The action name.
    pub action: String,
    /// Dispatches.
    pub count: u64,
    /// Total latency (µs).
    pub total_micros: u64,
    /// Slowest dispatch (µs).
    pub max_micros: u64,
}

impl LangActionRow {
    /// Mean dispatch latency (µs).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }
}

/// The exploration profile attached to an `ExploreResult`.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Wall-clock time of the run (µs).
    pub wall_micros: u64,
    /// Workers the run used (1 when it ran inline on the calling thread).
    pub workers: u32,
    /// This run's metric deltas (histograms are process-wide over the
    /// run's wall-clock window; counters likewise).
    pub metrics: MetricsSnapshot,
    /// Branch-tree shape.
    pub tree: TreeStats,
    /// Top-k slowest sat queries (journal runs only; slowest first).
    pub slow_queries: Vec<SlowQuery>,
    /// Per-language action latency rows (journal runs only; hottest
    /// first by total time).
    pub lang_actions: Vec<LangActionRow>,
    /// Journal events merged for this run.
    pub events: u64,
    /// Journal events lost to ring-buffer wrap.
    pub events_dropped: u64,
    /// Where the JSONL trace went, when a sink was configured.
    pub trace_path: Option<String>,
    /// The exploration-tree profile (journal runs only): cost-attributed
    /// tree model behind the hot-subtrees / hot-procs / hot-pc sections.
    pub profile: Option<ExploreTree>,
}

impl Report {
    /// Extracts the journal-derived sections (slow queries, action
    /// table, event counts) from a merged journal.
    pub fn ingest_events(&mut self, records: &[EventRecord], dropped: u64) {
        self.events = records.len() as u64;
        self.events_dropped = dropped;
        if !records.is_empty() {
            self.profile = Some(ExploreTree::from_records(records));
        }
        let mut queries: Vec<SlowQuery> = Vec::new();
        let mut actions: BTreeMap<(&'static str, String), LangActionRow> = BTreeMap::new();
        for rec in records {
            match &rec.event {
                Event::SatQuery {
                    key,
                    conjuncts,
                    verdict,
                    micros,
                    cache_hit,
                    pc,
                } => {
                    queries.push(SlowQuery {
                        key: *key,
                        conjuncts: *conjuncts,
                        verdict: *verdict,
                        micros: *micros,
                        cache_hit: *cache_hit,
                        pc: pc.clone(),
                    });
                }
                Event::ActionExec {
                    lang,
                    action,
                    branches: _,
                    micros,
                } => {
                    let row =
                        actions
                            .entry((lang, action.clone()))
                            .or_insert_with(|| LangActionRow {
                                lang,
                                action: action.clone(),
                                count: 0,
                                total_micros: 0,
                                max_micros: 0,
                            });
                    row.count += 1;
                    row.total_micros += micros;
                    row.max_micros = row.max_micros.max(*micros);
                }
                _ => {}
            }
        }
        queries.sort_by(|a, b| b.micros.cmp(&a.micros).then(a.key.cmp(&b.key)));
        queries.truncate(TOP_K_QUERIES);
        self.slow_queries = queries;
        let mut rows: Vec<LangActionRow> = actions.into_values().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.total_micros));
        self.lang_actions = rows;
    }

    /// Renders the full multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== exploration report ==");
        let _ = writeln!(
            out,
            "paths: {} leaves · wall: {:.1}ms · workers: {}",
            self.tree.leaves,
            self.wall_micros as f64 / 1000.0,
            self.workers
        );
        let _ = writeln!(
            out,
            "branch tree: depth max {} mean {:.2} · interior nodes {} · widest fork {}",
            self.tree.max_depth, self.tree.mean_depth, self.tree.interior, self.tree.max_arms
        );
        let sat_q = self.metrics.counter(names::SAT_QUERIES);
        if sat_q > 0 {
            let hits = self.metrics.counter(names::SAT_CACHE_HITS);
            let _ = writeln!(
                out,
                "sat queries: {} · cache hits {} ({:.1}%) · unknowns {}",
                sat_q,
                hits,
                100.0 * hits as f64 / sat_q as f64,
                self.metrics.counter(names::SAT_UNKNOWNS)
            );
            let incr = self.metrics.counter(names::SAT_INCREMENTAL_HITS);
            if incr > 0 {
                let _ = writeln!(
                    out,
                    "sat reuse: incremental {incr} · unsat prefix {} · fast {} · equalities {} · seeded full {}",
                    self.metrics.counter(names::SAT_REUSE_UNSAT_PREFIX),
                    self.metrics.counter(names::SAT_REUSE_FAST),
                    self.metrics.counter(names::SAT_REUSE_EQUALITIES),
                    self.metrics.counter(names::SAT_REUSE_SEEDED_FULL)
                );
            }
        }
        let searches = self.metrics.counter(names::MODEL_SEARCHES);
        if searches > 0 {
            let _ = writeln!(
                out,
                "model search: {} calls · {} failures · {} nodes · {} tiers skipped",
                searches,
                self.metrics.counter(names::MODEL_SEARCH_FAILURES),
                self.metrics.counter(names::MODEL_NODES),
                self.metrics.counter(names::MODEL_TIERS_SKIPPED)
            );
        }
        let recorded = self.metrics.counter(names::SUMMARY_RECORDED);
        let applied = self.metrics.counter(names::SUMMARY_APPLIED);
        let missed = self.metrics.counter(names::SUMMARY_MISSED);
        let escaped = self.metrics.counter(names::SUMMARY_ESCAPED);
        if recorded + applied + missed + escaped > 0 {
            let _ = writeln!(
                out,
                "summary reuse: recorded {recorded} · applied {applied} · missed {missed} · escaped {escaped}"
            );
        }
        let replays = self.metrics.counter(names::DIFFTEST_REPLAYS);
        let divergences = self.metrics.counter(names::DIFFTEST_DIVERGENCES);
        let skipped = self.metrics.counter(names::DIFFTEST_SKIPPED);
        if replays + divergences + skipped > 0 {
            let _ = writeln!(
                out,
                "difftest: {} replays · {} divergences · {} skipped paths · {} fallback models",
                replays,
                divergences,
                skipped,
                self.metrics.counter(names::DIFFTEST_FALLBACK_MODELS)
            );
        }
        let blocks = self.metrics.counter(names::EXEC_BLOCKS);
        if blocks > 0 {
            let cmds = self.metrics.counter(names::EXEC_CMDS);
            let _ = writeln!(
                out,
                "bytecode exec: {} blocks · {} cmds ({:.1} cmds/block) · {} compiles",
                blocks,
                cmds,
                cmds as f64 / blocks as f64,
                self.metrics.counter(names::EXEC_COMPILES)
            );
        }
        let ic_hits = self.metrics.counter(names::EXEC_IC_HITS);
        let ic_misses = self.metrics.counter(names::EXEC_IC_MISSES);
        if ic_hits + ic_misses > 0 {
            let _ = writeln!(
                out,
                "inline caches: {} hits · {} misses ({:.1}% hit)",
                ic_hits,
                ic_misses,
                100.0 * ic_hits as f64 / (ic_hits + ic_misses) as f64
            );
        }
        let mints = self.metrics.counter(names::INTERN_MINTS);
        let ihits = self.metrics.counter(names::INTERN_HITS);
        if mints + ihits > 0 {
            let _ = writeln!(
                out,
                "interner: {} mints · {} hits ({:.1}% shared)",
                mints,
                ihits,
                100.0 * ihits as f64 / (mints + ihits) as f64
            );
        }
        for (name, label, unit) in [
            (names::SAT_MICROS, "sat solve latency (cache misses)", "µs"),
            (
                names::SIMPLIFY_MICROS,
                "simplify latency (memo misses, sampled)",
                "µs",
            ),
            (
                names::ACTION_MICROS,
                "memory action latency (sampled)",
                "µs",
            ),
            (
                names::SAT_PREFIX_DEPTH,
                "reused solve-prefix depth (incremental hits)",
                " conjuncts",
            ),
            (
                names::INTERN_LOOKUP_NANOS,
                "intern lookup latency (sampled)",
                "ns",
            ),
            (
                names::EXEC_BLOCK_CMDS,
                "bytecode dispatch (cmds per block)",
                " cmds",
            ),
        ] {
            let h = self.metrics.histogram(name);
            if h.count > 0 {
                let _ = writeln!(out, "{label}: {}", h.summary(unit));
                out.push_str(&h.render(unit));
            }
        }
        if !self.slow_queries.is_empty() {
            let _ = writeln!(out, "slowest sat queries:");
            for (i, q) in self.slow_queries.iter().enumerate() {
                let _ = write!(
                    out,
                    "  {:>2}. {:>8}µs {:<7} conjuncts={:<4} key={:016x}{}",
                    i + 1,
                    q.micros,
                    q.verdict.as_str(),
                    q.conjuncts,
                    q.key,
                    if q.cache_hit { " [cache]" } else { "" }
                );
                if q.pc.is_empty() {
                    out.push('\n');
                } else {
                    let _ = writeln!(out, "  {}", q.pc);
                }
            }
        }
        if !self.lang_actions.is_empty() {
            let _ = writeln!(out, "memory actions by language:");
            let _ = writeln!(
                out,
                "  {:<8} {:<16} {:>10} {:>10} {:>8} {:>8}",
                "lang", "action", "count", "total µs", "mean µs", "max µs"
            );
            for row in &self.lang_actions {
                let _ = writeln!(
                    out,
                    "  {:<8} {:<16} {:>10} {:>10} {:>8.1} {:>8}",
                    row.lang,
                    row.action,
                    row.count,
                    row.total_micros,
                    row.mean_micros(),
                    row.max_micros
                );
            }
        }
        if let Some(profile) = &self.profile {
            let hot = profile.hot_subtrees(TOP_K_HOT);
            if !hot.is_empty() {
                let _ = writeln!(out, "hot subtrees (inclusive cost under a branch point):");
                for (i, (path, node)) in hot.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  {:>2}. {:<14} busy {:>8}µs · sat {:>7}µs/{:<5} · exec {:>8} cmds · {} leaves · {} arms",
                        i + 1,
                        node_label(path),
                        node.incl.busy_micros(),
                        node.incl.sat_micros,
                        format!("{}q", node.incl.sat_queries),
                        node.incl.step_cmds,
                        node.leaves,
                        node.arms
                    );
                }
            }
            let procs = profile.procs();
            if !procs.is_empty() {
                let _ = writeln!(out, "hot procedures (exclusive dispatcher time):");
                for (name, stat) in procs.iter().take(TOP_K_HOT) {
                    let _ = writeln!(
                        out,
                        "  {:<16} {:>8}µs · {:>8} cmds · {:>6} segments",
                        name, stat.micros, stat.cmds, stat.segments
                    );
                }
            }
            let prefixes = profile.hot_pc_prefixes(TOP_K_HOT);
            if !prefixes.is_empty() {
                let _ = writeln!(out, "hot pc prefixes (inclusive solver cost):");
                for (i, (path, node)) in prefixes.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  {:>2}. {:<14} sat {:>8}µs over {} queries",
                        i + 1,
                        node_label(path),
                        node.incl.sat_micros,
                        node.incl.sat_queries
                    );
                }
            }
        }
        if self.events > 0 || self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "journal: {} events merged · {} dropped{}",
                self.events,
                self.events_dropped,
                match &self.trace_path {
                    Some(p) => format!(" · trace: {p}"),
                    None => String::new(),
                }
            );
        }
        if self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: journal ring buffers dropped {} event(s) — profile attribution is \
                 partial; raise GILLIAN_TRACE_CAP",
                self.events_dropped
            );
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Re-export for the rendering of path ids in reports.
pub use crate::journal::path_string as render_path;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_stats_from_traces() {
        // Tree:        root
        //            /      \
        //           0        1
        //         /   \       \
        //       0.0  0.1      1.0
        let paths: Vec<Vec<u32>> = vec![vec![0, 0], vec![0, 1], vec![1, 0]];
        let t = TreeStats::from_paths(paths.iter().map(|p| p.as_slice()));
        assert_eq!(t.leaves, 3);
        assert_eq!(t.max_depth, 2);
        assert!((t.mean_depth - 2.0).abs() < 1e-9);
        assert_eq!(t.interior, 3, "root, 0, 1");
        assert_eq!(t.max_arms, 2);
        assert_eq!(render_path(&paths[1]), "0.1");
    }

    #[test]
    fn single_root_path_tree() {
        let t = TreeStats::from_paths([&[][..]]);
        assert_eq!(t.leaves, 1);
        assert_eq!(t.max_depth, 0);
        assert_eq!(t.interior, 0);
    }

    #[test]
    fn ingest_ranks_queries_and_groups_actions() {
        let mk = |micros, key| EventRecord {
            ts_micros: 0,
            worker: 0,
            seq: 0,
            path_ctx: None,
            event: Event::SatQuery {
                key,
                conjuncts: 1,
                verdict: Verdict::Sat,
                micros,
                cache_hit: false,
                pc: String::new(),
            },
        };
        let mut records: Vec<EventRecord> = (0..20).map(|i| mk(i * 10, i)).collect();
        records.push(EventRecord {
            ts_micros: 0,
            worker: 0,
            seq: 0,
            path_ctx: None,
            event: Event::ActionExec {
                lang: "while",
                action: "store".into(),
                branches: 1,
                micros: 5,
            },
        });
        records.push(EventRecord {
            ts_micros: 0,
            worker: 0,
            seq: 1,
            path_ctx: None,
            event: Event::ActionExec {
                lang: "while",
                action: "store".into(),
                branches: 1,
                micros: 7,
            },
        });
        let mut report = Report::default();
        report.ingest_events(&records, 3);
        assert_eq!(report.slow_queries.len(), TOP_K_QUERIES);
        assert_eq!(report.slow_queries[0].micros, 190);
        assert_eq!(report.lang_actions.len(), 1);
        assert_eq!(report.lang_actions[0].count, 2);
        assert_eq!(report.lang_actions[0].total_micros, 12);
        assert_eq!(report.events_dropped, 3);
        let text = report.render();
        assert!(text.contains("slowest sat queries"));
        assert!(text.contains("memory actions by language"));
        assert!(text.contains("WARNING: journal ring buffers dropped 3"));
    }

    /// The summary-reuse line is a conditional section: absent from an
    /// untouched-run render (the common case must stay compact) and
    /// rendered verbatim from the four `summary.*` counters otherwise.
    #[test]
    fn render_includes_summary_reuse_only_when_counters_moved() {
        use crate::{names, registry};
        let before = registry().snapshot();
        let mut report = Report {
            metrics: registry().snapshot().since(&before),
            ..Default::default()
        };
        assert!(
            !report.render().contains("summary reuse"),
            "an idle run must not render the summary section"
        );
        registry().counter(names::SUMMARY_RECORDED).add(3);
        registry().counter(names::SUMMARY_APPLIED).add(2);
        report.metrics = registry().snapshot().since(&before);
        let text = report.render();
        assert!(
            text.contains("summary reuse: recorded 3 · applied 2 · missed 0 · escaped 0"),
            "{text}"
        );
    }

    /// The sat-reuse line splits the incremental answers by the seeded
    /// layer that gave them.
    #[test]
    fn render_splits_sat_reuse_by_layer() {
        use crate::{names, registry};
        let before = registry().snapshot();
        registry().counter(names::SAT_QUERIES).add(10);
        registry().counter(names::SAT_INCREMENTAL_HITS).add(6);
        registry().counter(names::SAT_REUSE_UNSAT_PREFIX).add(1);
        registry().counter(names::SAT_REUSE_FAST).add(2);
        registry().counter(names::SAT_REUSE_EQUALITIES).add(2);
        registry().counter(names::SAT_REUSE_SEEDED_FULL).add(1);
        let report = Report {
            metrics: registry().snapshot().since(&before),
            ..Default::default()
        };
        let text = report.render();
        assert!(
            text.contains(
                "sat reuse: incremental 6 · unsat prefix 1 · fast 2 · equalities 2 · seeded full 1"
            ),
            "{text}"
        );
    }

    /// The model-search line appears once a search ran, rendered from
    /// the four `solver.model_*` counters.
    #[test]
    fn render_includes_model_search_only_when_searches_ran() {
        use crate::{names, registry};
        let before = registry().snapshot();
        let mut report = Report {
            metrics: registry().snapshot().since(&before),
            ..Default::default()
        };
        assert!(!report.render().contains("model search"));
        registry().counter(names::MODEL_SEARCHES).add(4);
        registry().counter(names::MODEL_SEARCH_FAILURES).add(1);
        registry().counter(names::MODEL_NODES).add(250);
        registry().counter(names::MODEL_TIERS_SKIPPED).add(2);
        report.metrics = registry().snapshot().since(&before);
        let text = report.render();
        assert!(
            text.contains("model search: 4 calls · 1 failures · 250 nodes · 2 tiers skipped"),
            "{text}"
        );
    }

    #[test]
    fn render_includes_hot_sections_from_the_profile() {
        let rec = |seq, path_ctx: Option<Vec<u32>>, event| EventRecord {
            ts_micros: seq,
            worker: 0,
            seq,
            path_ctx,
            event,
        };
        let records = vec![
            rec(0, None, Event::PathStarted { path: vec![] }),
            rec(
                1,
                None,
                Event::PathForked {
                    parent: vec![],
                    arms: 2,
                },
            ),
            rec(
                2,
                Some(vec![0]),
                Event::SatQuery {
                    key: 1,
                    conjuncts: 1,
                    verdict: Verdict::Sat,
                    micros: 50,
                    cache_hit: false,
                    pc: String::new(),
                },
            ),
            rec(
                3,
                None,
                Event::ProcTime {
                    path: vec![0],
                    stack: "main".into(),
                    cmds: 8,
                    micros: 120,
                },
            ),
            rec(
                4,
                None,
                Event::PathFinished {
                    path: vec![0],
                    outcome: "normal",
                    cmds: 8,
                },
            ),
            rec(
                5,
                None,
                Event::PathFinished {
                    path: vec![1],
                    outcome: "normal",
                    cmds: 2,
                },
            ),
        ];
        let mut report = Report::default();
        report.ingest_events(&records, 0);
        let profile = report.profile.as_ref().expect("profile built");
        assert_eq!(profile.len(), 3);
        let text = report.render();
        assert!(text.contains("hot subtrees"), "{text}");
        assert!(text.contains("hot procedures"), "{text}");
        assert!(text.contains("hot pc prefixes"), "{text}");
        assert!(text.contains("(root)"), "{text}");
        assert!(text.contains("main"), "{text}");
        assert!(!text.contains("WARNING"), "{text}");
    }
}

#[cfg(test)]
mod tree_stats_tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition: every proper prefix of every trace is an interior
    /// node, whose widest fork is its largest successor index plus one.
    fn by_prefix_map(paths: &[Vec<u32>]) -> (u64, u32) {
        let mut nodes: BTreeMap<&[u32], u32> = BTreeMap::new();
        for path in paths {
            for cut in 0..path.len() {
                let arms = nodes.entry(&path[..cut]).or_insert(0);
                *arms = (*arms).max(path[cut] + 1);
            }
        }
        (
            nodes.len() as u64,
            nodes.values().copied().max().unwrap_or(0),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass counts equal the prefix map's, on trace sets with
        /// duplicates and traces that are prefixes of one another.
        #[test]
        fn one_pass_matches_the_prefix_map(
            traces in proptest::collection::vec(
                proptest::collection::vec(0u32..3, 0..7),
                0..12,
            ),
            cuts in proptest::collection::vec((0usize..12, 0usize..7), 0..6),
        ) {
            let mut paths = traces.clone();
            for (i, cut) in cuts {
                if let Some(t) = traces.get(i) {
                    paths.push(t[..cut.min(t.len())].to_vec());
                }
            }
            let stats = TreeStats::from_paths(paths.iter().map(|p| p.as_slice()));
            prop_assert_eq!((stats.interior, stats.max_arms), by_prefix_map(&paths));
            prop_assert_eq!(stats.leaves, paths.len() as u64);
        }
    }
}
