//! The five workloads: which tests each runs, and how the seed draws
//! their inputs. Sizes are fixed; the seed permutes test order and draws
//! values that leave the amount of work unchanged, so runs with
//! different seeds measure the same load on different inputs.

use gillian_c::collections::{self as cc, buggy};
use gillian_core::generate::{build_prog, gen_ops, MemDialect, Rng};
use gillian_gil::Prog;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Full size for measurement, or the smoke size the tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// The guest language a test is written in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lang {
    Js,
    C,
    While,
}

/// The known answer a test must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// No confirmed bug, no budget hit, no engine error (the rule
    /// `run_suite` applies to the paper's tables).
    Verifies(Lang),
    /// At least one error path whose counter-model replays concretely to
    /// an error (MiniC only: the §4.2 buggy variants).
    FindsBug,
    /// The symbolic-vs-concrete oracle finds no divergence (While only:
    /// generated programs).
    OracleAgrees,
}

/// One symbolic test: an entry point into a program.
#[derive(Clone, Debug)]
pub struct Test {
    pub name: String,
    pub prog: Arc<Prog>,
    pub entry: String,
    pub check: Check,
}

/// A workload's tests in their seeded order, with what building them
/// cost.
#[derive(Debug, Default)]
pub struct Built {
    pub tests: Vec<Test>,
    /// Every distinct program the tests run.
    pub progs: Vec<Arc<Prog>>,
    /// Front-end parsing (for generated programs: drawing the op lists).
    pub parse_s: f64,
    /// Front-end compilation to GIL plus `Prog::bytecode()`.
    pub compile_s: f64,
    /// Digest of the drawn inputs: equal seeds give equal digests.
    pub inputs: u64,
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    /// Timed rounds of a 10-second run: about 10 s of tests on the
    /// reference host (README, "Calibration").
    rounds: u64,
    build: fn(&mut Suite, &mut Rng, Size),
}

impl Workload {
    /// The timed rounds of a run of `seconds`: the calibrated count in
    /// proportion, at least one. The count depends on the arguments
    /// alone, so two builds of the engine measure the same work.
    pub fn rounds(&self, seconds: f64) -> u64 {
        ((self.rounds as f64 * seconds / 10.0).round() as u64).max(1)
    }

    /// Builds the workload's tests for `seed`.
    pub fn build(&self, seed: u64, size: Size) -> Built {
        let mut b = Suite::default();
        let mut rng = Rng::new(seed ^ 0x6762_656e_6368);
        (self.build)(&mut b, &mut rng, size);
        b.finish(&mut rng)
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "buckets_js",
        rounds: 300,
        build: buckets_js,
    },
    Workload {
        name: "collections_c",
        rounds: 300,
        build: collections_c,
    },
    Workload {
        name: "deep_sequences",
        rounds: 3,
        build: deep_sequences,
    },
    Workload {
        name: "generated_cold",
        rounds: 3,
        build: generated_cold,
    },
    Workload {
        name: "library_churn",
        rounds: 5,
        build: library_churn,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Accumulates tests and times the front end.
#[derive(Default)]
struct Suite {
    built: Built,
    digest: DefaultHasher,
}

impl Suite {
    fn parse<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.built.parse_s += start.elapsed().as_secs_f64();
        out
    }

    fn compile(&mut self, f: impl FnOnce() -> Prog) -> Arc<Prog> {
        let start = Instant::now();
        let prog = f();
        prog.bytecode();
        self.built.compile_s += start.elapsed().as_secs_f64();
        let prog = Arc::new(prog);
        self.built.progs.push(prog.clone());
        prog
    }

    fn test(&mut self, name: String, prog: &Arc<Prog>, entry: &str, check: Check) {
        self.built.tests.push(Test {
            name,
            prog: prog.clone(),
            entry: entry.to_string(),
            check,
        });
    }

    fn digest(&mut self, input: impl Hash) {
        input.hash(&mut self.digest);
    }

    /// Shuffles the tests (Fisher–Yates) and seals the digest.
    fn finish(mut self, rng: &mut Rng) -> Built {
        let tests = &mut self.built.tests;
        for i in (1..tests.len()).rev() {
            tests.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for t in tests.iter() {
            t.name.hash(&mut self.digest);
        }
        self.built.inputs = self.digest.finish();
        self.built
    }
}

/// The suites a size selects: all of them, or two small ones.
fn suites(
    all: &'static [(&'static str, &'static str)],
    size: Size,
) -> Vec<(&'static str, &'static str)> {
    all.iter()
        .filter(|(name, _)| size == Size::Full || ["stack", "queue"].contains(name))
        .copied()
        .collect()
}

/// The 74 Table 1 MiniJS tests: the paper's own dynamic-object traffic.
fn buckets_js(b: &mut Suite, _: &mut Rng, size: Size) {
    for (suite, src) in suites(gillian_js::buckets::TEST_SOURCES, size) {
        guest_tests(b, Lang::Js, src, suite, |n| n.starts_with("test_"));
    }
}

/// The §4.2 buggy-variant harnesses of `examples/bug_finding.rs`, one
/// per seeded library variant.
const BUGGY: [(&str, &str, &str); 3] = [
    (
        "array_off_by_one",
        buggy::ARRAY,
        r#"
        long main() {
            struct Array *ar = array_new(2);
            array_add(ar, 1);
            array_add(ar, 2);
            array_add(ar, 3);
            return array_size(ar);
        }
        "#,
    ),
    (
        "rbuf_over_allocation",
        buggy::RBUF,
        r#"
        long main() {
            struct RBuf *rb = rbuf_new(4);
            long *probe = rb->buffer;
            assert(block_size(probe) == 4 * sizeof(long));
            rbuf_destroy(rb);
            return 0;
        }
        "#,
    ),
    (
        "treetbl_duplicate",
        buggy::TREETBL,
        r#"
        long main() {
            long k = symb_long();
            struct TreeTbl *t = treetbl_new();
            treetbl_add(t, k, 1);
            treetbl_add(t, k, 2);
            assert(treetbl_size(t) == 1);
            treetbl_destroy(t);
            return 0;
        }
        "#,
    ),
];

/// The 161 Table 2 MiniC tests plus the three buggy-variant harnesses.
fn collections_c(b: &mut Suite, _: &mut Rng, size: Size) {
    for (suite, src) in suites(cc::TEST_SOURCES, size) {
        guest_tests(b, Lang::C, src, suite, |n| n.starts_with("test_"));
    }
    let harnesses = if size == Size::Full {
        &BUGGY[..]
    } else {
        &BUGGY[..1]
    };
    for (name, lib, harness) in harnesses {
        let module = b.parse(|| {
            let mut m = gillian_c::parse_unit(lib).expect("buggy variant parses");
            m.extend(gillian_c::parse_unit(harness).expect("harness parses"));
            m
        });
        let prog = b.compile(|| gillian_c::compile_unit(&module).expect("harness compiles"));
        b.test(format!("buggy/{name}"), &prog, "main", Check::FindsBug);
    }
}

/// A container the deep tests fill with symbolic elements.
#[derive(Clone, Copy, Debug)]
enum Container {
    /// Buckets binary search tree (MiniJS).
    Bst,
    /// Buckets set over a dictionary (MiniJS).
    Set,
    /// Collections tree set over the tree table (MiniC).
    TreeSet,
    /// Collections singly linked list (MiniC).
    SList,
}

/// What a deep test asserts after filling its container.
#[derive(Clone, Copy, Debug)]
enum After {
    /// The size is `n` (distinct elements) or at most `n`.
    Size,
    /// Every element is found again.
    Contains,
    /// The second-inserted element can be removed and is then absent.
    Remove,
}

/// One family of deep tests: `n` symbolic elements, optionally assumed
/// pairwise distinct, inserted into a container and checked.
#[derive(Clone, Copy, Debug)]
struct Family {
    container: Container,
    n: usize,
    after: After,
    distinct: bool,
}

const fn family(container: Container, n: usize, after: After, distinct: bool) -> Family {
    Family {
        container,
        n,
        after,
        distinct,
    }
}

/// Seventeen families, each test exploring 37 to 884 paths in 4–200 ms,
/// far below the 8192-path budget. On the reference host their tests
/// fall in three groups: 42 up to 30 ms, 36 in a dense band at
/// 45–75 ms and 24 at 90–200 ms. The median is then the ninth test of
/// the band and the 90th percentile lies mid-way through the heaviest
/// group, so neither sits on a jump between two groups' costs: with the
/// median right above such a jump, its run-to-run spread was 8–10%. JS
/// `pqueue` with unconstrained priorities is left out: at n = 5 it leaves
/// error paths no counter-model search can settle.
const DEEP_FAMILIES: [Family; 17] = [
    family(Container::Bst, 5, After::Size, true),
    family(Container::Bst, 5, After::Size, false),
    family(Container::Bst, 5, After::Contains, true),
    family(Container::Bst, 6, After::Size, true),
    family(Container::TreeSet, 6, After::Size, true),
    family(Container::Set, 5, After::Contains, false),
    family(Container::Set, 5, After::Remove, false),
    family(Container::Set, 6, After::Size, false),
    family(Container::Set, 6, After::Contains, false),
    family(Container::Set, 6, After::Remove, false),
    family(Container::Set, 7, After::Size, false),
    family(Container::TreeSet, 5, After::Size, true),
    family(Container::TreeSet, 5, After::Size, false),
    family(Container::TreeSet, 5, After::Contains, true),
    family(Container::SList, 6, After::Contains, false),
    family(Container::SList, 7, After::Contains, false),
    family(Container::SList, 8, After::Contains, true),
];

/// Instances per deep family, each with its own insertion order.
const DEEP_INSTANCES: usize = 6;

/// The source of deep test `id`. Its insertion order is fixed by `id`,
/// and the seed draws a constant offset per element. Elements are
/// otherwise unconstrained (or only pairwise distinct), so every order
/// explores the same number of paths, but the order shapes a tree and
/// with it the time a test takes: drawn from the seed, it moved the
/// median latency by 15% between seeds.
fn deep_test(f: Family, id: usize, rng: &mut Rng) -> (Lang, String, String) {
    let n = f.n;
    let mut order: Vec<usize> = (0..n).collect();
    let mut shuffle = Rng::new(id as u64);
    for i in (1..n).rev() {
        order.swap(i, shuffle.below(i as u64 + 1) as usize);
    }
    let offsets: Vec<i64> = (0..n).map(|_| rng.below(101) as i64 - 50).collect();
    let (js, decl, ne, eq) = match f.container {
        Container::Bst | Container::Set => (true, "var", "!==", "==="),
        Container::TreeSet | Container::SList => (false, "long", "!=", "=="),
    };
    let kind = match f.after {
        After::Size => "size",
        After::Contains => "contains",
        After::Remove => "remove",
    };
    let tag = if f.distinct { "d" } else { "f" };
    let name = format!("deep_{:?}{n}_{kind}_{tag}_{id}", f.container).to_lowercase();
    let mut s = String::new();
    if js {
        writeln!(s, "function {name}() {{").unwrap();
    } else {
        writeln!(s, "long {name}(void) {{").unwrap();
    }
    let symb = if js { "symb_number()" } else { "symb_long()" };
    for (i, off) in offsets.iter().enumerate() {
        writeln!(s, "    {decl} x{i} = {symb} + {off};").unwrap();
    }
    if f.distinct {
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                pairs.push(format!("x{i} {ne} x{j}"));
            }
        }
        writeln!(s, "    assume({});", pairs.join(" && ")).unwrap();
    }
    // Calls as (constructor, add, contains, size, remove-returns-ok, destroy).
    let call = |op: &str, x: &str| -> String {
        match (f.container, op) {
            (Container::Bst, "add") => format!("c.insert({x})"),
            (Container::Set, "add") => format!("c.add({x})"),
            (Container::Bst | Container::Set, "contains") => format!("c.contains({x})"),
            (Container::Bst | Container::Set, "size") => "c.size()".into(),
            (Container::Bst | Container::Set, "remove") => format!("c.remove({x})"),
            (Container::TreeSet, "remove") => format!("treeset_remove(c, {x}) == 0"),
            (Container::SList, "remove") => format!("slist_remove(c, {x}) == 0"),
            (Container::TreeSet, op) => format!("treeset_{op}(c{})", arg(x)),
            (Container::SList, op) => format!("slist_{op}(c{})", arg(x)),
            _ => unreachable!("no {op} on {:?}", f.container),
        }
    };
    match f.container {
        Container::Bst => writeln!(s, "    var c = bstNew();").unwrap(),
        Container::Set => writeln!(s, "    var c = setNew();").unwrap(),
        Container::TreeSet => writeln!(s, "    struct TreeSet *c = treeset_new();").unwrap(),
        Container::SList => writeln!(s, "    struct SList *c = slist_new();").unwrap(),
    }
    for &i in &order {
        writeln!(s, "    {};", call("add", &format!("x{i}"))).unwrap();
    }
    match f.after {
        After::Size if f.distinct => writeln!(s, "    assert({} {eq} {n});", call("size", "")),
        After::Size => writeln!(s, "    assert({} <= {n});", call("size", "")),
        After::Contains => order
            .iter()
            .try_for_each(|i| writeln!(s, "    assert({});", call("contains", &format!("x{i}")))),
        After::Remove => {
            let x = format!("x{}", order[1]);
            writeln!(s, "    assert({});", call("remove", &x))
                .and_then(|()| writeln!(s, "    assert(!{});", call("contains", &x)))
        }
    }
    .unwrap();
    match f.container {
        Container::TreeSet => writeln!(s, "    treeset_destroy(c);\n    return 0;").unwrap(),
        Container::SList => writeln!(s, "    slist_destroy(c);\n    return 0;").unwrap(),
        Container::Bst | Container::Set => {}
    }
    s.push_str("}\n");
    let lang = if js { Lang::Js } else { Lang::C };
    (lang, name, s)
}

/// `", x"` for a call argument, or nothing.
fn arg(x: &str) -> String {
    if x.is_empty() {
        String::new()
    } else {
        format!(", {x}")
    }
}

/// 102 bench-owned tests driving Buckets `bst`/`set` and Collections
/// `treeset`/`slist` with 5–8 symbolic elements.
fn deep_sequences(b: &mut Suite, rng: &mut Rng, size: Size) {
    let families: Vec<Family> = match size {
        Size::Full => DEEP_FAMILIES.to_vec(),
        Size::Smoke => vec![DEEP_FAMILIES[5], DEEP_FAMILIES[14]],
    };
    let instances = if size == Size::Full {
        DEEP_INSTANCES
    } else {
        1
    };
    let (mut js, mut c) = (String::new(), String::new());
    for (k, f) in families.iter().enumerate() {
        for i in 0..instances {
            let (lang, _, src) = deep_test(*f, k * instances + i, rng);
            match lang {
                Lang::Js => js.push_str(&src),
                _ => c.push_str(&src),
            }
        }
    }
    b.digest((&js, &c));
    guest_tests(b, Lang::Js, &js, "deep", |n| n.starts_with("deep_"));
    guest_tests(b, Lang::C, &c, "deep", |n| n.starts_with("deep_"));
}

/// Parses `src` on top of its language's guest library (Buckets for
/// MiniJS, Collections for MiniC, none for While), compiles one program,
/// and adds every function `is_test` accepts as a verifying test named
/// `<group>/<function>`.
fn guest_tests(b: &mut Suite, lang: Lang, src: &str, group: &str, is_test: fn(&str) -> bool) {
    let (entries, prog) = match lang {
        Lang::Js => {
            let (mut module, tests) = b.parse(|| {
                let tests = gillian_js::parse_module(src).expect("MiniJS tests parse");
                (gillian_js::buckets::library_module(), tests)
            });
            let entries: Vec<String> = tests.functions.iter().map(|f| f.name.clone()).collect();
            module.extend(tests);
            (entries, b.compile(|| gillian_js::compile_module(&module)))
        }
        Lang::C => {
            let (mut module, tests) = b.parse(|| {
                let tests = gillian_c::parse_unit(src).expect("MiniC tests parse");
                (cc::library_module(), tests)
            });
            let entries: Vec<String> = tests.funcs.iter().map(|f| f.name.clone()).collect();
            module.extend(tests);
            let prog = b.compile(|| gillian_c::compile_unit(&module).expect("MiniC tests compile"));
            (entries, prog)
        }
        Lang::While => {
            let module = b.parse(|| gillian_while::parse_program(src).expect("While tests parse"));
            let entries: Vec<String> = module.functions.iter().map(|f| f.name.clone()).collect();
            (
                entries,
                b.compile(|| gillian_while::compile_program(&module)),
            )
        }
    };
    for e in entries.iter().filter(|e| is_test(e)) {
        b.test(format!("{group}/{e}"), &prog, e, Check::Verifies(lang));
    }
}

/// Generated programs per round.
const GENERATED: u64 = 2000;

/// Op-list length of generated programs (lengths of 40 and more run for
/// minutes).
const GENERATED_OPS: usize = 14;

/// Several thousand `core::generate` While-dialect programs, each run on
/// a cold copy and checked by the oracle. The programs come from the
/// fixed generator seeds `0..GENERATED` and the run seed only permutes
/// their order: per-program cost is heavy-tailed (a few programs spend
/// hundreds of ms in failed counter-model searches), so drawing a fresh
/// sample per seed would move throughput by more than any bound.
fn generated_cold(b: &mut Suite, _: &mut Rng, size: Size) {
    let count = if size == Size::Full { GENERATED } else { 20 };
    for seed in 0..count {
        let ops = b.parse(|| gen_ops(&mut Rng::new(seed), GENERATED_OPS, MemDialect::While));
        let prog = b.compile(|| build_prog(&ops, MemDialect::While));
        b.test(format!("gen/{seed:04}"), &prog, "main", Check::OracleAgrees);
    }
}

/// One churn template: its source, language, and the operation counts
/// `N` of its instances, from half to one and a half times `base`.
/// Holes: `@ID@`, `@N@`, `@H@` = N/2, `@Q@` = N/4, `@K@` (a seeded step
/// constant from 1 to 9) and `@T@` = N(N+1)/2.
struct Template {
    src: &'static str,
    lang: Lang,
    base: u64,
    instances: u64,
}

const CHURN: [Template; 3] = [
    Template {
        src: include_str!("../guest/churn.js"),
        lang: Lang::Js,
        base: 120,
        instances: 14,
    },
    Template {
        src: include_str!("../guest/churn.c"),
        lang: Lang::C,
        base: 200,
        instances: 21,
    },
    Template {
        src: include_str!("../guest/churn.while"),
        lang: Lang::While,
        base: 80_000,
        instances: 8,
    },
];

/// Fills every `@HOLE@` of `template`.
fn instantiate(template: &str, holes: &[(&str, u64)]) -> String {
    holes.iter().fold(template.to_string(), |src, (hole, v)| {
        src.replace(&format!("@{hole}@"), &v.to_string())
    })
}

/// ~100 stress-shaped tests: long concrete operation sequences in all
/// three languages around one symbolic seed each.
fn library_churn(b: &mut Suite, rng: &mut Rng, size: Size) {
    for t in &CHURN {
        let (instances, base) = match size {
            Size::Full => (t.instances, t.base),
            Size::Smoke => (1, t.base / 10),
        };
        let mut src = String::new();
        for i in 0..instances {
            // Even N from base/2 up to 3·base/2.
            let n = (base / 2 + base * i / instances.max(1)) & !1;
            let k = rng.below(9) + 1;
            let holes = [
                ("ID", i),
                ("N", n),
                ("H", n / 2),
                ("Q", n / 4),
                ("K", k),
                ("T", n * (n + 1) / 2),
            ];
            src.push_str(&instantiate(t.src, &holes));
        }
        b.digest(&src);
        guest_tests(b, t.lang, &src, "churn", |n| n.starts_with("churn_"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_fill_every_hole() {
        let src = instantiate("f_@ID@(@N@, @N@)", &[("ID", 3), ("N", 40)]);
        assert_eq!(src, "f_3(40, 40)");
        for t in &CHURN {
            let holes = [("ID", 0), ("N", 4), ("H", 2), ("Q", 1), ("K", 1), ("T", 10)];
            let filled = instantiate(t.src, &holes);
            assert!(!filled.contains('@'), "unfilled hole in a churn template");
        }
    }

    #[test]
    fn deep_tests_take_offsets_from_the_seed_and_orders_from_the_id() {
        let f = DEEP_FAMILIES[2];
        let a = deep_test(f, 0, &mut Rng::new(1));
        let b = deep_test(f, 0, &mut Rng::new(1));
        let c = deep_test(f, 0, &mut Rng::new(2));
        let d = deep_test(f, 1, &mut Rng::new(1));
        assert_eq!(a, b);
        assert_ne!(a.2, c.2);
        assert_eq!(a.1, c.1);
        let inserts = |src: &str| -> Vec<String> {
            src.lines()
                .filter(|l| l.contains("c.insert("))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(inserts(&a.2), inserts(&c.2));
        assert_ne!(inserts(&a.2), inserts(&d.2));
        assert!(a.2.contains("assume(x0 !== x1"));
    }
}
