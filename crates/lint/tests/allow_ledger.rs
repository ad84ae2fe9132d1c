//! Allow-directive matrix for the interprocedural rules: every rule id that
//! is suppressed through the call graph, the lock model or the taint pass —
//! plus the `trust(…)` hatch — in line scope and, where the rule takes it,
//! file scope. Each case proves three things: the unsuppressed snippet
//! really fires, a load-bearing directive silences it without tripping
//! `stale-allow`, and the same directive over violation-free code is
//! reported as `stale-allow`.

use cmr_lint::rules::{analyze, Analysis, SourceFile};

/// One row of the matrix. `src` carries an `//@` marker line where a line
/// directive goes; a file directive is prepended instead. `clean` is the
/// `(from, to)` edit that removes the violation.
struct Case {
    /// Rule whose finding the directive must suppress.
    rule: &'static str,
    /// `allow(rule)`, `allow-file(rule)` or `trust`.
    directive: &'static str,
    src: &'static str,
    clean: (&'static str, &'static str),
}

const PANIC_SITE: &str = "\
pub fn pick(v: &[u32], i: usize) -> u32 {
    //@
    v[i]
}
";

const PANIC_BARRIER: &str = "\
//@
pub fn pick(v: &[u32], i: usize) -> u32 {
    v[i]
}
";

const PANIC_CLEAN: (&str, &str) = ("v[i]", "v.get(i).copied().unwrap_or(0)");

const BLOCKING_SITE: &str = "\
use std::sync::Mutex;

pub struct Slow {
    m: Mutex<u32>,
}

impl Slow {
    pub fn nap(&self) -> u32 {
        let g = self.m.lock().unwrap_or_else(|e| e.into_inner());
        //@
        std::thread::sleep(std::time::Duration::from_millis(1));
        *g
    }
}
";

const BLOCKING_BARRIER: &str = "\
use std::sync::Mutex;

pub struct Slow {
    m: Mutex<u32>,
}

impl Slow {
    //@
    pub fn nap(&self) -> u32 {
        let g = self.m.lock().unwrap_or_else(|e| e.into_inner());
        std::thread::sleep(std::time::Duration::from_millis(1));
        *g
    }
}
";

const BLOCKING_CLEAN: (&str, &str) =
    ("std::thread::sleep(std::time::Duration::from_millis(1));", "");

/// AB/BA inversion; the cycle's report anchors at the first edge site, the
/// `bump_b` call in `forward`.
const INVERSION: &str = "\
use std::sync::Mutex;

pub struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());
        //@
        let out = *ga + self.bump_b();
        drop(ga);
        out
    }

    pub fn backward(&self) -> u32 {
        let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());
        let out = *gb + self.peek_a();
        drop(gb);
        out
    }

    fn bump_b(&self) -> u32 {
        let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());
        *gb
    }

    fn peek_a(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());
        *ga
    }
}
";

const INVERSION_CLEAN: (&str, &str) = ("*gb + self.peek_a()", "*gb");

const CONDVAR: &str = "\
use std::sync::{Condvar, Mutex};

pub struct Gate {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    pub fn wait_once(&self) {
        let mut g = self.ready.lock().unwrap_or_else(|e| e.into_inner());
        if !*g {
            //@
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
    }
}
";

const CONDVAR_CLEAN: (&str, &str) = ("if !*g", "while !*g");

const ALLOC: &str = "\
fn alloc(data: &[u8]) -> Vec<u8> {
    let n = data[0] as usize;
    //@
    Vec::with_capacity(n)
}
";

const ALLOC_CLEAN: (&str, &str) = ("data[0] as usize", "data.len()");

const INDEX: &str = "\
fn lookup(data: &[u8], table: &[u32]) -> u32 {
    let i = data[1] as usize;
    //@
    table[i]
}
";

const INDEX_CLEAN: (&str, &str) = ("data[1] as usize", "data.len()");

const CASES: &[Case] = &[
    Case { rule: "panic-path", directive: "allow(panic-path)", src: PANIC_SITE, clean: PANIC_CLEAN },
    Case { rule: "panic-path", directive: "allow(panic-path)", src: PANIC_BARRIER, clean: PANIC_CLEAN },
    Case { rule: "panic-path", directive: "allow-file(panic-path)", src: PANIC_SITE, clean: PANIC_CLEAN },
    // A line `allow(no-panic-lib)` also defuses the panic-path site it sits on.
    Case { rule: "panic-path", directive: "allow(no-panic-lib)", src: PANIC_SITE, clean: PANIC_CLEAN },
    Case {
        rule: "blocking-under-lock",
        directive: "allow(blocking-under-lock)",
        src: BLOCKING_SITE,
        clean: BLOCKING_CLEAN,
    },
    Case {
        rule: "blocking-under-lock",
        directive: "allow(blocking-under-lock)",
        src: BLOCKING_BARRIER,
        clean: BLOCKING_CLEAN,
    },
    Case {
        rule: "blocking-under-lock",
        directive: "allow-file(blocking-under-lock)",
        src: BLOCKING_SITE,
        clean: BLOCKING_CLEAN,
    },
    Case { rule: "lock-order", directive: "allow(lock-order)", src: INVERSION, clean: INVERSION_CLEAN },
    Case {
        rule: "lock-order",
        directive: "allow-file(lock-order)",
        src: INVERSION,
        clean: INVERSION_CLEAN,
    },
    Case {
        rule: "condvar-discipline",
        directive: "allow(condvar-discipline)",
        src: CONDVAR,
        clean: CONDVAR_CLEAN,
    },
    Case {
        rule: "condvar-discipline",
        directive: "allow-file(condvar-discipline)",
        src: CONDVAR,
        clean: CONDVAR_CLEAN,
    },
    Case { rule: "untrusted-length", directive: "allow(untrusted-length)", src: ALLOC, clean: ALLOC_CLEAN },
    Case {
        rule: "untrusted-length",
        directive: "allow-file(untrusted-length)",
        src: ALLOC,
        clean: ALLOC_CLEAN,
    },
    Case { rule: "untrusted-length", directive: "trust", src: ALLOC, clean: ALLOC_CLEAN },
    Case { rule: "untrusted-index", directive: "allow(untrusted-index)", src: INDEX, clean: INDEX_CLEAN },
    Case {
        rule: "untrusted-index",
        directive: "allow-file(untrusted-index)",
        src: INDEX,
        clean: INDEX_CLEAN,
    },
    Case { rule: "untrusted-index", directive: "trust", src: INDEX, clean: INDEX_CLEAN },
];

impl Case {
    fn label(&self) -> String {
        format!("{} over {}", self.directive, self.rule)
    }

    fn comment(&self) -> String {
        if self.directive == "trust" {
            "// cmr-lint: trust(matrix case: vouched by the test)".to_string()
        } else {
            format!("// cmr-lint: {} matrix case: vouched by the test", self.directive)
        }
    }

    /// Source with the directive in place (or none at all).
    fn render(&self, src: &str, with_directive: bool) -> String {
        let file_scope = self.directive.starts_with("allow-file(");
        let line = if with_directive && !file_scope { self.comment() } else { String::new() };
        let body = src.replace("//@", &line);
        if with_directive && file_scope {
            format!("{}\n{body}", self.comment())
        } else {
            body
        }
    }

    /// The `stale-allow` message prefix this directive renders as.
    fn stale_form(&self) -> String {
        if self.directive == "trust" {
            "allow(trust)".to_string()
        } else {
            self.directive.to_string()
        }
    }
}

fn lint(src: String) -> Analysis {
    analyze(&[SourceFile { path: "crates/m/src/lib.rs".to_string(), src }])
}

fn summary(a: &Analysis) -> Vec<String> {
    a.findings.iter().map(|f| f.render()).collect()
}

#[test]
fn every_unsuppressed_case_fires_its_rule() {
    for case in CASES {
        let a = lint(case.render(case.src, false));
        assert!(
            a.findings.iter().any(|f| f.rule == case.rule),
            "{}: the violation must fire without a directive: {:#?}",
            case.label(),
            summary(&a)
        );
    }
}

#[test]
fn load_bearing_directive_suppresses_without_stale_allow() {
    for case in CASES {
        let a = lint(case.render(case.src, true));
        assert!(
            a.findings.iter().all(|f| f.rule != case.rule && f.rule != "stale-allow"),
            "{}: directive must suppress and count as used: {:#?}",
            case.label(),
            summary(&a)
        );
        assert_eq!((a.allows_total, a.allows_used), (1, 1), "{}", case.label());
    }
}

#[test]
fn directive_without_its_violation_is_stale() {
    for case in CASES {
        let (from, to) = case.clean;
        assert!(case.src.contains(from), "{}: clean edit must apply", case.label());
        let a = lint(case.render(&case.src.replace(from, to), true));
        let stale: Vec<_> = a.findings.iter().filter(|f| f.rule == "stale-allow").collect();
        assert_eq!(stale.len(), 1, "{}: {:#?}", case.label(), summary(&a));
        assert!(
            stale[0].message.starts_with(&format!("{} suppresses no findings", case.stale_form())),
            "{}: {}",
            case.label(),
            stale[0].message
        );
        assert!(
            a.findings.iter().all(|f| f.rule != case.rule),
            "{}: the clean variant must not fire: {:#?}",
            case.label(),
            summary(&a)
        );
        assert_eq!((a.allows_total, a.allows_used), (1, 0), "{}", case.label());
    }
}
