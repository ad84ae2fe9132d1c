//! # cmr-lint
//!
//! First-party static analysis for this workspace. The build environment has
//! no crates.io access, so instead of clippy plugins or external linters the
//! repo carries its own: a hand-rolled Rust lexer ([`lexer`]) feeding a
//! recursive-descent parser ([`parser`]), a workspace-wide call graph with
//! transitive panic propagation ([`graph`]), and a repo-specific rule engine
//! ([`rules`]).
//!
//! Each structural fact is decided once per file and shared: the
//! [`parser::Code`] view holds the code tokens, every bracket's partner and
//! the test-only spans that both the token rules and the parser read; one
//! walk per fn body extracts that body's facts; [`rules::PathKind`]
//! classifies each path once; and the four JSON artifacts go through one
//! writer in [`report`] and the workspace's one escaper,
//! `cmr_obs::json_escape`.
//!
//! The rules encode the conventions the reproduction's correctness rests on:
//!
//! * **op-coverage** — every autodiff operator must have a
//!   central-finite-difference gradient check, so new operators cannot ship
//!   untested;
//! * **no-panic-lib** — library crates return typed errors instead of
//!   panicking on untrusted input;
//! * **env-centralization** — runtime knobs stay discoverable in one place;
//! * **no-println-lib** — libraries don't write to stdio behind callers'
//!   backs;
//! * **float-eq** — float comparisons go through tolerance helpers (exact
//!   zero is allowed by construction);
//! * **panic-path** — no `pub` library fn may *transitively* reach an
//!   undefused panic (unwrap/assert/index three calls down still counts);
//!   findings carry the shortest witness chain;
//! * **lossy-cast** — narrowing/sign-changing/truncating `as` casts must be
//!   provably in range or carry a reasoned allow;
//! * **unused-result** — a workspace `Result` may not be discarded;
//! * **lock-order** — a cycle in the acquired-while-holding lock graph
//!   ([`locks`]) is a potential deadlock; every interleaved witness chain is
//!   reported;
//! * **blocking-under-lock** — no I/O, sleep, join, channel op or second
//!   workspace-lock acquisition while a guard is live;
//! * **condvar-discipline** — `Condvar::wait` must sit in a
//!   predicate-rechecking loop, and `notify` without the paired mutex held
//!   is flagged as advisory;
//! * **untrusted-length** / **untrusted-index** — interprocedural taint
//!   analysis ([`taint`]): bytes from the network, disk or environment may
//!   not reach `Vec::with_capacity`/`reserve`/`set_len`/`vec![…; n]` or a
//!   slice index/range/`split_at` without a dominating bounds check, a
//!   `.min`/`.clamp`/mask bound, or a reasoned `trust(…)` annotation;
//!   flows render to `TAINTGRAPH.json` with witness chains;
//! * **stale-allow** — an allow that suppresses nothing is itself a finding.
//!
//! Violations that are intentional carry an inline
//! `// cmr-lint: allow(rule-id) reason` comment (or a file-scope
//! `// cmr-lint: allow-file(rule-id) reason`); the reason is mandatory.
//! Taint flows additionally accept `// cmr-lint: trust(reason)` on or above
//! the sink line. Every directive lives in one [`rules::Ledger`] that all
//! passes query and that records which directives were load-bearing; the
//! interprocedural passes share one shortest-witness BFS
//! (`graph::Graph::reach`) and one chain renderer.
//!
//! Run it with `cargo run -p cmr-lint --release -- --workspace` (the
//! `scripts/verify.sh` gate does), add `--graph results/CALLGRAPH.json` for
//! the call-graph artifact, and see the README's "Static analysis" section
//! for the rule table and how to add a rule.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;

pub use rules::{analyze, run, Analysis, Finding, SourceFile};
