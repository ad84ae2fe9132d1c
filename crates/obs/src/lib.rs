//! First-party, zero-dependency observability for the workspace.
//!
//! Three primitives feed one process-global registry:
//!
//! * [`counter_add`] — monotonic `u64` counters (saturating on overflow),
//! * [`gauge_set`] — last-write-wins point-in-time levels (e.g. a shard's
//!   circuit-breaker state),
//! * [`observe`] / [`span`] — fixed-bucket value/latency histograms with a
//!   1–2–5 log ladder of bucket edges (see [`BUCKET_EDGES`]),
//! * [`series_push`] — ordered rows of named `f64` fields (e.g. one row per
//!   training epoch).
//!
//! Two sinks read the registry back out:
//!
//! * [`summary_line`] — a one-line human-readable health snapshot,
//! * [`Snapshot::render_json`] / [`write_artifact`] — a deterministic,
//!   sorted, `schema_version`-stamped JSON artifact in the style of
//!   `CALLGRAPH.json` (byte-identical across runs with identical inputs).
//!
//! Everything is gated behind the `CMR_OBS` environment knob (off by
//! default). When the knob is off every recording call is a single relaxed
//! atomic load and an early return, so instrumented hot paths pay near-zero
//! overhead. Programs that want telemetry unconditionally (e.g. the
//! `exp_obs` bench bin) call [`set_enabled`] instead of setting the env var.
//!
//! The only `std::env::var` read lives in this file and is registered with
//! the `env-centralization` lint rule.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hist;
mod registry;
mod span;

pub use hist::{HistogramSnapshot, BUCKET_EDGES};
pub use registry::{
    counter_add, gauge_set, json_escape, observe, reset, series_push, snapshot, summary_line,
    write_artifact, Snapshot,
};
pub use span::{span, Span};

use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state knob: 0 = unresolved (read `CMR_OBS` on first use),
/// 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

const OFF: u8 = 1;
const ON: u8 = 2;

/// Reads the `CMR_OBS` env knob. `1`, `true` and `on` (trimmed,
/// case-insensitive) enable telemetry; anything else (including unset)
/// disables it.
fn resolve_env() -> u8 {
    let on = std::env::var("CMR_OBS")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "on"
        })
        .unwrap_or(false);
    if on {
        return ON;
    }
    OFF
}

/// Returns whether telemetry recording is enabled.
///
/// The first call resolves the `CMR_OBS` environment knob and caches the
/// result; subsequent calls are a single relaxed atomic load. A racing
/// first-use from two threads resolves to the same value (the env read is
/// pure), so first-writer-wins is safe.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let resolved = resolve_env();
            match STATE.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => resolved == ON,
                Err(current) => current == ON,
            }
        }
        current => current == ON,
    }
}

/// Overrides the `CMR_OBS` knob for this process (tests and bins that want
/// telemetry regardless of the environment).
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Writes one progress line to stderr when telemetry is enabled; a no-op
/// otherwise. Library crates route their former `eprintln!` progress sites
/// through here so logs respect the `CMR_OBS` off switch and never
/// interleave with artifact stdout by default.
pub fn log(line: &str) {
    if !enabled() {
        return;
    }
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry and the enable knob are process-global, so tests that
    /// touch them serialize on this lock (cargo runs tests on threads).
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn set_enabled_overrides_and_disables() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(false);
        counter_add("noop.counter", 7);
        gauge_set("noop.gauge", 1.0);
        observe("noop.hist", 0.5);
        series_push("noop.series", &[("x", 1.0)]);
        {
            let _span = span("noop.span");
        }
        set_enabled(true);
        let snap = snapshot("");
        set_enabled(false);
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.series.is_empty());
    }
}
