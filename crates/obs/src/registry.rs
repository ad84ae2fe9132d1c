//! The process-global metric registry and its two sinks.
//!
//! All recording goes through free functions that early-return when the
//! `CMR_OBS` knob is off, so the disabled cost is one relaxed atomic load.
//! Reading back is done through [`snapshot`], which filters by a name
//! prefix so one process can split its telemetry into several artifacts
//! (e.g. `train.*` vs `retrieval.*`).

use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Artifact schema version; bump on any change to the JSON layout.
/// v2 added the `p999` quantile to every histogram block; v3 added the
/// `gauges` block (last-write-wins point-in-time values, e.g. per-shard
/// circuit-breaker state).
const SCHEMA_VERSION: u32 = 3;

struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<Vec<(String, f64)>>>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    hists: BTreeMap::new(),
    series: BTreeMap::new(),
});

/// A poisoned registry lock only means another thread panicked mid-record;
/// the maps themselves are always structurally valid, so recover the guard.
fn lock() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Adds `delta` to the named monotonic counter (saturating at `u64::MAX`).
/// No-op while telemetry is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    let mut r = lock();
    let c = r.counters.entry(name.to_string()).or_insert(0);
    *c = c.saturating_add(delta);
}

/// Sets the named gauge to `value` (last write wins). Gauges are
/// point-in-time levels — a circuit-breaker state, a shard health bit —
/// where only the current value matters, unlike monotonic counters.
/// No-op while telemetry is disabled or when `value` is non-finite.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() || !value.is_finite() {
        return;
    }
    let mut r = lock();
    r.gauges.insert(name.to_string(), value);
}

/// Records one value into the named histogram. No-op while telemetry is
/// disabled or when `value` is non-finite.
pub fn observe(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let mut r = lock();
    r.hists.entry(name.to_string()).or_insert_with(Histogram::new).observe(value);
}

/// Appends one row of named `f64` fields to the named series (e.g. one row
/// per training epoch). No-op while telemetry is disabled.
pub fn series_push(name: &str, fields: &[(&str, f64)]) {
    if !crate::enabled() {
        return;
    }
    let mut row: Vec<(String, f64)> = fields.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    row.sort_by(|a, b| a.0.cmp(&b.0));
    let mut r = lock();
    r.series.entry(name.to_string()).or_default().push(row);
}

/// Clears every counter, histogram and series (tests and multi-run bins).
pub fn reset() {
    let mut r = lock();
    r.counters.clear();
    r.gauges.clear();
    r.hists.clear();
    r.series.clear();
}

/// One-line human-readable health snapshot of the whole registry.
pub fn summary_line() -> String {
    let r = lock();
    let observations: u64 = r.hists.values().map(Histogram::count).sum();
    let rows: usize = r.series.values().map(Vec::len).sum();
    format!(
        "obs: {} counters, {} gauges, {} histograms ({} observations), {} series ({} rows)",
        r.counters.len(),
        r.gauges.len(),
        r.hists.len(),
        observations,
        r.series.len(),
        rows,
    )
}

/// Immutable, name-sorted view of every metric whose name starts with
/// `prefix` (empty prefix = everything).
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, rows)` pairs, sorted by name; each row's fields are sorted
    /// by field name.
    pub series: Vec<(String, Vec<Vec<(String, f64)>>)>,
}

/// Takes a [`Snapshot`] of the registry, filtered by name prefix. Works
/// regardless of the enable knob (reading back is always allowed).
pub fn snapshot(prefix: &str) -> Snapshot {
    let r = lock();
    Snapshot {
        counters: r
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        gauges: r
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        histograms: r
            .hists
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect(),
        series: r
            .series
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, rows)| (k.clone(), rows.clone()))
            .collect(),
    }
}

impl Snapshot {
    /// True when the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Looks up a series' rows by exact name.
    pub fn series_rows(&self, name: &str) -> Option<&[Vec<(String, f64)>]> {
        self.series.iter().find(|(k, _)| k == name).map(|(_, rows)| rows.as_slice())
    }

    /// Renders the snapshot as a deterministic JSON document: fixed key
    /// order, every map sorted by name, floats in shortest-roundtrip form.
    /// Identical registry contents render to byte-identical documents.
    pub fn render_json(&self, artifact: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"artifact\": \"{}\",", json_escape(artifact));
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {value}", json_escape(name));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {}", json_escape(name), fmt_f64(*value));
        }
        out.push_str(if self.gauges.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {{\n", json_escape(name));
            let _ = writeln!(out, "      \"count\": {},", h.count);
            let _ = writeln!(out, "      \"sum\": {},", fmt_f64(h.sum));
            let _ = writeln!(out, "      \"min\": {},", fmt_f64(h.min));
            let _ = writeln!(out, "      \"max\": {},", fmt_f64(h.max));
            let _ = writeln!(out, "      \"p50\": {},", fmt_f64(h.p50));
            let _ = writeln!(out, "      \"p90\": {},", fmt_f64(h.p90));
            let _ = writeln!(out, "      \"p99\": {},", fmt_f64(h.p99));
            let _ = writeln!(out, "      \"p999\": {},", fmt_f64(h.p999));
            out.push_str("      \"buckets\": [");
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[\"{}\", {n}]", json_escape(le));
            }
            out.push_str("]\n    }");
        }
        out.push_str(if self.histograms.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"series\": {");
        for (i, (name, rows)) in self.series.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": [", json_escape(name));
            for (j, row) in rows.iter().enumerate() {
                let sep = if j == 0 { "\n" } else { ",\n" };
                let _ = write!(out, "{sep}      {{");
                for (k, (field, value)) in row.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": {}", json_escape(field), fmt_f64(*value));
                }
                out.push('}');
            }
            out.push_str(if rows.is_empty() { "]" } else { "\n    ]" });
        }
        out.push_str(if self.series.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Writes the rendered artifact durably: temp file in the target
    /// directory, then atomic rename over `path`.
    pub fn save(&self, path: &Path, artifact: &str) -> std::io::Result<()> {
        let rendered = self.render_json(artifact);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, rendered.as_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Snapshots the registry under `prefix` and writes it to `path` as the
/// named artifact. Convenience wrapper over [`snapshot`] + [`Snapshot::save`].
pub fn write_artifact(path: &Path, artifact: &str, prefix: &str) -> std::io::Result<()> {
    snapshot(prefix).save(path, artifact)
}

/// Shortest-roundtrip float rendering; non-finite values (which valid JSON
/// cannot carry) render as `null`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes `s` for use inside a JSON string literal (the quotes are not
/// added): quote, backslash, `\n`, `\r` and `\t` get their short escapes and
/// other control characters `\u00XX`. Every JSON artifact the workspace
/// writes goes through this one escaper.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    fn record_fixture() {
        reset();
        crate::set_enabled(true);
        counter_add("t.batches", 40);
        counter_add("t.batches", 2);
        counter_add("t.skipped", 0);
        gauge_set("t.breaker", 2.0);
        gauge_set("t.breaker", 0.0);
        gauge_set("t.coverage", 0.75);
        observe("t.lat", 0.0015);
        observe("t.lat", 0.0017);
        observe("t.lat", 0.9);
        series_push("t.epoch", &[("epoch", 0.0), ("loss", 0.25)]);
        series_push("t.epoch", &[("loss", 0.125), ("epoch", 1.0)]);
        crate::set_enabled(false);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        crate::set_enabled(true);
        counter_add("t.sat", u64::MAX - 1);
        counter_add("t.sat", 5);
        counter_add("t.sat", 5);
        crate::set_enabled(false);
        assert_eq!(snapshot("t.").counter("t.sat"), Some(u64::MAX));
    }

    #[test]
    fn snapshot_filters_by_prefix_and_sorts() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        crate::set_enabled(true);
        counter_add("b.two", 2);
        counter_add("a.one", 1);
        crate::set_enabled(false);
        let all = snapshot("");
        let names: Vec<&str> = all.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two"]);
        let only_a = snapshot("a.");
        assert_eq!(only_a.counter("a.one"), Some(1));
        assert!(only_a.counter("b.two").is_none());
        assert!(snapshot("zz.").is_empty());
    }

    #[test]
    fn json_artifact_is_byte_deterministic_across_runs() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        record_fixture();
        let first = snapshot("t.").render_json("OBS_test");
        record_fixture();
        let second = snapshot("t.").render_json("OBS_test");
        assert_eq!(first, second);
        assert!(first.starts_with("{\n  \"schema_version\": 3,\n"));
        assert!(first.contains("\"artifact\": \"OBS_test\""));
        // Series rows carry field-sorted keys regardless of push order.
        assert!(first.contains("{\"epoch\": 1, \"loss\": 0.125}"));
        // Gauges are last-write-wins.
        assert!(first.contains("\"t.breaker\": 0"));
        assert!(first.contains("\"t.coverage\": 0.75"));
        assert!(first.ends_with("}\n"));
        reset();
    }

    #[test]
    fn empty_snapshot_renders_valid_skeleton() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        let doc = snapshot("").render_json("OBS_empty");
        assert!(doc.contains("\"counters\": {}"));
        assert!(doc.contains("\"gauges\": {}"));
        assert!(doc.contains("\"histograms\": {}"));
        assert!(doc.contains("\"series\": {}"));
    }

    #[test]
    fn artifact_write_is_atomic_and_reproducible() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        record_fixture();
        let dir = std::env::temp_dir().join("cmr_obs_artifact_test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("OBS_test.json");
        write_artifact(&path, "OBS_test", "t.").expect("first write");
        let first = std::fs::read_to_string(&path).expect("read first");
        write_artifact(&path, "OBS_test", "t.").expect("second write");
        let second = std::fs::read_to_string(&path).expect("read second");
        assert_eq!(first, second);
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
        reset();
    }
}
