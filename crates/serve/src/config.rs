//! Server configuration and the serving environment knobs.
//!
//! The only `std::env::var` reads in this crate live in this file (see
//! [`ServeConfig::from_env`]) and are registered with the
//! `env-centralization` lint rule:
//!
//! * `CMR_SERVE_BATCH` — admission-queue micro-batch ceiling,
//! * `CMR_SERVE_SHARDS` — gallery shard count for the scatter-gather tier,
//! * `CMR_SERVE_DEADLINE_US` — per-shard scatter-gather deadline in µs,
//! * `CMR_SERVE_RETRIES` — bounded retry budget per shard per query,
//! * `CMR_SERVE_HEDGE_US` — straggler hedge delay in µs (0 disables),
//! * `CMR_IVF_NPROBE` — cells probed per query when serving an IVF index
//!   (the recall/latency dial for indexes booted from `CMRIVF1` files).
//!
//! Everything else (timeouts, cache geometry, execution slots) is plain
//! struct state with defaults tuned for the integration tests; bins
//! override the fields directly from their CLI flags.

use std::time::Duration;

/// Admission-queue batch ceiling when `CMR_SERVE_BATCH` is unset/invalid.
pub const DEFAULT_MAX_BATCH: usize = 8;
/// Shard count when `CMR_SERVE_SHARDS` is unset/invalid (1 = unsharded).
pub const DEFAULT_SHARDS: usize = 1;
/// Per-shard deadline when `CMR_SERVE_DEADLINE_US` is unset/invalid.
pub const DEFAULT_DEADLINE_US: u64 = 250_000;
/// Retry budget when `CMR_SERVE_RETRIES` is unset/invalid.
pub const DEFAULT_RETRIES: u32 = 2;
/// Hedge delay when `CMR_SERVE_HEDGE_US` is unset/invalid (0 = no hedging).
pub const DEFAULT_HEDGE_US: u64 = 0;
/// IVF probe width when `CMR_IVF_NPROBE` is unset/invalid.
pub const DEFAULT_IVF_NPROBE: usize = 8;

/// Tunables for [`Server`](crate::Server), the admission queue and the
/// result cache.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest micro-batch the admission queue hands the ranking kernel.
    pub max_batch: usize,
    /// Ignored: the admission queue never waits for company. Kept only for
    /// the `Batcher::new` call in `perfbench/src/layers.rs`.
    pub max_wait: Duration,
    /// Execution slots of the admission queue: at most this many batches
    /// rank at once. Slots are not threads; each batch runs on the
    /// connection thread whose query heads it.
    pub workers: usize,
    /// Per-connection socket read timeout; a connection that goes quiet
    /// mid-request for this long gets `408 Request Timeout`.
    pub read_timeout: Duration,
    /// Total result-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Largest accepted request body in bytes (`413` beyond it).
    pub max_body_bytes: usize,
    /// Largest accepted request head (request line + headers, `431` beyond).
    pub max_head_bytes: usize,
    /// Number of gallery shards the scatter-gather tier fans out to
    /// (1 = classic single-engine serving).
    pub shards: usize,
    /// Per-shard scatter-gather deadline: a shard that has not answered
    /// within this budget (across retries and hedges) is dropped from the
    /// merge and the response is marked degraded.
    pub deadline: Duration,
    /// Bounded retry budget per shard per query (0 = first attempt only).
    pub retries: u32,
    /// How long to wait on a shard's first attempt before hedging a second
    /// concurrent request at it; `Duration::ZERO` disables hedging.
    pub hedge_after: Duration,
    /// Cells probed per query when a direction is served by an IVF index
    /// ([`Backend::Ivf`](crate::Backend::Ivf)); ignored by exact backends.
    /// More probes buy recall with latency — `bench_ann` archives the curve.
    pub ivf_nprobe: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: DEFAULT_MAX_BATCH,
            max_wait: Duration::ZERO,
            workers: 2,
            read_timeout: Duration::from_millis(2000),
            cache_capacity: 1024,
            cache_shards: 8,
            max_body_bytes: 1 << 20,
            max_head_bytes: 8 << 10,
            shards: DEFAULT_SHARDS,
            deadline: Duration::from_micros(DEFAULT_DEADLINE_US),
            retries: DEFAULT_RETRIES,
            hedge_after: Duration::from_micros(DEFAULT_HEDGE_US),
            ivf_nprobe: DEFAULT_IVF_NPROBE,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by the six serving env knobs, resolved through
    /// `lookup` (`env::var` in production, a closure in tests).
    ///
    /// Unset, empty, unparsable or zero values fall back to the defaults —
    /// a misconfigured knob must degrade to a working server, never panic.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let mut cfg = ServeConfig::default();
        if let Some(batch) = lookup("CMR_SERVE_BATCH").and_then(|v| v.trim().parse::<usize>().ok())
        {
            if batch >= 1 {
                cfg.max_batch = batch;
            }
        }
        if let Some(shards) =
            lookup("CMR_SERVE_SHARDS").and_then(|v| v.trim().parse::<usize>().ok())
        {
            if shards >= 1 {
                cfg.shards = shards;
            }
        }
        if let Some(us) =
            lookup("CMR_SERVE_DEADLINE_US").and_then(|v| v.trim().parse::<u64>().ok())
        {
            if us >= 1 {
                cfg.deadline = Duration::from_micros(us);
            }
        }
        if let Some(retries) =
            lookup("CMR_SERVE_RETRIES").and_then(|v| v.trim().parse::<u32>().ok())
        {
            cfg.retries = retries;
        }
        if let Some(us) = lookup("CMR_SERVE_HEDGE_US").and_then(|v| v.trim().parse::<u64>().ok()) {
            cfg.hedge_after = Duration::from_micros(us);
        }
        if let Some(nprobe) =
            lookup("CMR_IVF_NPROBE").and_then(|v| v.trim().parse::<usize>().ok())
        {
            if nprobe >= 1 {
                cfg.ivf_nprobe = nprobe;
            }
        }
        cfg
    }

    /// [`from_lookup`](Self::from_lookup) against the process environment:
    /// reads `CMR_SERVE_BATCH`, `CMR_SERVE_SHARDS`, `CMR_SERVE_DEADLINE_US`,
    /// `CMR_SERVE_RETRIES`, `CMR_SERVE_HEDGE_US` and `CMR_IVF_NPROBE`.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_unset() {
        let cfg = ServeConfig::from_lookup(|_| None);
        assert_eq!(cfg.max_batch, DEFAULT_MAX_BATCH);
    }

    #[test]
    fn knobs_override_defaults() {
        let cfg = ServeConfig::from_lookup(|name| match name {
            "CMR_SERVE_BATCH" => Some(" 32 ".into()),
            "CMR_SERVE_SHARDS" => Some("4".into()),
            "CMR_SERVE_DEADLINE_US" => Some("90000".into()),
            "CMR_SERVE_RETRIES" => Some("5".into()),
            "CMR_SERVE_HEDGE_US" => Some("20000".into()),
            "CMR_IVF_NPROBE" => Some("24".into()),
            _ => None,
        });
        assert_eq!(cfg.max_batch, 32);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.deadline, Duration::from_micros(90_000));
        assert_eq!(cfg.retries, 5);
        assert_eq!(cfg.hedge_after, Duration::from_micros(20_000));
        assert_eq!(cfg.ivf_nprobe, 24);
    }

    #[test]
    fn invalid_or_zero_knobs_fall_back() {
        let cfg = ServeConfig::from_lookup(|name| match name {
            "CMR_SERVE_BATCH" => Some("0".into()),
            "CMR_SERVE_SHARDS" => Some("0".into()),
            "CMR_SERVE_DEADLINE_US" => Some("0".into()),
            "CMR_SERVE_RETRIES" => Some("many".into()),
            "CMR_SERVE_HEDGE_US" => Some("-3".into()),
            "CMR_IVF_NPROBE" => Some("0".into()),
            _ => None,
        });
        assert_eq!(cfg.max_batch, DEFAULT_MAX_BATCH);
        assert_eq!(cfg.shards, DEFAULT_SHARDS, "a zero shard count is meaningless");
        assert_eq!(cfg.deadline, Duration::from_micros(DEFAULT_DEADLINE_US));
        assert_eq!(cfg.retries, DEFAULT_RETRIES);
        assert_eq!(cfg.hedge_after, Duration::from_micros(DEFAULT_HEDGE_US));
        assert_eq!(cfg.ivf_nprobe, DEFAULT_IVF_NPROBE, "zero probes can answer nothing");
        // Zero retries (first attempt only) and zero hedge (disabled) are legal.
        let lean = ServeConfig::from_lookup(|name| match name {
            "CMR_SERVE_RETRIES" => Some("0".into()),
            "CMR_SERVE_HEDGE_US" => Some("0".into()),
            _ => None,
        });
        assert_eq!(lean.retries, 0);
        assert_eq!(lean.hedge_after, Duration::ZERO);
    }
}
