//! # cmr-serve
//!
//! A std-only micro-batching retrieval server for the trained cross-modal
//! embeddings: a multi-threaded TCP front end with a minimal first-party
//! HTTP/1.1 layer, answering im→rec and rec→im queries against in-memory
//! galleries (exact batched kernel or IVF index).
//!
//! The paper frames retrieval in the cooking context as an interactive,
//! Recipe1M-scale problem; this crate is the serving half of that claim.
//! Its throughput lever is the **admission queue** ([`Batcher`]): every
//! query runs on a connection thread, and queries that pile up behind
//! busy execution slots leave in micro-batches — when a slot frees, the
//! connection thread whose query is at the front takes it with up to
//! `CMR_SERVE_BATCH − 1` queued queries of its shape and dispatches them
//! at once to the batched ranking kernel, which is bit-identical per
//! query to the single-query path, so batching never changes response
//! bytes. A sharded LRU cache ([`ShardedCache`])
//! keyed on the raw query bytes short-circuits repeats entirely.
//!
//! Its availability lever is the **fault-tolerant sharded tier**: a
//! [`ShardFleet`] partitions the galleries across worker replicas and a
//! [`Router`] scatter-gathers each query with per-shard deadlines, bounded
//! retries, hedged requests and circuit breakers (knobs:
//! `CMR_SERVE_SHARDS`, `CMR_SERVE_DEADLINE_US`, `CMR_SERVE_RETRIES`,
//! `CMR_SERVE_HEDGE_US`). With every shard healthy the merged response is
//! byte-identical to single-engine serving; with shards down it degrades
//! gracefully instead of failing. The [`FaultProxy`] chaos layer injects
//! delays, resets, truncations and wedged shards to prove it.
//!
//! ```no_run
//! use cmr_retrieval::Embeddings;
//! use cmr_serve::{Engine, ServeConfig, Server};
//!
//! let recipes = Embeddings::new(2, vec![1.0, 0.0, 0.0, 1.0]);
//! let images = recipes.clone();
//! let engine = Engine::exact(recipes, images).expect("galleries valid");
//! let mut server =
//!     Server::start(engine, ServeConfig::from_env(), "127.0.0.1:0").expect("bind");
//! println!("serving on {}", server.local_addr());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod breaker;
pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod faultproxy;
pub mod http;
pub mod router;
pub mod server;
pub mod shard;

pub use batch::Batcher;
pub use breaker::{Admission, Breaker, BreakerConfig};
pub use cache::ShardedCache;
pub use config::ServeConfig;
pub use engine::{render_hits, Backend, Direction, Engine};
pub use error::ServeError;
pub use faultproxy::{Fault, FaultPlan, FaultProxy};
pub use router::{Routed, Router, RouterConfig};
pub use server::{Server, MAX_K};
pub use shard::{partition, ShardFleet, ShardSpec};
