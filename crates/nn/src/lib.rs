//! # cmr-nn
//!
//! Neural-network building blocks on top of the `cmr-tensor` autodiff tape:
//! a parameter store with per-parameter freeze flags (the paper freezes the
//! visual backbone for the first training phase, §4.4), `Linear`,
//! `Embedding`, masked `Lstm`/`BiLstm` layers, an `Mlp` helper, the Adam
//! optimiser, binary checkpointing, and the one bounded reader ([`frame`])
//! that every persisted binary format decodes through.
//!
//! ## The bind/step cycle
//!
//! Parameters live in a [`ParamStore`] *outside* the per-batch tape. Each
//! step, layers [`bind`](ParamStore::bind) their parameters into the graph
//! (frozen parameters bind as constants), the loss is built and
//! back-propagated, and [`Adam::step`] routes node gradients back to the
//! store:
//!
//! ```
//! use cmr_nn::{Adam, Linear, ParamStore};
//! use cmr_tensor::{Graph, TensorData};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let lin = Linear::new(&mut store, &mut rng, "proj", 4, 2);
//! let mut adam = Adam::new(1e-2);
//!
//! let mut g = Graph::new();
//! let mut binds = cmr_nn::Bindings::new();
//! let x = g.leaf(TensorData::zeros(3, 4), false);
//! let y = lin.forward(&mut g, &mut binds, &store, x);
//! let loss = g.mean_all(y);
//! g.backward(loss);
//! adam.step(&mut store, &g, &binds);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adam;
pub mod checkpoint;
pub mod crc32;
pub mod embedding;
pub mod frame;
pub mod linear;
pub mod lstm;
pub mod mlp;
pub mod param;
pub mod serialize;

pub use adam::Adam;
pub use checkpoint::{atomic_write, CheckpointError, CheckpointStore, Slot};
pub use embedding::Embedding;
pub use linear::Linear;
pub use lstm::{BiLstm, Lstm};
pub use mlp::{Activation, Mlp};
pub use param::{Bindings, ParamId, ParamStore};
pub use serialize::{load_embedding_blob, save_embedding_blob, TrainState};
