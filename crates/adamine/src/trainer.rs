//! The training loop (§4.4), crash-safe checkpointing, and the
//! trained-model inference API.
//!
//! ## Robustness
//!
//! [`Trainer::fit`] is the hardened entry point: it returns a typed
//! [`TrainError`] instead of panicking, optionally persists a full
//! `CMRCKPT2` training-state checkpoint (parameters, Adam moments, RNG,
//! sampler order, epoch stats, best-model blob) to disk after every epoch
//! via [`CheckpointStore`], and can resume an interrupted run from that
//! checkpoint **bit-identically** — the resumed run ends with exactly the
//! parameters and statistics of an uninterrupted one. The step loop guards
//! against non-finite losses: a NaN/∞ batch is skipped (no backward pass,
//! no Adam update, moments untouched) and counted in
//! [`EpochStats::skipped_batches`]; after
//! [`TrainConfig::max_bad_batches`](crate::TrainConfig) *consecutive* bad
//! batches the epoch is rolled back to its last good state and retried
//! once before the run fails with [`TrainError::Diverged`].
//!
//! [`FaultPlan`] injects faults (NaN losses, kills between epochs) for the
//! fault-injection test suite.
//!
//! ## Observability
//!
//! With the `CMR_OBS` knob on (see [`cmr_obs`]), every epoch emits one
//! `train.epoch` series row — mean loss, validation MedR, the
//! active-triplet fraction β′ for *both* the instance and the semantic
//! loss, the learning phase, and the skipped-batch count — plus
//! `train.batches`/`train.skipped_batches` counters and
//! `train.checkpoint_save_s`/`train.checkpoint_load_s` latency histograms
//! around checkpoint persistence. With the knob off every hook is a single
//! atomic check.

use crate::config::{ConfigError, LossKind, ModelConfig, TrainConfig};
use crate::losses;
use crate::model::{BatchInputs, TwoBranchModel};
use crate::precompute::{RecipeFeatures, SentenceFeaturizer};
use crate::scenario::Scenario;
use cmr_data::{BatchSampler, Dataset, Recipe, Split};
use cmr_nn::frame::{put_len, Frame};
use cmr_nn::serialize::{self, Checkpoint};
use cmr_nn::{Adam, Bindings, CheckpointError, CheckpointStore, Slot, TrainState};
use cmr_retrieval::{median_rank, ranks_of_matches, Embeddings};
use cmr_tensor::Graph;
use cmr_word2vec::{SgnsConfig, WordVectors};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Per-epoch training statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's applied (non-skipped) batches.
    pub mean_loss: f64,
    /// Validation median rank (mean of both directions) — the model
    /// selection criterion.
    pub val_medr: f64,
    /// Fraction of instance triplets still active — the adaptive-mining
    /// curriculum signal (starts near 1, decays as constraints are
    /// satisfied).
    pub active_fraction: f64,
    /// Batches skipped by the non-finite-loss guard this epoch.
    pub skipped_batches: usize,
}

/// Why a training run failed. Returned by [`Trainer::fit`].
#[derive(Debug)]
pub enum TrainError {
    /// The training configuration violates one of its documented
    /// constraints (caught before any work starts).
    Config(ConfigError),
    /// The epoch loop never produced a model (zero scheduled epochs and no
    /// checkpointed best to fall back on).
    NoEpochs,
    /// Saving or loading a checkpoint failed (IO error, corrupt blob, or
    /// an architecture mismatch against the checkpoint).
    Checkpoint(CheckpointError),
    /// The non-finite guard tripped `max_bad_batches` times in a row and a
    /// rollback retry of the epoch diverged again.
    Diverged {
        /// Epoch that could not be completed.
        epoch: usize,
        /// Non-finite batches skipped in the failing pass.
        skipped: usize,
    },
    /// A [`FaultPlan`] kill fired after the given epoch (its checkpoint,
    /// when checkpointing is enabled, is already durable on disk).
    Interrupted {
        /// Last completed epoch.
        epoch: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Config(e) => write!(f, "{e}"),
            TrainError::NoEpochs => write!(f, "training produced no epochs and no model"),
            TrainError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            TrainError::Diverged { epoch, skipped } => write!(
                f,
                "epoch {epoch} diverged: {skipped} consecutive non-finite batches survived a rollback retry"
            ),
            TrainError::Interrupted { epoch } => {
                write!(f, "training interrupted after epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Config(e) => Some(e),
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// Deterministic fault injection for the robustness test suite.
///
/// All hooks default to "never fire". Closures are `Fn` so a plan can be
/// consulted repeatedly; use interior mutability (e.g. [`std::cell::Cell`])
/// for one-shot transient faults.
#[derive(Default)]
pub struct FaultPlan {
    nan_loss: Option<Box<dyn Fn(usize, usize) -> bool>>,
    kill_after_epoch: Option<Box<dyn Fn(usize) -> bool>>,
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Replaces the computed loss of every `(epoch, batch)` the predicate
    /// selects with NaN, exercising the non-finite guard.
    pub fn with_nan_loss(mut self, f: impl Fn(usize, usize) -> bool + 'static) -> Self {
        self.nan_loss = Some(Box::new(f));
        self
    }

    /// Simulates a kill: after each epoch the predicate selects (post
    /// checkpoint write), `fit` aborts with [`TrainError::Interrupted`].
    pub fn with_kill_after_epoch(mut self, f: impl Fn(usize) -> bool + 'static) -> Self {
        self.kill_after_epoch = Some(Box::new(f));
        self
    }

    fn injects_nan(&self, epoch: usize, batch: usize) -> bool {
        self.nan_loss.as_ref().is_some_and(|f| f(epoch, batch))
    }

    fn kills_after(&self, epoch: usize) -> bool {
        self.kill_after_epoch.as_ref().is_some_and(|f| f(epoch))
    }
}

/// Drives one scenario's training run end to end: word2vec pretraining,
/// frozen-feature precomputation, the two-phase freeze schedule, and model
/// selection by validation MedR.
pub struct Trainer {
    scenario: Scenario,
    tcfg: TrainConfig,
    mcfg: ModelConfig,
    quiet: bool,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    faults: FaultPlan,
}

impl Trainer {
    /// Creates a trainer for a scenario with default model dimensions.
    pub fn new(scenario: Scenario, tcfg: TrainConfig) -> Self {
        Self {
            scenario,
            tcfg,
            mcfg: ModelConfig::default(),
            quiet: false,
            checkpoint_dir: None,
            resume: false,
            faults: FaultPlan::none(),
        }
    }

    /// Overrides the architecture configuration.
    pub fn with_model_config(mut self, mcfg: ModelConfig) -> Self {
        self.mcfg = mcfg;
        self
    }

    /// Suppresses per-epoch progress lines. Progress is routed through
    /// [`cmr_obs::log`], so lines only appear when `CMR_OBS` telemetry is
    /// enabled *and* the trainer is not quiet.
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Enables durable checkpointing: after every epoch the full training
    /// state is written to `dir` (rotating `latest`/`best` pairs, atomic
    /// renames).
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Resume from the checkpoint directory's `latest` state (requires
    /// [`with_checkpoints`](Self::with_checkpoints)). A missing checkpoint
    /// is a cold start, a corrupt `latest` falls back to the previous good
    /// file, and a legacy v1 param-only blob restores weights but restarts
    /// the schedule at epoch 0.
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Installs a fault-injection plan (tests only).
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Runs the full §4.4 pipeline and returns the best-validation model.
    ///
    /// Compatibility wrapper over [`fit`](Self::fit).
    ///
    /// # Panics
    /// Panics on any [`TrainError`]; call `fit` to handle failures.
    pub fn run(&self, dataset: &Dataset) -> TrainedModel {
        // cmr-lint: allow(no-panic-lib) documented panicking compatibility wrapper over fit()
        self.fit(dataset).unwrap_or_else(|e| panic!("training failed: {e}"))
    }

    /// Runs the full §4.4 pipeline with crash-safety: typed errors, durable
    /// checkpoints, resume, and non-finite-loss guards.
    ///
    /// # Errors
    /// See [`TrainError`].
    pub fn fit(&self, dataset: &Dataset) -> Result<TrainedModel, TrainError> {
        let tcfg = self.scenario.apply_to(self.tcfg.clone());
        tcfg.validate().map_err(TrainError::Config)?;
        let n_classes = dataset.world.config().n_classes;
        let mcfg = self.scenario.apply_to_model(self.mcfg.clone(), n_classes);

        let mut rng = SmallRng::seed_from_u64(tcfg.seed);

        // 1. word2vec pretraining on the training corpus (§3.2.1).
        let w2v_cfg = SgnsConfig {
            dim: mcfg.word_dim,
            epochs: tcfg.w2v_epochs,
            ..Default::default()
        };
        let wv = cmr_word2vec::train(
            &dataset.word2vec_corpus(),
            dataset.world.vocab.len(),
            &w2v_cfg,
            &mut rng,
        );

        // 2. frozen text features.
        let featurizer = SentenceFeaturizer::new(&mut rng, mcfg.word_dim, mcfg.sent_feat_dim);
        let feats =
            RecipeFeatures::build(dataset, &wv, &featurizer, mcfg.max_ingredients, mcfg.max_sentences);

        // 3. model + optimiser, backbone frozen for phase one.
        let mut model = TwoBranchModel::new(&mcfg, &wv, dataset.image_dim);
        model.set_backbone_frozen(tcfg.freeze_epochs > 0);
        let mut adam = Adam::new(tcfg.lr);

        // 4. fixed validation subset for model selection.
        let mut val_ids: Vec<usize> = dataset.split_range(Split::Val).collect();
        val_ids.shuffle(&mut rng);
        val_ids.truncate(tcfg.val_subset.max(10).min(val_ids.len()));

        let mut sampler = BatchSampler::new(dataset, Split::Train, tcfg.batch_size);
        let mut stats: Vec<EpochStats> = Vec::with_capacity(tcfg.epochs);
        let mut best: Option<(f64, usize, Vec<u8>)> = None;
        let mut start_epoch = 0usize;

        // 5. durable checkpointing / resume.
        let ckpts = match &self.checkpoint_dir {
            Some(dir) => Some(CheckpointStore::open(dir).map_err(TrainError::Checkpoint)?),
            None => None,
        };
        if self.resume {
            if let Some(cs) = &ckpts {
                let restored = {
                    let _load_span = cmr_obs::span("train.checkpoint_load_s");
                    let snap =
                        cs.load(Slot::Latest, decode_snapshot).map_err(TrainError::Checkpoint)?;
                    snap.map(|snap| {
                        restore(
                            snap, &mut model, &mut adam, &mut rng, &mut stats, &mut best,
                            &mut sampler,
                        )
                    })
                    .transpose()
                    .map_err(|source| TrainError::Checkpoint(CheckpointError::Decode { source }))?
                };
                match restored {
                    Some(Some(ts)) => {
                        start_epoch = ts.next_epoch as usize;
                        if !self.quiet {
                            cmr_obs::log(&format!(
                                "[{}] resuming at epoch {start_epoch} (best val MedR {:.1} @ epoch {})",
                                self.scenario.name(),
                                ts.best_val,
                                ts.best_epoch
                            ));
                        }
                    }
                    Some(None) => {
                        // v1 param-only blob: weights restored, schedule
                        // restarts — re-impose the phase-one freeze.
                        model.set_backbone_frozen(tcfg.freeze_epochs > 0);
                        if !self.quiet {
                            cmr_obs::log(&format!(
                                "[{}] resuming from a v1 param-only checkpoint: restarting at epoch 0",
                                self.scenario.name()
                            ));
                        }
                    }
                    None => {}
                }
            }
        }

        for epoch in start_epoch..tcfg.epochs {
            if epoch == tcfg.freeze_epochs {
                model.set_backbone_frozen(false);
            }
            // Epoch-start snapshot: the rollback target if the non-finite
            // guard trips `max_bad_batches` times in a row.
            let epoch_start = snapshot(&model, &adam, &rng, epoch, &stats, &best, &sampler);
            let mut retried = false;

            let (mean_loss, active_ins, active_sem, skipped) = loop {
                match self.run_epoch(
                    epoch, &tcfg, dataset, &feats, &mut model, &mut adam, &mut sampler, &mut rng,
                ) {
                    EpochOutcome::Done { mean_loss, active_ins, active_sem, skipped } => {
                        break (mean_loss, active_ins, active_sem, skipped);
                    }
                    EpochOutcome::Aborted { skipped } => {
                        if retried {
                            return Err(TrainError::Diverged { epoch, skipped });
                        }
                        if !self.quiet {
                            cmr_obs::log(&format!(
                                "[{}] epoch {epoch}: {skipped} consecutive non-finite batches — rolling back to last good state",
                                self.scenario.name()
                            ));
                        }
                        decode_snapshot(&epoch_start)
                            .and_then(|snap| {
                                restore(
                                    snap, &mut model, &mut adam, &mut rng, &mut stats,
                                    &mut best, &mut sampler,
                                )
                            })
                            .map_err(|source| {
                                TrainError::Checkpoint(CheckpointError::Decode { source })
                            })?;
                        retried = true;
                    }
                }
            };

            // model selection on validation MedR
            let (vi, vr) = embed_ids(&model, dataset, &feats, &val_ids);
            let medr = val_medr(&vi, &vr);
            stats.push(EpochStats {
                epoch,
                mean_loss,
                val_medr: medr,
                active_fraction: active_ins,
                skipped_batches: skipped,
            });
            // Per-epoch telemetry: the adaptive-mining curriculum signal β′
            // for both losses, the learning phase (0 = frozen backbone,
            // 1 = full fine-tuning), and throughput counters.
            cmr_obs::series_push(
                "train.epoch",
                &[
                    ("epoch", epoch as f64),
                    ("mean_loss", mean_loss),
                    ("val_medr", medr),
                    ("active_frac_ins", active_ins),
                    ("active_frac_sem", active_sem),
                    ("skipped_batches", skipped as f64),
                    ("phase", if epoch < tcfg.freeze_epochs { 0.0 } else { 1.0 }),
                ],
            );
            cmr_obs::counter_add("train.batches", sampler.batches_per_epoch() as u64);
            cmr_obs::counter_add("train.skipped_batches", skipped as u64);
            if !self.quiet {
                let skip_note =
                    if skipped > 0 { format!("  skipped {skipped}") } else { String::new() };
                cmr_obs::log(&format!(
                    "[{}] epoch {epoch:>2}: loss {mean_loss:.4}  val MedR {medr:.1}  active {:.0}%{skip_note}",
                    self.scenario.name(),
                    active_ins * 100.0
                ));
            }
            let improved = best.as_ref().is_none_or(|(m, _, _)| medr < *m);
            if improved {
                best = Some((medr, epoch, serialize::save_params(&model.store)));
            }
            if let Some(cs) = &ckpts {
                // The span covers serialization plus both durable writes —
                // the full per-epoch persistence cost.
                let _save_span = cmr_obs::span("train.checkpoint_save_s");
                let blob = snapshot(&model, &adam, &rng, epoch + 1, &stats, &best, &sampler);
                cs.save(Slot::Latest, &blob).map_err(TrainError::Checkpoint)?;
                if improved {
                    cs.save(Slot::Best, &blob).map_err(TrainError::Checkpoint)?;
                }
            }
            if self.faults.kills_after(epoch) {
                return Err(TrainError::Interrupted { epoch });
            }
        }

        // restore the best-validation checkpoint (§4.4 model selection)
        let (best_val_medr, best_epoch, blob) = best.ok_or(TrainError::NoEpochs)?;
        serialize::load_params(&mut model.store, &blob)
            .map_err(|source| TrainError::Checkpoint(CheckpointError::Decode { source }))?;

        Ok(TrainedModel {
            scenario: self.scenario,
            model,
            wv,
            featurizer,
            feats,
            epochs: stats,
            best_val_medr,
            best_epoch,
        })
    }

    /// One pass over the epoch's batches with the non-finite guard.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch(
        &self,
        epoch: usize,
        tcfg: &TrainConfig,
        dataset: &Dataset,
        feats: &RecipeFeatures,
        model: &mut TwoBranchModel,
        adam: &mut Adam,
        sampler: &mut BatchSampler,
        rng: &mut SmallRng,
    ) -> EpochOutcome {
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0usize;
        let mut active_ins_sum = 0.0f64;
        let mut active_ins_n = 0usize;
        let mut active_sem_sum = 0.0f64;
        let mut active_sem_n = 0usize;
        let mut skipped = 0usize;
        let mut consecutive_bad = 0usize;

        for batch_idx in 0..sampler.batches_per_epoch() {
            let ids = sampler.next_batch(rng);
            let labels: Vec<Option<usize>> =
                // cmr-lint: allow(panic-path) batch ids come from the sampler built over this same dataset
                ids.iter().map(|&i| dataset.recipes[i].label).collect();
            let inputs = BatchInputs::gather(dataset, feats, &ids);

            let mut g = Graph::new();
            let mut binds = Bindings::new();
            let (img, rec) = model.forward_batch(&mut g, &mut binds, &inputs);
            let d_ir = losses::cosine_distance_matrix(&mut g, img, rec);
            let d_ri = losses::cosine_distance_matrix(&mut g, rec, img);

            let mut total = None;
            // Active-triplet accounting (per loss) is deferred until the
            // batch passes the finite check — skipped batches contribute no
            // statistics.
            let mut batch_ins: Option<(usize, usize)> = None;
            let mut batch_sem: Option<(usize, usize)> = None;
            match tcfg.loss {
                LossKind::Triplet { semantic, classification } => {
                    if !self.scenario.semantic_only() {
                        let a = losses::instance_hinge(&mut g, d_ir, tcfg.margin);
                        let b = losses::instance_hinge(&mut g, d_ri, tcfg.margin);
                        batch_ins = Some((a.active + b.active, a.total + b.total));
                        total = losses::combine_directions(&mut g, a, b, tcfg.strategy);
                    }
                    if semantic {
                        let sem_ir = losses::semantic_masks(&labels, rng);
                        let sem_ri = losses::semantic_masks(&labels, rng);
                        if let (Some((p1, n1)), Some((p2, n2))) = (sem_ir, sem_ri) {
                            let a = losses::semantic_hinge(&mut g, d_ir, &p1, &n1, tcfg.margin);
                            let b = losses::semantic_hinge(&mut g, d_ri, &p2, &n2, tcfg.margin);
                            batch_sem = Some((a.active + b.active, a.total + b.total));
                            if let Some(sem) =
                                losses::combine_directions(&mut g, a, b, tcfg.strategy)
                            {
                                let weighted = g.scale(sem, tcfg.lambda);
                                total = Some(match total {
                                    Some(t) => g.add(t, weighted),
                                    None => weighted,
                                });
                            }
                        }
                    }
                    if self.scenario.hierarchical() {
                        // Future-work extension: a coarser semantic level
                        // over class super-groups, with a doubled margin
                        // (groups must separate further than classes) at
                        // half the semantic weight.
                        let groups: Vec<Option<usize>> = labels
                            .iter()
                            .map(|l| l.map(|c| dataset.world.class_group(c)))
                            .collect();
                        let g_ir = losses::semantic_masks(&groups, rng);
                        let g_ri = losses::semantic_masks(&groups, rng);
                        if let (Some((p1, n1)), Some((p2, n2))) = (g_ir, g_ri) {
                            let margin = 2.0 * tcfg.margin;
                            let a = losses::semantic_hinge(&mut g, d_ir, &p1, &n1, margin);
                            let b = losses::semantic_hinge(&mut g, d_ri, &p2, &n2, margin);
                            if let Some(hier) =
                                losses::combine_directions(&mut g, a, b, tcfg.strategy)
                            {
                                let weighted = g.scale(hier, 0.5 * tcfg.lambda);
                                total = Some(match total {
                                    Some(t) => g.add(t, weighted),
                                    None => weighted,
                                });
                            }
                        }
                    }
                    if classification {
                        let cls =
                            self.classification_term(&mut g, &mut binds, model, img, rec, &labels);
                        let weighted = g.scale(cls, tcfg.cls_weight);
                        total = Some(match total {
                            Some(t) => g.add(t, weighted),
                            None => weighted,
                        });
                    }
                }
                LossKind::Pairwise { pos_margin, neg_margin } => {
                    let pw = losses::pairwise_loss(&mut g, d_ir, pos_margin, neg_margin);
                    let cls =
                        self.classification_term(&mut g, &mut binds, model, img, rec, &labels);
                    let weighted = g.scale(cls, tcfg.cls_weight);
                    total = Some(g.add(pw, weighted));
                }
            }

            if let Some(loss) = total {
                let mut lv = g.value(loss).scalar();
                if self.faults.injects_nan(epoch, batch_idx) {
                    lv = f32::NAN;
                }
                if !lv.is_finite() {
                    // Non-finite guard: no backward pass, no Adam step —
                    // parameters and moments stay untouched.
                    skipped += 1;
                    consecutive_bad += 1;
                    if consecutive_bad >= tcfg.max_bad_batches {
                        return EpochOutcome::Aborted { skipped };
                    }
                    continue;
                }
                consecutive_bad = 0;
                if let Some((active, total_triplets)) = batch_ins {
                    active_ins_sum += active as f64 / total_triplets.max(1) as f64;
                    active_ins_n += 1;
                }
                if let Some((active, total_triplets)) = batch_sem {
                    active_sem_sum += active as f64 / total_triplets.max(1) as f64;
                    active_sem_n += 1;
                }
                loss_sum += lv as f64;
                loss_n += 1;
                g.backward(loss);
                adam.step(&mut model.store, &g, &binds);
            }
        }

        let mean_loss = if loss_n > 0 { loss_sum / loss_n as f64 } else { 0.0 };
        let active_ins =
            if active_ins_n > 0 { active_ins_sum / active_ins_n as f64 } else { 0.0 };
        let active_sem =
            if active_sem_n > 0 { active_sem_sum / active_sem_n as f64 } else { 0.0 };
        EpochOutcome::Done { mean_loss, active_ins, active_sem, skipped }
    }

    fn classification_term(
        &self,
        g: &mut Graph,
        binds: &mut Bindings,
        model: &TwoBranchModel,
        img: cmr_tensor::NodeId,
        rec: cmr_tensor::NodeId,
        labels: &[Option<usize>],
    ) -> cmr_tensor::NodeId {
        let targets = losses::cls_targets(labels);
        let li = model.classify(g, binds, img);
        let ce_i = g.softmax_cross_entropy(li, targets.clone());
        let lr = model.classify(g, binds, rec);
        let ce_r = g.softmax_cross_entropy(lr, targets);
        let s = g.add(ce_i, ce_r);
        g.scale(s, 0.5)
    }
}

/// How one pass over an epoch's batches ended.
enum EpochOutcome {
    /// All batches consumed (some possibly skipped by the guard).
    Done {
        mean_loss: f64,
        /// Mean active fraction of the instance loss (β′ for L_ins).
        active_ins: f64,
        /// Mean active fraction of the semantic loss (β′ for L_sem); 0.0
        /// when the scenario has no semantic term.
        active_sem: f64,
        skipped: usize,
    },
    /// `max_bad_batches` consecutive non-finite batches — roll back.
    Aborted { skipped: usize },
}

// ---------------------------------------------------------------------------
// Full-training-state snapshots (the trainer-owned `extra` section of a
// CMRCKPT2 blob: epoch stats, best-model blob, sampler order).
// ---------------------------------------------------------------------------

fn encode_extra(
    stats: &[EpochStats],
    best: &Option<(f64, usize, Vec<u8>)>,
    sampler: &BatchSampler,
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_len(&mut buf, stats.len());
    for s in stats {
        buf.extend_from_slice(&(s.epoch as u64).to_le_bytes());
        buf.extend_from_slice(&s.mean_loss.to_le_bytes());
        buf.extend_from_slice(&s.val_medr.to_le_bytes());
        buf.extend_from_slice(&s.active_fraction.to_le_bytes());
        buf.extend_from_slice(&(s.skipped_batches as u64).to_le_bytes());
    }
    match best {
        Some((_, _, blob)) => {
            buf.push(1);
            put_len(&mut buf, blob.len());
            buf.extend_from_slice(blob);
        }
        None => buf.push(0),
    }
    let (order, cursor) = sampler.state();
    let cursor = if cursor == usize::MAX { u64::MAX } else { cursor as u64 };
    buf.extend_from_slice(&cursor.to_le_bytes());
    put_len(&mut buf, order.len());
    for id in order {
        buf.extend_from_slice(&(id as u64).to_le_bytes());
    }
    buf
}

type DecodedExtra = (Vec<EpochStats>, Option<Vec<u8>>, Vec<usize>, usize);

fn decode_extra(extra: &[u8]) -> io::Result<DecodedExtra> {
    let mut r = Frame::new(extra, extra.len());
    let n_stats = r.u32()? as usize;
    // Each stat row is 40 wire bytes.
    let mut stats = r.vec_for(n_stats, 40)?;
    for _ in 0..n_stats {
        stats.push(EpochStats {
            epoch: r.u64()? as usize,
            mean_loss: r.f64()?,
            val_medr: r.f64()?,
            active_fraction: r.f64()?,
            skipped_batches: r.u64()? as usize,
        });
    }
    let best_blob = if r.u8()? != 0 { Some(r.len_prefixed()?) } else { None };
    let cursor = r.u64()?;
    let cursor = if cursor == u64::MAX { usize::MAX } else { cursor as usize };
    let n_order = r.u32()? as usize;
    // Sampler order entries are 8 wire bytes each.
    let mut order = r.vec_for(n_order, 8)?;
    for _ in 0..n_order {
        order.push(r.u64()? as usize);
    }
    r.finish()?;
    Ok((stats, best_blob, order, cursor))
}

/// Serialises the complete training state — model, optimiser, RNG, stats,
/// best model, sampler — as one CMRCKPT2 blob.
fn snapshot(
    model: &TwoBranchModel,
    adam: &Adam,
    rng: &SmallRng,
    next_epoch: usize,
    stats: &[EpochStats],
    best: &Option<(f64, usize, Vec<u8>)>,
    sampler: &BatchSampler,
) -> Vec<u8> {
    let state = TrainState {
        rng: rng.state(),
        next_epoch: next_epoch as u64,
        best_epoch: best.as_ref().map(|&(_, e, _)| e as u64).unwrap_or(0),
        best_val: best.as_ref().map(|&(v, _, _)| v).unwrap_or(f64::INFINITY),
        extra: encode_extra(stats, best, sampler),
    };
    serialize::save_checkpoint(&model.store, adam, &state)
}

/// Decodes a snapshot blob (the checkpoint and, for v2, its `extra`
/// section) without touching any training state.
fn decode_snapshot(bytes: &[u8]) -> io::Result<(Checkpoint, Option<DecodedExtra>)> {
    let ckpt = Checkpoint::decode(bytes)?;
    let extra = ckpt.state().map(|ts| decode_extra(&ts.extra)).transpose()?;
    Ok((ckpt, extra))
}

/// Applies a decoded snapshot: parameters and optimiser (checked against
/// the model before any write), then sampler, RNG, stats and best model.
/// Returns the trainer state, or `None` for a v1 param-only blob.
fn restore(
    (ckpt, extra): (Checkpoint, Option<DecodedExtra>),
    model: &mut TwoBranchModel,
    adam: &mut Adam,
    rng: &mut SmallRng,
    stats: &mut Vec<EpochStats>,
    best: &mut Option<(f64, usize, Vec<u8>)>,
    sampler: &mut BatchSampler,
) -> io::Result<Option<TrainState>> {
    let ts = ckpt.apply(&mut model.store, adam)?;
    if let (Some(ts), Some((decoded_stats, best_blob, order, cursor))) = (&ts, extra) {
        sampler
            .restore_state(&order, cursor)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        *rng = SmallRng::from_state(ts.rng);
        *stats = decoded_stats;
        *best = best_blob.map(|blob| (ts.best_val, ts.best_epoch as usize, blob));
    }
    Ok(ts)
}

fn embed_ids(
    model: &TwoBranchModel,
    dataset: &Dataset,
    feats: &RecipeFeatures,
    ids: &[usize],
) -> (Embeddings, Embeddings) {
    let dim = model.config().latent_dim;
    let mut imgs = Embeddings::with_capacity(dim, ids.len());
    let mut recs = Embeddings::with_capacity(dim, ids.len());
    // Wide chunks keep the row-parallel matmul kernels saturated: each
    // forward pass splits its batch across the worker threads, so the
    // chunk size bounds the available parallelism per call.
    for chunk in ids.chunks(512) {
        let inputs = BatchInputs::gather(dataset, feats, chunk);
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let (img, rec) = model.forward_batch(&mut g, &mut binds, &inputs);
        let iv = g.value(img);
        let rv = g.value(rec);
        for r in 0..chunk.len() {
            imgs.push(iv.row(r));
            recs.push(rv.row(r));
        }
    }
    (imgs, recs)
}

fn val_medr(imgs: &Embeddings, recs: &Embeddings) -> f64 {
    let i = imgs.l2_normalized();
    let r = recs.l2_normalized();
    let m1 = median_rank(&ranks_of_matches(&i, &r));
    let m2 = median_rank(&ranks_of_matches(&r, &i));
    (m1 + m2) / 2.0
}

/// A trained scenario: the model plus everything needed to embed arbitrary
/// recipes and images (word vectors, sentence featuriser, cached dataset
/// features) and the training history.
pub struct TrainedModel {
    /// Which scenario produced this model.
    pub scenario: Scenario,
    /// The network with its best-validation parameters restored.
    pub model: TwoBranchModel,
    /// The pretrained word vectors (frozen).
    pub wv: WordVectors,
    /// The frozen sentence featuriser.
    pub featurizer: SentenceFeaturizer,
    /// Cached frozen features for the whole dataset.
    pub feats: RecipeFeatures,
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Best validation MedR (the selected checkpoint's score).
    pub best_val_medr: f64,
    /// Epoch of the selected checkpoint.
    pub best_epoch: usize,
}

impl TrainedModel {
    /// Embeds the pairs with the given dataset ids. Returns raw
    /// (unnormalised) `(image, recipe)` embeddings, row-aligned with `ids`.
    pub fn embed_ids(&self, dataset: &Dataset, ids: &[usize]) -> (Embeddings, Embeddings) {
        embed_ids(&self.model, dataset, &self.feats, ids)
    }

    /// Embeds a whole split.
    pub fn embed_split(&self, dataset: &Dataset, split: Split) -> (Embeddings, Embeddings) {
        let ids: Vec<usize> = dataset.split_range(split).collect();
        self.embed_ids(dataset, &ids)
    }

    /// Embeds an arbitrary (possibly modified or hand-built) recipe through
    /// the text branch. Used by the ingredient-to-image and
    /// removing-ingredients tasks (Tables 4–5).
    pub fn embed_recipe(&self, recipe: &Recipe) -> Vec<f32> {
        let mcfg = self.model.config();
        let ingr = RecipeFeatures::cap_ingredients(recipe, mcfg.max_ingredients);
        let sents =
            RecipeFeatures::featurize_recipe(recipe, &self.wv, &self.featurizer, mcfg.max_sentences);
        self.embed_recipe_parts(&ingr, &sents)
    }

    /// Embeds a recipe given raw parts: capped ingredient tokens and frozen
    /// sentence features (e.g. the mean training-set instruction feature
    /// used by the ingredient-to-image protocol, §5.3).
    pub fn embed_recipe_parts(&self, ingr_tokens: &[usize], sent_feats: &[Vec<f32>]) -> Vec<f32> {
        let dummy_img = vec![0.0f32; self.model.image_dim()];
        let inputs = BatchInputs::from_parts(
            &[&dummy_img],
            &[ingr_tokens],
            &[sent_feats],
            self.feats.sent_dim,
        );
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let (_, rec) = self.model.forward_batch(&mut g, &mut binds, &inputs);
        g.value(rec).row(0).to_vec()
    }

    /// Embeds raw frozen-CNN image features through the image branch.
    pub fn embed_image(&self, image_feats: &[f32]) -> Vec<f32> {
        let pad = cmr_word2vec::vocab::PAD;
        let sent = vec![vec![0.0f32; self.feats.sent_dim]];
        let inputs = BatchInputs::from_parts(
            &[image_feats],
            &[&[pad]],
            &[&sent],
            self.feats.sent_dim,
        );
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let (img, _) = self.model.forward_batch(&mut g, &mut binds, &inputs);
        g.value(img).row(0).to_vec()
    }

    /// The mean frozen instruction-sentence feature over the training split
    /// — the paper's stand-in instruction for single-ingredient queries
    /// (§5.3, *Ingredient To Image*).
    pub fn mean_instruction_feature(&self, dataset: &Dataset) -> Vec<f32> {
        let mut mean = vec![0.0f32; self.feats.sent_dim];
        let mut n = 0usize;
        for i in dataset.split_range(Split::Train) {
            // cmr-lint: allow(panic-path) feats were precomputed over every pair id of this same dataset
            for s in &self.feats.sent_feats[i] {
                for (m, &v) in mean.iter_mut().zip(s) {
                    *m += v;
                }
                n += 1;
            }
        }
        if n > 0 {
            for m in &mut mean {
                *m /= n as f32;
            }
        }
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmr_data::{DataConfig, Scale};

    fn tiny_dataset() -> Dataset {
        Dataset::generate(&DataConfig::for_scale(Scale::Tiny))
    }

    fn tiny_trainer(s: Scenario) -> Trainer {
        Trainer::new(s, TrainConfig::for_scale_tiny())
            .with_model_config(ModelConfig::tiny())
            .quiet()
    }

    /// Training the full AdaMine model on the tiny world must beat random
    /// retrieval by a wide margin — the end-to-end smoke test.
    #[test]
    fn adamine_learns_to_retrieve() {
        let d = tiny_dataset();
        let trained = tiny_trainer(Scenario::AdaMine).run(&d);
        // random would give MedR ≈ val_subset/2 = 60
        assert!(
            trained.best_val_medr < 25.0,
            "val MedR {} after training",
            trained.best_val_medr
        );
        assert_eq!(trained.epochs.len(), 8);
        // adaptive curriculum: the active fraction must decay
        let first = trained.epochs.first().unwrap().active_fraction;
        let last = trained.epochs.last().unwrap().active_fraction;
        assert!(last < first, "active triplets should decay: {first} → {last}");
        // no fault injection: nothing skipped
        assert!(trained.epochs.iter().all(|e| e.skipped_batches == 0));
    }

    /// The classification-head scenario must build a head and still learn.
    #[test]
    fn ins_cls_scenario_trains_with_head() {
        let d = tiny_dataset();
        let trained = tiny_trainer(Scenario::AdaMineInsCls).run(&d);
        assert!(trained.model.has_head());
        assert!(trained.best_val_medr < 30.0, "val MedR {}", trained.best_val_medr);
    }

    /// The hierarchical extension trains and retrieves.
    #[test]
    fn hierarchical_scenario_trains() {
        let d = tiny_dataset();
        let trained = tiny_trainer(Scenario::AdaMineHier).run(&d);
        assert!(
            trained.best_val_medr < 30.0,
            "AdaMine_hier val MedR {}",
            trained.best_val_medr
        );
    }

    /// Embedding helpers agree with the batched pathway.
    #[test]
    fn single_recipe_embedding_matches_batched() {
        let d = tiny_dataset();
        let trained = tiny_trainer(Scenario::AdaMineIns).run(&d);
        let ids = [3usize, 7];
        let (imgs, recs) = trained.embed_ids(&d, &ids);
        let solo_rec = trained.embed_recipe(&d.recipes[3]);
        let solo_img = trained.embed_image(d.image(7));
        for (a, b) in recs.vector(0).iter().zip(&solo_rec) {
            assert!((a - b).abs() < 1e-4, "recipe path diverged");
        }
        for (a, b) in imgs.vector(1).iter().zip(&solo_img) {
            assert!((a - b).abs() < 1e-4, "image path diverged");
        }
    }

    /// `fit` and `run` agree — the compat wrapper changes nothing.
    #[test]
    fn fit_returns_ok_and_matches_run() {
        let d = tiny_dataset();
        let a = tiny_trainer(Scenario::AdaMineIns).fit(&d).expect("fit succeeds");
        let b = tiny_trainer(Scenario::AdaMineIns).run(&d);
        assert_eq!(a.best_val_medr, b.best_val_medr);
        assert_eq!(a.epochs, b.epochs);
    }

    /// Golden pins for every binary format the workspace persists: fixed-
    /// seed blobs of `CMRCKPT1`, `CMRCKPT2` (Adam moments plus this
    /// trainer's `extra` section), `CMREMB1` and `CMRIVF1` (flat and PQ)
    /// must keep their exact length and CRC-32. Round-trip tests only
    /// compare one build against itself; these constants catch any change
    /// to the bytes on disk. Sealed formats end in their own CRC footer
    /// (and CRC-32 over data plus its footer is a constant residue), so
    /// the pin is the CRC of everything before the footer.
    #[test]
    fn binary_formats_match_golden_crcs() {
        use cmr_nn::crc32::crc32;
        use cmr_retrieval::{index_to_bytes, IvfIndex};
        use cmr_tensor::TensorData;
        use rand::Rng;

        let pin = |label: &str, blob: &[u8], sealed: bool, want: (usize, u32)| {
            let body = if sealed { &blob[..blob.len() - 4] } else { blob };
            if sealed {
                assert_eq!(&blob[blob.len() - 4..], &crc32(body).to_le_bytes(), "{label} footer");
            }
            assert_eq!((blob.len(), crc32(body)), want, "{label} (len, crc32)");
        };

        let mut rng = SmallRng::seed_from_u64(2018);
        let mut store = cmr_nn::ParamStore::new();
        for (name, rows, cols) in [("enc.w", 3, 5), ("enc.b", 1, 5), ("head.w", 5, 2)] {
            let data = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            store.register(name, TensorData::new(rows, cols, data));
        }
        store.set_frozen(store.by_name("enc.b").unwrap(), true);
        let v1 = serialize::save_params(&store);
        pin("CMRCKPT1", &v1, false, (181, 0x9df2_0172));

        let mut adam = Adam::new(0.01);
        for _ in 0..3 {
            let mut g = Graph::new();
            let mut binds = Bindings::new();
            let ids: Vec<_> = store.ids().collect();
            let mut loss = None;
            for id in ids {
                let x = store.bind(&mut g, &mut binds, id);
                let sq = g.mul(x, x);
                let s = g.sum_all(sq);
                loss = Some(match loss {
                    None => s,
                    Some(acc) => g.add(acc, s),
                });
            }
            g.backward(loss.unwrap());
            adam.step(&mut store, &g, &binds);
        }
        let d = tiny_dataset();
        let mut sampler = BatchSampler::new(&d, Split::Train, 8);
        let (mut order, _) = sampler.state();
        order.reverse();
        sampler.restore_state(&order, 3).unwrap();
        let stats: Vec<EpochStats> = (0..2)
            .map(|e| EpochStats {
                epoch: e,
                mean_loss: 0.5 / (e + 1) as f64,
                val_medr: 40.0 - e as f64,
                active_fraction: 0.75,
                skipped_batches: e,
            })
            .collect();
        let best = Some((39.0, 1, v1.clone()));
        let state = TrainState {
            rng: SmallRng::seed_from_u64(7).state(),
            next_epoch: 2,
            best_epoch: 1,
            best_val: 39.0,
            extra: encode_extra(&stats, &best, &sampler),
        };
        let v2 = serialize::save_checkpoint(&store, &adam, &state);
        pin("CMRCKPT2", &v2, true, (3143, 0x4c48_0dba));

        let emb: Vec<f32> = (0..6 * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        pin("CMREMB1", &cmr_nn::save_embedding_blob(4, &emb), true, (116, 0x7346_6606));

        let mut gallery = Embeddings::with_capacity(8, 64);
        for _ in 0..64 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            gallery.push(&v);
        }
        let flat = IvfIndex::build(gallery.l2_normalized(), 4, 4, &mut rng);
        pin("CMRIVF1 flat", &index_to_bytes(&flat), true, (2477, 0x8ac6_1e79));
        let (pq, _) = flat.quantize_residuals(2, 16, 4, 64, &mut rng).unwrap();
        pin("CMRIVF1 pq", &index_to_bytes(&pq), true, (1077, 0x45d7_523b));
    }
}
