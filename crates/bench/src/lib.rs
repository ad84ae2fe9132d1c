//! # cmr-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md's experiment index), plus the serving tools in [`serving`].
//!
//! Every experiment binary accepts:
//!
//! * `--scale tiny|default|paper` — dataset/model scale (DESIGN.md),
//! * `--epochs N` / `--seed N` — training overrides,
//! * `--out DIR` — where JSON artifacts land (default `results/`),
//! * `--checkpoint-dir DIR` — durable per-scenario training checkpoints
//!   (write-to-temp + fsync + atomic rename, rotating `latest`/`best`),
//! * `--resume` — continue interrupted runs from those checkpoints
//!   bit-identically instead of restarting.
//!
//! Run everything with `cargo run --release -p cmr-bench --bin exp_all`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use cmr_adamine::{ModelConfig, Scenario, TrainConfig, TrainedModel, Trainer};
use cmr_cca::Cca;
use cmr_data::{DataConfig, Dataset, Scale, Split};
use cmr_linalg::Mat;
use cmr_retrieval::{evaluate_bags, BagConfig, DirectionReport, ProtocolReport};
use rand::SeedableRng;
use std::path::{Path, PathBuf};

pub mod json;
pub mod serving;

use json::{Json, ToJson};

/// Parsed command line shared by all experiment binaries.
pub struct ExpContext {
    /// The synthetic dataset at the requested scale.
    pub dataset: Dataset,
    /// Scale preset in force.
    pub scale: Scale,
    /// Base training configuration (scenarios specialise it).
    pub tcfg: TrainConfig,
    /// Base model configuration.
    pub mcfg: ModelConfig,
    /// Output directory for JSON artifacts.
    pub out_dir: PathBuf,
    /// Durable training-checkpoint root (one subdirectory per scenario);
    /// `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume interrupted training runs from `checkpoint_dir`.
    pub resume: bool,
}

impl ExpContext {
    /// Parses `std::env::args`, generates the dataset, and prepares output.
    ///
    /// # Panics
    /// Panics on malformed arguments (these are developer tools).
    // cmr-lint: allow(panic-path) documented contract: the experiment CLI aborts on malformed arguments
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut scale = Scale::Default;
        let mut epochs: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut out_dir = PathBuf::from("results");
        let mut checkpoint_dir: Option<PathBuf> = None;
        let mut resume = false;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale = match args[i].as_str() {
                        "tiny" => Scale::Tiny,
                        "default" => Scale::Default,
                        "paper" => Scale::Paper,
                        // cmr-lint: allow(no-panic-lib) CLI fails fast on a bad flag
                        other => panic!("unknown scale {other:?} (tiny|default|paper)"),
                    };
                }
                "--epochs" => {
                    i += 1;
                    // cmr-lint: allow(no-panic-lib) CLI fails fast on a bad flag
                    epochs = Some(args[i].parse().expect("--epochs takes a number"));
                }
                "--seed" => {
                    i += 1;
                    // cmr-lint: allow(no-panic-lib) CLI fails fast on a bad flag
                    seed = Some(args[i].parse().expect("--seed takes a number"));
                }
                "--out" => {
                    i += 1;
                    out_dir = PathBuf::from(&args[i]);
                }
                "--checkpoint-dir" => {
                    i += 1;
                    checkpoint_dir = Some(PathBuf::from(&args[i]));
                }
                "--resume" => {
                    resume = true;
                }
                // cmr-lint: allow(no-panic-lib) CLI fails fast on a bad flag
                other => panic!("unknown argument {other:?}"),
            }
            i += 1;
        }
        assert!(
            !resume || checkpoint_dir.is_some(),
            "--resume requires --checkpoint-dir"
        );
        let mut ctx = Self::for_scale(scale, epochs, seed, out_dir);
        ctx.checkpoint_dir = checkpoint_dir;
        ctx.resume = resume;
        ctx
    }

    /// Builds a context without touching the process arguments (tests).
    pub fn for_scale(
        scale: Scale,
        epochs: Option<usize>,
        seed: Option<u64>,
        out_dir: PathBuf,
    ) -> Self {
        let dcfg = DataConfig::for_scale(scale);
        let dataset = Dataset::generate(&dcfg);
        let mut tcfg = match scale {
            Scale::Tiny => TrainConfig::for_scale_tiny(),
            Scale::Default => TrainConfig::default(),
            Scale::Paper => TrainConfig {
                epochs: 80,
                freeze_epochs: 20,
                lr: 1e-4,
                val_subset: 5000,
                ..TrainConfig::default()
            },
        };
        let mcfg = match scale {
            Scale::Tiny => ModelConfig::tiny(),
            Scale::Default => ModelConfig::default(),
            Scale::Paper => ModelConfig {
                latent_dim: 1024,
                word_dim: 300,
                ingr_hidden: 300,
                sent_feat_dim: 512,
                sent_hidden: 512,
                adapter_hidden: 1024,
                max_ingredients: 20,
                max_sentences: 15,
                ..ModelConfig::default()
            },
        };
        if let Some(e) = epochs {
            tcfg.epochs = e;
            tcfg.freeze_epochs = tcfg.freeze_epochs.min(e.saturating_sub(1));
        }
        if let Some(s) = seed {
            tcfg.seed = s;
        }
        // cmr-lint: allow(no-panic-lib) dev harness: unwritable output dir is unrecoverable
        std::fs::create_dir_all(&out_dir).expect("create output directory");
        Self { dataset, scale, tcfg, mcfg, out_dir, checkpoint_dir: None, resume: false }
    }

    /// Trains one scenario with this context's configuration. When a
    /// checkpoint directory is configured, the run checkpoints after every
    /// epoch into a per-scenario subdirectory and — with `--resume` —
    /// continues an interrupted run from where it stopped.
    pub fn train(&self, scenario: Scenario) -> TrainedModel {
        let mut trainer =
            Trainer::new(scenario, self.tcfg.clone()).with_model_config(self.mcfg.clone());
        if let Some(root) = &self.checkpoint_dir {
            trainer = trainer.with_checkpoints(root.join(scenario_dir_name(scenario)));
            if self.resume {
                trainer = trainer.resume();
            }
        }
        trainer.run(&self.dataset)
    }

    /// The paper's 1k bag setup, clamped to the available test set.
    pub fn bags_1k(&self) -> BagConfig {
        BagConfig::paper_1k().clamped(self.dataset.split_range(Split::Test).len())
    }

    /// The paper's 10k bag setup; at reduced scales this clamps to the full
    /// test gallery (the "10k analog" of DESIGN.md).
    pub fn bags_10k(&self) -> BagConfig {
        BagConfig::paper_10k().clamped(self.dataset.split_range(Split::Test).len())
    }

    /// Evaluates a trained model on the test split under a bag config.
    pub fn eval(&self, trained: &TrainedModel, bags: BagConfig) -> ProtocolReport {
        let (imgs, recs) = trained.embed_split(&self.dataset, Split::Test);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4242);
        // cmr-lint: allow(no-panic-lib) bag configs come from BagConfig::clamped against this same split
        evaluate_bags(&imgs, &recs, bags, &mut rng).expect("bag config fits the test split")
    }

    /// Writes a JSON artifact into the output directory.
    pub fn save_json<T: ToJson>(&self, name: &str, value: &T) {
        save_json(&self.out_dir.join(name), value);
    }
}

/// Filesystem-safe directory name for a scenario's checkpoints
/// (`"PWC*"` → `"PWC_"`, `"AdaMine_ins+cls"` → `"AdaMine_ins_cls"`).
pub fn scenario_dir_name(scenario: Scenario) -> String {
    scenario
        .name()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

/// Serialises a value as pretty JSON to `path`, atomically: a killed
/// experiment never leaves a half-written `results/*.json` (the write goes
/// to a temp sibling, is fsynced, then renamed over the target).
///
/// # Panics
/// Panics on IO errors (developer tooling).
pub fn save_json<T: ToJson>(path: &Path, value: &T) {
    cmr_nn::atomic_write(path, value.to_json().pretty().as_bytes())
        // cmr-lint: allow(no-panic-lib) documented # Panics; developer tooling writes
        .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
}

impl ToJson for DirectionReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("medr_mean", self.medr_mean.to_json()),
            ("medr_std", self.medr_std.to_json()),
            ("r1_mean", self.r1_mean.to_json()),
            ("r1_std", self.r1_std.to_json()),
            ("r5_mean", self.r5_mean.to_json()),
            ("r5_std", self.r5_std.to_json()),
            ("r10_mean", self.r10_mean.to_json()),
            ("r10_std", self.r10_std.to_json()),
        ])
    }
}

impl ToJson for ProtocolReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("im2rec", self.im2rec.to_json()),
            ("rec2im", self.rec2im.to_json()),
        ])
    }
}

// ---------------------------------------------------------------------------
// Baselines without a Trainer: Random and CCA.
// ---------------------------------------------------------------------------

/// The `Random` row of Table 3: independent random embeddings.
pub fn random_baseline(ctx: &ExpContext, bags: BagConfig) -> ProtocolReport {
    use rand::Rng;
    let n = ctx.dataset.split_range(Split::Test).len();
    let dim = 32;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let mk = |rng: &mut rand::rngs::SmallRng| {
        cmr_retrieval::Embeddings::new(
            dim,
            (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        )
    };
    let imgs = mk(&mut rng);
    let recs = mk(&mut rng);
    // cmr-lint: allow(no-panic-lib) both sets are freshly sampled at n >= bag_size
    evaluate_bags(&imgs, &recs, bags, &mut rng).expect("bag config fits the sampled sets")
}

/// Frozen hand-crafted text features for the CCA baseline: mean ingredient
/// word2vec ∥ mean instruction-sentence feature. CCA is a *linear global
/// alignment* method, so it gets the same frozen inputs the neural recipe
/// branch starts from.
// cmr-lint: allow(panic-path) ids are pair ids of this same dataset; rows were allocated wdim + sdim wide
fn cca_text_features(trained: &TrainedModel, dataset: &Dataset, ids: &[usize]) -> Mat {
    let wdim = trained.wv.dim;
    let sdim = trained.feats.sent_dim;
    let mut m = Mat::zeros(ids.len(), wdim + sdim);
    for (r, &i) in ids.iter().enumerate() {
        // cmr-lint: allow(panic-path) ids are pair ids of this same dataset; m was sized over ids and dims
        let recipe = &dataset.recipes[i];
        let row = m.row_mut(r);
        let k = recipe.ingredient_tokens.len().max(1);
        for &tok in &recipe.ingredient_tokens {
            for (d, &v) in trained.wv.vector(tok).iter().enumerate() {
                row[d] += v as f64 / k as f64;
            }
        }
        let sents = &trained.feats.sent_feats[i];
        let ns = sents.len().max(1);
        for s in sents {
            for (d, &v) in s.iter().enumerate() {
                row[wdim + d] += v as f64 / ns as f64;
            }
        }
    }
    m
}

// cmr-lint: allow(panic-path) ids are pair ids of this same dataset and rows were allocated image_dim wide
fn image_features(dataset: &Dataset, ids: &[usize]) -> Mat {
    let dim = dataset.image_dim;
    let mut m = Mat::zeros(ids.len(), dim);
    for (r, &i) in ids.iter().enumerate() {
        for (d, &v) in dataset.image(i).iter().enumerate() {
            m.row_mut(r)[d] = v as f64;
        }
    }
    m
}

/// The `CCA` row of Table 3: canonical correlation between frozen image
/// features and frozen text features, fitted on the training split.
/// `trained` is only used as a source of frozen word vectors / sentence
/// features (any scenario works; the trained network is not consulted).
pub fn cca_baseline(
    ctx: &ExpContext,
    trained: &TrainedModel,
    bags: BagConfig,
) -> ProtocolReport {
    let dataset = &ctx.dataset;
    // Fit on (a subsample of) the training split to bound the O(n·d²) cost.
    let mut train_ids: Vec<usize> = dataset.split_range(Split::Train).collect();
    if train_ids.len() > 4000 {
        use rand::seq::SliceRandom;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        train_ids.shuffle(&mut rng);
        train_ids.truncate(4000);
    }
    let x = image_features(dataset, &train_ids);
    let y = cca_text_features(trained, dataset, &train_ids);
    let k = 32.min(x.cols.min(y.cols));
    // cmr-lint: allow(no-panic-lib) bench harness fails fast on degenerate features
    let cca = Cca::fit(&x, &y, k, 1e-2).expect("CCA fit on ridge-regularised features");

    let test_ids: Vec<usize> = dataset.split_range(Split::Test).collect();
    let px = cca.project_x(&image_features(dataset, &test_ids));
    let py = cca.project_y(&cca_text_features(trained, dataset, &test_ids));
    let to_emb = |m: &Mat| {
        cmr_retrieval::Embeddings::new(
            m.cols,
            m.data.iter().map(|&v| v as f32).collect(),
        )
    };
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4242);
    evaluate_bags(&to_emb(&px), &to_emb(&py), bags, &mut rng)
        // cmr-lint: allow(no-panic-lib) CCA projections are paired rows of the same test split
        .expect("bag config fits the projected test split")
}

// ---------------------------------------------------------------------------
// Table formatting (paper layout).
// ---------------------------------------------------------------------------

/// Formats one direction as `MedR R@1 R@5 R@10` with ± std.
pub fn fmt_direction(d: &DirectionReport) -> String {
    format!(
        "{:6.1} ±{:4.1} | {:5.1} ±{:4.1} {:5.1} ±{:4.1} {:5.1} ±{:4.1}",
        d.medr_mean, d.medr_std, d.r1_mean, d.r1_std, d.r5_mean, d.r5_std, d.r10_mean, d.r10_std
    )
}

/// Prints a table of scenario rows in the paper's layout.
pub fn print_table(title: &str, rows: &[(String, ProtocolReport)]) {
    println!("\n== {title} ==");
    println!(
        "{:<18} | {:^45} | {:^45}",
        "Model", "Image → Recipe  (MedR | R@1 R@5 R@10)", "Recipe → Image  (MedR | R@1 R@5 R@10)"
    );
    println!("{}", "-".repeat(116));
    for (name, rep) in rows {
        println!(
            "{:<18} | {} | {}",
            name,
            fmt_direction(&rep.im2rec),
            fmt_direction(&rep.rec2im)
        );
    }
}

/// A serialisable (name, report) row set for JSON artifacts.
pub struct TableArtifact<'a> {
    /// Experiment identifier, e.g. `"table3_1k"`.
    pub experiment: &'a str,
    /// Scale the numbers were produced at.
    pub scale: String,
    /// Scenario rows.
    pub rows: Vec<RowArtifact>,
}

impl ToJson for TableArtifact<'_> {
    fn to_json(&self) -> Json {
        Json::obj([
            ("experiment", self.experiment.to_json()),
            ("scale", self.scale.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

/// One serialised scenario row.
pub struct RowArtifact {
    /// Scenario display name.
    pub name: String,
    /// Both-direction metrics.
    pub report: ProtocolReport,
}

impl ToJson for RowArtifact {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

/// Convenience constructor for [`TableArtifact`].
pub fn table_artifact<'a>(
    experiment: &'a str,
    scale: Scale,
    rows: &[(String, ProtocolReport)],
) -> TableArtifact<'a> {
    TableArtifact {
        experiment,
        scale: format!("{scale:?}"),
        rows: rows
            .iter()
            .map(|(name, report)| RowArtifact { name: name.clone(), report: *report })
            .collect(),
    }
}
