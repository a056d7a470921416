//! The fixed train + compile recipes behind every workload's engine
//! artifacts, and their on-disk cache.
//!
//! Artifacts are built through the public API (the same steps as
//! `ascend-cli train` / `compile`) in a child process before any timing
//! starts, so neither training time nor training memory ever reaches a
//! measured process. They are cached under the build directory, never
//! committed, and each run records the fingerprint of the bytes it served.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ascend::{EngineConfig, ScEngine};
use ascend_io::ModelCheckpoint;
use ascend_vit::data::synth_cifar;
use ascend_vit::train::{train_model, TrainConfig};
use ascend_vit::{PrecisionPlan, VitConfig, VitModel};

/// Bump to rebuild every cached artifact.
const RECIPE_VERSION: u32 = 1;

/// An engine config as `ascend-cli compile --by --s1 --s2 --k` takes it.
type Quad = (usize, usize, usize, usize);

/// One training recipe and the engines compiled from its checkpoint.
#[derive(Debug)]
struct Recipe {
    model: VitConfig,
    n_train: usize,
    n_test: usize,
    data_seed: u64,
    epochs: usize,
    qat_epochs: usize,
    batch: usize,
    lr: f32,
    calib_n: usize,
    /// `(artifact name, engine config)` pairs compiled from the checkpoint.
    engines: &'static [(&'static str, Quad)],
}

/// The CI smoke recipe (`ascend-cli train --epochs 2 --qat-epochs 1
/// --train-n 64 --test-n 32`), compiled twice: the default engine config
/// and CI's second `--by 8 --s1 32 --s2 8 --k 4` config.
fn smoke() -> Recipe {
    Recipe {
        model: VitConfig {
            image: 8,
            patch: 4,
            dim: 16,
            layers: 2,
            heads: 2,
            classes: 4,
            ..Default::default()
        },
        n_train: 64,
        n_test: 32,
        data_seed: 7,
        epochs: 2,
        qat_epochs: 1,
        batch: 16,
        lr: 1e-3,
        calib_n: 16,
        engines: &[(SMOKE_A, (8, 32, 8, 3)), (SMOKE_B, (8, 32, 8, 4))],
    }
}

/// The paper's CIFAR geometry (32×32 images, patch 4, so 65-token
/// attention rows; 10 classes) in one layer of four heads: at the default
/// seven layers one SC forward takes most of a second, too slow for a
/// closed loop to complete the thousand requests a p99 needs in one run.
/// Training is kept to one short epoch: the workload measures the
/// forward's cost, which does not depend on how well it was trained.
fn cifar() -> Recipe {
    Recipe {
        model: VitConfig {
            image: 32,
            patch: 4,
            layers: 1,
            heads: 4,
            classes: 10,
            ..Default::default()
        },
        n_train: 64,
        n_test: 16,
        data_seed: 7,
        epochs: 1,
        qat_epochs: 0,
        batch: 16,
        lr: 1e-3,
        calib_n: 16,
        engines: &[(CIFAR, (8, 32, 8, 3))],
    }
}

/// Artifact names.
pub const SMOKE_A: &str = "smoke-a";
pub const SMOKE_B: &str = "smoke-b";
pub const CIFAR: &str = "cifar";

fn recipes() -> [Recipe; 2] {
    [smoke(), cifar()]
}

/// FNV-1a 64 over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The cache directory: under the cargo target directory the benchmark
/// was built into.
fn cache_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("e2e-bench/target"))
        .join("e2e-artifacts")
}

/// Cache path of a named artifact: the file name carries the recipe's
/// fingerprint, so an edited recipe never serves a stale artifact.
pub fn path(name: &str) -> PathBuf {
    let recipe = recipes()
        .into_iter()
        .find(|r| r.engines.iter().any(|(n, _)| *n == name))
        .map(|r| format!("v{RECIPE_VERSION}:{r:?}"))
        .unwrap_or_default();
    cache_dir().join(format!("{name}-{:016x}.sceng", fnv1a(recipe.as_bytes())))
}

/// Fingerprint of an artifact file's bytes (`fnv1a-<hex>`).
pub fn fingerprint(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!("fnv1a-{:016x}", fnv1a(&bytes)))
}

/// Makes sure every artifact exists, building the missing ones in a
/// child process (this same binary with `--prepare-artifacts`).
pub fn ensure() -> Result<(), String> {
    let all = [SMOKE_A, SMOKE_B, CIFAR];
    if all.iter().all(|n| path(n).is_file()) {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("--prepare-artifacts")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning the artifact build: {e}"))?;
    if !status.success() {
        return Err(format!("artifact build failed: {status}"));
    }
    match all.iter().find(|n| !path(n).is_file()) {
        Some(missing) => Err(format!("artifact build left {missing} missing")),
        None => Ok(()),
    }
}

/// Trains and compiles every missing artifact (the child-process side of
/// [`ensure`]).
pub fn prepare() -> Result<(), String> {
    std::fs::create_dir_all(cache_dir()).map_err(|e| format!("cache dir: {e}"))?;
    for recipe in recipes() {
        if recipe.engines.iter().all(|(n, _)| path(n).is_file()) {
            continue;
        }
        let started = std::time::Instant::now();
        let ckpt = train(&recipe);
        for (name, (by, s1, s2, k)) in recipe.engines {
            let engine = ScEngine::compile_from_checkpoint(
                &ckpt,
                EngineConfig::from_quad(*by, *s1, *s2, *k),
            )
            .map_err(|e| format!("compiling {name}: {e}"))?;
            // Write-then-rename, so an interrupted build never leaves a
            // truncated artifact under the final name.
            let dest = path(name);
            let tmp = dest.with_extension("tmp");
            engine
                .save(&tmp)
                .map_err(|e| format!("saving {name}: {e}"))?;
            std::fs::rename(&tmp, &dest).map_err(|e| format!("renaming {name}: {e}"))?;
        }
        eprintln!(
            "e2e-bench: built {:?} in {:.1}s",
            recipe.engines.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            started.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

/// `ascend-cli train` with the recipe's flags: FP training, switch to
/// W2-A2-R16, calibrate, then the quantization-aware epochs.
fn train(r: &Recipe) -> ModelCheckpoint {
    let (train, test) = synth_cifar(
        r.model.classes,
        r.n_train,
        r.n_test,
        r.model.image,
        r.data_seed,
    );
    let mut model = VitModel::new(r.model);
    let tc = TrainConfig {
        epochs: r.epochs,
        batch: r.batch,
        lr: r.lr,
        ..Default::default()
    };
    train_model(&mut model, None, &train, &test, &tc);
    let calib_idx: Vec<usize> = (0..r.calib_n).collect();
    let calib = train.patches(&calib_idx, r.model.patch);
    model.set_plan(PrecisionPlan::w2_a2_r16());
    model.calibrate_steps(&calib, r.calib_n);
    if r.qat_epochs > 0 {
        let qat = TrainConfig {
            epochs: r.qat_epochs,
            ..tc
        };
        train_model(&mut model, None, &train, &test, &qat);
    }
    ModelCheckpoint::capture(&model).with_calib(calib, r.calib_n)
}
