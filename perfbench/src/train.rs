//! The `train` loop: Algorithm 2 on the Fig. 8 network, one
//! `PliniusTrainer::step` per operation (encrypted PM data, a sync PM mirror
//! every iteration, default engines).

use crate::model::{layer_labels, mix, params_hash, same_params};
use crate::report::{median, percentile, timed, Better, Counters, Gate, Loop, Metrics};
use crate::trace::{SpanId, Tracer};
use plinius::{
    EnginePolicy, GemmPolicy, ModelPersistence, PersistenceBackend, PipelineMode, PliniusBuilder,
    PliniusContext, PliniusError, PliniusTrainer, PmDataset, PmMirrorBackend, TrainerConfig,
    TrainingSetup, DEFAULT_RING_DEPTH,
};
use plinius_crypto::Key;
use plinius_darknet::config::mnist_cnn_config_with_momentum;
use plinius_darknet::{synthetic_mnist, Network, UpdateArgs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

/// Training batch size.
const BATCH: usize = 32;
/// SGD momentum of the Fig. 8 network. Under the paper's 0.9 (with learning rate
/// 0.1) the loss of this network diverges to the clamp ceiling (20.72) within 25
/// steps on most seeds, at batch 32 and at batch 128; with 0 it falls to ~0 and
/// stays there. The per-step work is the same either way.
pub const MOMENTUM: f32 = 0.0;
/// Samples of the synthetic MNIST training set loaded (encrypted) into PM.
const DATASET_SAMPLES: usize = 1024;
/// Steps a twin deployment replays to check that the loss curve and the weights
/// repeat exactly for a seed.
const TWIN_STEPS: usize = 16;
/// Every how many traced steps the composed step is checked against
/// `Network::train_batch` on a clone.
const EQUIVALENCE_EVERY: u64 = 8;
/// Untraced trainer steps a traced run takes to estimate the tracing overhead.
const OVERHEAD_STEPS: usize = 30;

/// The deployment description of a seed: model init, dataset and key all derive
/// from it.
fn training_setup(seed: u64) -> TrainingSetup {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    let dataset = synthetic_mnist(DATASET_SAMPLES, &mut rng);
    let dataset_bytes = dataset.len() * (dataset.inputs() + dataset.classes() + 16) * 4;
    TrainingSetup {
        cost: CostModel::sgx_eml_pm(),
        // Twin Romulus regions, each holding the PM dataset, the mirror's ring
        // slots of the 0.07 MiB model, and slack.
        pm_bytes: dataset_bytes * 3 + (16 << 20),
        model_config: mnist_cnn_config_with_momentum(5, 16, BATCH, MOMENTUM),
        dataset,
        trainer: TrainerConfig {
            batch: BATCH,
            max_iterations: u64::MAX,
            mirror_frequency: 1,
            encrypted_data: true,
            seed: mix(seed, 2),
            pipeline: PipelineMode::Sync,
            ring_depth: DEFAULT_RING_DEPTH,
            crypto: EnginePolicy::from_env(),
            gemm: GemmPolicy::from_env(),
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: mix(seed, 3),
    }
}

/// A built trainer that has taken one warm-up step.
pub struct TrainRig {
    seed: u64,
    setup: TrainingSetup,
    trainer: PliniusTrainer,
    warmup_loss: f32,
}

impl TrainRig {
    pub fn new(seed: u64) -> Result<Self, PliniusError> {
        let setup = training_setup(seed);
        let mut trainer = PliniusBuilder::new(setup.clone()).build()?;
        let warmup_loss = trainer.step()?;
        Ok(TrainRig {
            seed,
            setup,
            trainer,
            warmup_loss,
        })
    }

    /// The loop driven by `PliniusTrainer::step`, or, when `traced`, the loop of
    /// composed steps.
    pub fn into_loop(self, traced: bool) -> Result<Box<dyn Loop>, PliniusError> {
        Ok(if traced {
            Box::new(TracedTrainLoop::new(self)?)
        } else {
            Box::new(TrainLoop {
                rig: self,
                steps_ms: Vec::new(),
                losses: Vec::new(),
                prefix_hash: None,
            })
        })
    }
}

/// Closed loop of `PliniusTrainer::step` calls.
struct TrainLoop {
    rig: TrainRig,
    steps_ms: Vec<f64>,
    losses: Vec<f32>,
    /// Weights hash after the first `TWIN_STEPS` steps.
    prefix_hash: Option<u64>,
}

impl Loop for TrainLoop {
    fn op(&mut self, _tr: &mut Tracer, gate: &mut Gate) -> bool {
        let (r, ms) = timed(|| self.rig.trainer.step());
        let Some(loss) = gate.op("PliniusTrainer::step", r) else {
            return false;
        };
        self.steps_ms.push(ms);
        self.losses.push(loss);
        if self.losses.len() == TWIN_STEPS {
            self.prefix_hash = Some(params_hash(self.rig.trainer.network()));
        }
        true
    }

    fn finish(self: Box<Self>, _tr: &Tracer, gate: &mut Gate, out: &mut Metrics) {
        let n = self.steps_ms.len();
        let total_s: f64 = self.steps_ms.iter().sum::<f64>() / 1e3;
        out.put(
            "train_samples_per_s",
            (n * BATCH) as f64 / total_s,
            "1/s",
            Better::Higher,
            n,
        );
        out.ms("train_step_ms_p50", median(&self.steps_ms), n);
        out.ms("train_step_ms_p90", percentile(&self.steps_ms, 90), n);
        self.check(gate);
    }
}

impl TrainLoop {
    /// The loss falls, the loss curve and weights repeat on a twin deployment of
    /// the same seed, and the PM mirror holds the trained weights.
    fn check(&self, gate: &mut Gate) {
        let (rig, losses) = (&self.rig, &self.losses);
        gate.check(losses.iter().all(|l| l.is_finite()), || {
            "train: a loss is not finite".into()
        });
        if losses.len() >= 20 {
            let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
            let (first, last) = (mean(&losses[..10]), mean(&losses[losses.len() - 10..]));
            gate.check(last < first, || {
                format!("train: loss did not fall (first 10 mean {first}, last 10 mean {last})")
            });
        }
        if let Some(mut twin) = gate.op("twin TrainRig::new", TrainRig::new(rig.seed)) {
            gate.check(
                twin.warmup_loss.to_bits() == rig.warmup_loss.to_bits(),
                || "train: twin warm-up loss differs".into(),
            );
            for (i, loss) in losses.iter().take(TWIN_STEPS).enumerate() {
                let Some(twin_loss) = gate.op("twin PliniusTrainer::step", twin.trainer.step())
                else {
                    return;
                };
                gate.check(twin_loss.to_bits() == loss.to_bits(), || {
                    format!("train: twin loss at step {i} differs ({twin_loss} vs {loss})")
                });
            }
            if let Some(hash) = self.prefix_hash {
                gate.check(params_hash(twin.trainer.network()) == hash, || {
                    format!("train: twin weights after {TWIN_STEPS} steps differ")
                });
            }
        }
        let restored = rig.setup.build_network().and_then(|mut fresh| {
            let mirror = rig
                .trainer
                .mirror_handle()
                .ok_or(PliniusError::NoMirrorModel)?;
            let report = mirror.mirror_in(rig.trainer.context(), &mut fresh)?;
            Ok((fresh, report.iteration))
        });
        if let Some((fresh, iteration)) = gate.op("train mirror_in", restored) {
            gate.check(
                same_params(&fresh, rig.trainer.network()) && iteration == rig.trainer.iteration(),
                || "train: PM mirror does not hold the trained weights".into(),
            );
        }
    }
}

/// The traced loop: each step is composed from public calls
/// (`PmDataset::decrypt_batch`, `Layer::forward/backward/update` in
/// `Network::train_batch` order, the mirror backend's `persist`) on a deployment
/// of its own, with a span around each.
struct TracedTrainLoop {
    rig: TrainRig,
    ctx: PliniusContext,
    pm: PmDataset,
    net: Network,
    backend: PmMirrorBackend,
    /// `darknet.L<i>_<kind>.{forward,backward,update}` span names per layer.
    names: Vec<[String; 3]>,
    steps: u64,
}

impl TracedTrainLoop {
    fn new(rig: TrainRig) -> Result<Self, PliniusError> {
        let config = &rig.setup.trainer;
        let ctx = PliniusContext::create_with_crypto(
            rig.setup.cost.clone(),
            rig.setup.pm_bytes,
            config.crypto,
        )?;
        let key = Key::generate_128(&mut StdRng::seed_from_u64(mix(rig.seed, 4)));
        ctx.provision_key_directly(key);
        let pm = PmDataset::load(&ctx, &rig.setup.dataset)?;
        let mut net = rig.setup.build_network()?;
        net.set_gemm_policy(config.gemm);
        ctx.enclave()
            .alloc_trusted((net.model_bytes() * 2) as u64)?;
        let mut backend = PmMirrorBackend::with_ring(config.ring_depth);
        backend.prepare(&ctx, &net)?;
        let names = layer_labels(&net)
            .iter()
            .map(|l| ["forward", "backward", "update"].map(|p| format!("darknet.{l}.{p}")))
            .collect();
        Ok(TracedTrainLoop {
            rig,
            ctx,
            pm,
            net,
            backend,
            names,
            steps: 0,
        })
    }

    /// One composed, traced step.
    fn step(&mut self, tr: &mut Tracer, gate: &mut Gate) -> Option<()> {
        let op = self.steps;
        self.steps += 1;
        let twin = op
            .is_multiple_of(EQUIVALENCE_EVERY)
            .then(|| self.net.clone());
        let step = tr.begin("train.step", None, op);
        let mut rng = StdRng::seed_from_u64(mix(self.rig.setup.trainer.seed, op));
        let (batch, _) = tr.span("pmdata.decrypt_batch", Some(step), op, || {
            self.pm.decrypt_batch(&self.ctx, BATCH, &mut rng)
        });
        let (images, truth) = gate.op("PmDataset::decrypt_batch", batch)?;
        let tb = tr.begin("darknet.train_batch", Some(step), op);
        let loss = composed_train_batch(&mut self.net, &images, &truth, &self.names, tr, tb, op);
        tr.end(tb);
        let iteration = self.net.iteration();
        let (r, _) = tr.span("persist.mirror", Some(step), op, || {
            self.backend.persist(&self.ctx, &self.net, iteration)
        });
        tr.end(step);
        gate.op("PmMirrorBackend::persist", r)?;
        if let Some(mut twin) = twin {
            let twin_loss = gate.op(
                "Network::train_batch",
                twin.train_batch(&images, &truth, BATCH),
            );
            gate.check(
                twin_loss.map(f32::to_bits) == Some(loss.to_bits())
                    && same_params(&twin, &self.net),
                || format!("train: composed step {op} differs from Network::train_batch"),
            );
        }
        Some(())
    }
}

impl Loop for TracedTrainLoop {
    fn op(&mut self, tr: &mut Tracer, gate: &mut Gate) -> bool {
        self.step(tr, gate).is_some()
    }

    fn finish(mut self: Box<Self>, tr: &Tracer, gate: &mut Gate, out: &mut Metrics) {
        let spanned = self.names.iter().flatten().map(String::as_str);
        for name in spanned.chain([
            "darknet.train_batch",
            "pmdata.decrypt_batch",
            "persist.mirror",
        ]) {
            let d = tr.durations(name);
            out.ms(format!("{name}_ms"), median(&d), d.len());
        }
        // Untraced trainer steps, for the tracing overhead and the ecall count.
        let stats = self.rig.trainer.context().stats();
        let before = Counters::take(&stats);
        let mut plain_ms = Vec::new();
        for _ in 0..OVERHEAD_STEPS {
            let (r, ms) = timed(|| self.rig.trainer.step());
            if gate.op("PliniusTrainer::step", r).is_some() {
                plain_ms.push(ms);
            }
        }
        let ecalls = Counters::take(&stats).since(&before, "sgx.ecalls");
        out.count(
            "sgx.ecalls_per_step",
            ecalls as f64 / OVERHEAD_STEPS as f64,
            "count",
        );
        out.ms(
            "trace.train_step_overhead_ms",
            median(&tr.durations("train.step")) - median(&plain_ms),
            plain_ms.len(),
        );
    }
}

/// One training iteration composed from the public layer calls, in exactly the
/// order and arithmetic of `Network::train_batch`, with a span around each layer
/// call.
fn composed_train_batch(
    net: &mut Network,
    images: &[f32],
    truth: &[f32],
    names: &[[String; 3]],
    tr: &mut Tracer,
    parent: SpanId,
    op: u64,
) -> f32 {
    let outputs = net.outputs();
    let args = UpdateArgs {
        learning_rate: net.config().learning_rate,
        momentum: net.config().momentum,
        decay: net.config().decay,
        batch: BATCH,
    };
    let iteration = net.iteration();
    let layers = net.layers_mut();
    for layer in layers.iter_mut() {
        layer.zero_delta();
    }
    for i in 0..layers.len() {
        let (before, rest) = layers.split_at_mut(i);
        let input = if i == 0 {
            images
        } else {
            before[i - 1].output()
        };
        tr.span(&names[i][0], Some(parent), op, || {
            rest[0].forward(input, BATCH)
        });
    }
    let last = layers.last_mut().expect("non-empty network");
    let predictions = last.output().to_vec();
    let delta = last.delta_mut();
    let mut loss = 0.0f32;
    for i in 0..BATCH * outputs {
        let (t, p) = (truth[i], predictions[i]);
        delta[i] = t - p;
        if t > 0.0 {
            loss += -t * (p.max(1e-9)).ln();
        }
    }
    loss /= BATCH as f32;
    for i in (0..layers.len()).rev() {
        let (before, rest) = layers.split_at_mut(i);
        tr.span(&names[i][1], Some(parent), op, || {
            if i == 0 {
                rest[0].backward(images, None, BATCH);
            } else {
                let (prev_output, prev_delta) = before[i - 1].output_and_delta_mut();
                rest[0].backward(prev_output, Some(prev_delta), BATCH);
            }
        });
    }
    for (i, layer) in layers.iter_mut().enumerate() {
        tr.span(&names[i][2], Some(parent), op, || layer.update(&args));
    }
    net.set_iteration(iteration + 1);
    loss
}
