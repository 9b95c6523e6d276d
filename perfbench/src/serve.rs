//! The `serve` loop: `InferenceServer::classify_batch` on 8-sample batches of the
//! Fig. 8 network. A publisher trains one step and commits a new epoch with
//! `mirror_out` every 16 batches, so the next batch hot-swaps it in through
//! `refresh` → `mirror_in`.

use crate::model::{fnv, layer_labels, mix, FNV_OFFSET};
use crate::report::{median, percentile, timed, Better, Gate, Loop, Metrics};
use crate::trace::Tracer;
use plinius::{InferenceServer, MirrorModel, PliniusContext, PliniusError, DEFAULT_RING_DEPTH};
use plinius_crypto::Key;
use plinius_darknet::config::{build_network, mnist_cnn_config_with_momentum};
use plinius_darknet::{synthetic_mnist, Dataset, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_clock::CostModel;

/// Samples per served batch.
const BATCH: usize = 8;
/// Batches served per committed epoch.
const ROUND: usize = 16;
/// Samples the serve inputs and the publisher's training batches are drawn from.
const INPUT_SAMPLES: usize = 512;
/// Batches whose predictions make up the printed prediction hash.
const HASHED_BATCHES: u64 = 128;
const PM_BYTES: usize = 16 << 20;

/// A deployment serving the committed epoch of a live mirror.
pub struct ServeRig {
    ctx: PliniusContext,
    mirror: MirrorModel,
    /// The training side: trained one step and mirrored out per round; its forward
    /// pass is the reference the served predictions are checked against.
    publisher: Network,
    server: InferenceServer,
    data: Dataset,
    input_rng: StdRng,
    train_rng: StdRng,
    /// `darknet.b8.L<i>_<kind>.forward` span names.
    names: Vec<String>,
    /// Last committed epoch and epochs committed since the server started.
    epoch: u64,
    commits: u64,
    batches: u64,
    batch_ms: Vec<f64>,
    hash: u64,
}

impl ServeRig {
    /// Builds the deployment, commits the first epoch and serves one warm-up round.
    pub fn new(seed: u64, gate: &mut Gate) -> Result<Self, PliniusError> {
        let data = synthetic_mnist(INPUT_SAMPLES, &mut StdRng::seed_from_u64(mix(seed, 20)));
        let mut publisher = build_network(
            &mnist_cnn_config_with_momentum(5, 16, BATCH, crate::train::MOMENTUM),
            &mut StdRng::seed_from_u64(mix(seed, 21)),
        )?;
        let ctx = PliniusContext::create(CostModel::sgx_eml_pm(), PM_BYTES)?;
        ctx.provision_key_directly(Key::generate_128(&mut StdRng::seed_from_u64(mix(seed, 22))));
        ctx.enclave()
            .alloc_trusted((publisher.model_bytes() * 2) as u64)?;
        let mirror = MirrorModel::allocate_with_ring(&ctx, &publisher, DEFAULT_RING_DEPTH)?;
        let mut train_rng = StdRng::seed_from_u64(mix(seed, 23));
        let (images, labels) = data.random_batch(BATCH, &mut train_rng);
        publisher.train_batch(&images, &labels, BATCH)?;
        mirror.mirror_out(&ctx, &publisher)?;
        let server = InferenceServer::new(&ctx, mirror.clone(), &publisher)?;
        let names = layer_labels(&publisher)
            .iter()
            .map(|l| format!("darknet.b8.{l}.forward"))
            .collect();
        let mut rig = ServeRig {
            ctx,
            mirror,
            publisher,
            server,
            data,
            input_rng: StdRng::seed_from_u64(mix(seed, 24)),
            train_rng,
            names,
            epoch: 1,
            commits: 0,
            batches: 0,
            batch_ms: Vec::new(),
            hash: FNV_OFFSET,
        };
        let mut off = Tracer::new(false);
        for _ in 0..ROUND {
            if rig.batch(&mut off, gate).is_none() {
                return Err(PliniusError::InvalidConfig(
                    "serve warm-up round failed".into(),
                ));
            }
        }
        rig.batches = 0;
        rig.batch_ms.clear();
        rig.hash = FNV_OFFSET;
        Ok(rig)
    }

    /// Trains the publisher one step and commits the result as a new epoch.
    fn commit(&mut self, gate: &mut Gate) -> Option<()> {
        let (images, labels) = self.data.random_batch(BATCH, &mut self.train_rng);
        gate.op(
            "Network::train_batch",
            self.publisher.train_batch(&images, &labels, BATCH),
        )?;
        let committed = self.mirror.mirror_out(&self.ctx, &self.publisher);
        gate.op("MirrorModel::mirror_out", committed)?;
        self.epoch += 1;
        self.commits += 1;
        Some(())
    }

    /// Serves one batch; every `ROUND` batches a new epoch is committed first, so
    /// the batch swaps it in. Returns the batch's wall time, `None` on failure.
    fn batch(&mut self, tr: &mut Tracer, gate: &mut Gate) -> Option<f64> {
        let swap = self.batches.is_multiple_of(ROUND as u64);
        if swap {
            self.commit(gate)?;
        }
        let indices: Vec<usize> = (0..BATCH)
            .map(|_| self.input_rng.gen_range(0..self.data.len()))
            .collect();
        let (input, _) = self.data.gather(&indices);
        let op = self.batches;
        self.batches += 1;
        let span = tr.begin("serve.batch", None, op);
        let (r, ms) = if tr.enabled() {
            // The swap gets a span of its own; classify_batch then finds no newer
            // epoch.
            if swap {
                let (swapped, _) =
                    tr.span("serve.refresh", Some(span), op, || self.server.refresh());
                gate.check(matches!(swapped, Ok(true)), || {
                    format!("serve: batch {op} did not swap")
                });
            }
            let name = if swap {
                "serve.swap_classify"
            } else {
                "serve.forward"
            };
            let server = &mut self.server;
            tr.span(name, Some(span), op, || {
                timed(|| server.classify_batch(&input))
            })
            .0
        } else {
            timed(|| self.server.classify_batch(&input))
        };
        let reference = self.reference(&input, tr, span, op);
        tr.end(span);
        let predicted = gate.op("InferenceServer::classify_batch", r)?;
        self.batch_ms.push(ms);
        gate.check(predicted == reference, || {
            format!("serve: batch {op} predictions differ from the committed model")
        });
        if swap {
            gate.check(self.server.epoch() == self.epoch, || {
                format!(
                    "serve: serving epoch {} after the swap, {} committed",
                    self.server.epoch(),
                    self.epoch
                )
            });
        }
        if op < HASHED_BATCHES {
            self.hash = predicted.iter().fold(self.hash, |h, &p| fnv(h, p as u64));
        }
        Some(ms)
    }

    /// The publisher's predictions for `input`: the committed model's forward pass,
    /// composed layer by layer with a span around each when tracing.
    fn reference(&mut self, input: &[f32], tr: &mut Tracer, parent: usize, op: u64) -> Vec<usize> {
        let layers = self.publisher.layers_mut();
        for i in 0..layers.len() {
            let (before, rest) = layers.split_at_mut(i);
            let x = if i == 0 {
                input
            } else {
                before[i - 1].output()
            };
            tr.span(&self.names[i], Some(parent), op, || {
                rest[0].forward(x, BATCH)
            });
        }
        let classes = self.publisher.outputs();
        let out = self
            .publisher
            .layers()
            .last()
            .expect("non-empty network")
            .output();
        (0..BATCH)
            .map(|s| {
                let row = &out[s * classes..(s + 1) * classes];
                let mut best = 0;
                for (j, v) in row.iter().enumerate() {
                    if *v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }
}

impl Loop for ServeRig {
    fn op(&mut self, tr: &mut Tracer, gate: &mut Gate) -> bool {
        self.batch(tr, gate).is_some()
    }

    fn finish(self: Box<Self>, tr: &Tracer, gate: &mut Gate, out: &mut Metrics) {
        println!(
            "serve prediction hash of the first {} batches: {:016x}",
            self.batches.min(HASHED_BATCHES),
            self.hash
        );
        gate.check(self.server.swaps() == self.commits, || {
            format!(
                "serve: {} swaps for {} committed epochs",
                self.server.swaps(),
                self.commits
            )
        });
        let n = self.batch_ms.len();
        if !tr.enabled() {
            let total_s: f64 = self.batch_ms.iter().sum::<f64>() / 1e3;
            out.put(
                "serve_samples_per_s",
                (n * BATCH) as f64 / total_s,
                "1/s",
                Better::Higher,
                n,
            );
            out.ms("serve_batch_ms_p50", median(&self.batch_ms), n);
            out.ms("serve_batch_ms_p90", percentile(&self.batch_ms, 90), n);
            return;
        }
        let spanned = self.names.iter().map(String::as_str);
        for name in ["serve.refresh", "serve.forward"]
            .into_iter()
            .chain(spanned)
        {
            let d = tr.durations(name);
            out.ms(format!("{name}_ms"), median(&d), d.len());
        }
        out.count(
            "serve.swaps_per_commit",
            self.server.swaps() as f64 / self.commits as f64,
            "count",
        );
    }
}
