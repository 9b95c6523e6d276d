//! The `checkpoint` loop: the Fig. 7 / Table I path on an 8.28 MiB model. Each
//! cycle saves and restores through the PM mirror; every third cycle also saves
//! and restores an encrypted SSD checkpoint, then crashes the pool and recovers.

use crate::model::{mix, same_params};
use crate::report::{median, percentile, timed, Better, Counters, Gate, Loop, Metrics};
use crate::trace::{SpanId, Tracer};
use plinius::{
    f32s_to_bytes_into, MirrorModel, PliniusContext, PliniusError, SsdCheckpointer,
    DEFAULT_RING_DEPTH,
};
use plinius_crypto::{seal_into, Key, SealedView, IV_LEN, SEAL_OVERHEAD};
use plinius_darknet::config::{build_network, sized_model_config};
use plinius_darknet::Network;
use plinius_pmem::CrashMode;
use plinius_romulus::PmPtr;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sim_clock::CostModel;

/// Requested model size: 8.28 MiB of parameters, larger than the CPU caches and
/// smaller than the EPC.
const MODEL_MB: usize = 8;
/// Every how many cycles the SSD checkpoint and the crash recovery run. Odd, so
/// the networks they restore into last held the other source model (the warm-up
/// cycle runs them too).
const FULL_EVERY: u64 = 3;
const SSD_PATH: &str = "perfbench-checkpoint.bin";

/// PM pool size for a model: twin Romulus regions, each holding the mirror's ring
/// slots of the sealed model plus slack (the sizing `fig7_mirroring` uses).
fn pool_bytes(model_bytes: usize) -> usize {
    (model_bytes * (2 * DEFAULT_RING_DEPTH + 1) + (4 << 20)).next_multiple_of(64)
}

/// Simulated spans (ms) of one full cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimCycle {
    encrypt: f64,
    write: f64,
    read: f64,
    decrypt: f64,
    ssd_save: f64,
    ssd_restore: f64,
}

/// Wall-clock samples (ms) and exact per-save counts of a run.
#[derive(Debug, Default)]
struct Samples {
    save: Vec<f64>,
    restore: Vec<f64>,
    ssd_save: Vec<f64>,
    ssd_restore: Vec<f64>,
    recovery: Vec<f64>,
    sims: Vec<SimCycle>,
    /// `(pm bytes written, flushes, fences, crypto bytes)` of each mirror save.
    save_counts: Vec<[u64; 4]>,
    ssd_bytes: Vec<u64>,
}

/// A deployment holding the mirror of two alternating source models.
pub struct CheckpointRig {
    cost: CostModel,
    key: Key,
    ctx: PliniusContext,
    mirror: MirrorModel,
    ssd: SsdCheckpointer,
    sources: [Network; 2],
    /// Restore targets of the mirror, the SSD and crash recovery. Each holds an
    /// earlier cycle's model when it is restored into, so a restore that left it
    /// untouched fails the bitwise check.
    dests: [Network; 3],
    crash_rng: StdRng,
    model_bytes: usize,
    /// Last committed mirror epoch.
    epoch: u64,
    cycles: u64,
}

impl CheckpointRig {
    /// Builds the deployment and runs one warm-up cycle, recovery included.
    pub fn new(seed: u64, gate: &mut Gate) -> Result<Self, PliniusError> {
        let config = sized_model_config(MODEL_MB, 2);
        let net = |salt| build_network(&config, &mut StdRng::seed_from_u64(mix(seed, salt)));
        let sources = [net(10)?, net(11)?];
        let dests = [net(12)?, net(13)?, net(14)?];
        let model_bytes = sources[0].model_bytes();
        let cost = CostModel::sgx_eml_pm();
        let ctx = PliniusContext::create(cost.clone(), pool_bytes(model_bytes))?;
        let key = Key::generate_128(&mut StdRng::seed_from_u64(mix(seed, 15)));
        ctx.provision_key_directly(key.clone());
        // The enclave model and its training buffers occupy trusted memory.
        ctx.enclave().alloc_trusted((model_bytes * 2) as u64)?;
        let mirror = MirrorModel::allocate_with_ring(&ctx, &sources[0], DEFAULT_RING_DEPTH)?;
        let ssd = SsdCheckpointer::on_shared_clock(&ctx, SSD_PATH);
        let mut rig = CheckpointRig {
            cost,
            key,
            ctx,
            mirror,
            ssd,
            sources,
            dests,
            crash_rng: StdRng::seed_from_u64(mix(seed, 16)),
            model_bytes,
            epoch: 0,
            cycles: 0,
        };
        let mut warmup = Samples::default();
        rig.cycle(true, &mut Tracer::new(false), None, gate, &mut warmup);
        if warmup.recovery.is_empty() {
            return Err(PliniusError::InvalidConfig(
                "checkpoint warm-up cycle failed".into(),
            ));
        }
        Ok(rig)
    }

    /// The loop of save/restore cycles; when `traced`, each cycle also replays
    /// the layer calls inside `mirror_out` and `mirror_in`.
    pub fn into_loop(self, traced: bool) -> Result<Box<dyn Loop>, PliniusError> {
        let replay = if traced {
            Some(Replay::new(&self)?)
        } else {
            None
        };
        Ok(Box::new(CheckpointLoop {
            rig: self,
            replay,
            s: Samples::default(),
        }))
    }

    /// One cycle: mirror save and restore and, when `full`, SSD save and restore
    /// and crash + recovery. Returns false once an operation failed.
    fn cycle(
        &mut self,
        full: bool,
        tr: &mut Tracer,
        mut replay: Option<&mut Replay>,
        gate: &mut Gate,
        s: &mut Samples,
    ) -> bool {
        let op = self.cycles;
        self.cycles += 1;
        let src = (op % 2) as usize;
        let iteration = op + 1;
        self.sources[src].set_iteration(iteration);
        let stats = self.ctx.stats();

        let before = Counters::take(&stats);
        let span = tr.begin("mirror.save", None, op);
        let (r, ms) = timed(|| self.mirror.mirror_out(&self.ctx, &self.sources[src]));
        tr.end(span);
        let Some(saved) = gate.op("MirrorModel::mirror_out", r) else {
            return false;
        };
        let after = Counters::take(&stats);
        s.save.push(ms);
        s.save_counts.push(
            [
                "pm.bytes_written",
                "pm.flushes",
                "pm.fences",
                "sgx.crypto_bytes",
            ]
            .map(|c| after.since(&before, c)),
        );
        self.epoch += 1;
        if let Some(rp) = replay.as_deref_mut() {
            let r = rp.save(&self.ctx, &self.sources[src], tr, span, op);
            gate.op("replayed save", r);
        }

        let span = tr.begin("mirror.restore", None, op);
        let (r, ms) = timed(|| self.mirror.mirror_in(&self.ctx, &mut self.dests[0]));
        tr.end(span);
        let Some(restored) = gate.op("MirrorModel::mirror_in", r) else {
            return false;
        };
        s.restore.push(ms);
        gate.check(
            same_params(&self.dests[0], &self.sources[src])
                && restored.iteration == iteration
                && restored.epoch == self.epoch,
            || format!("checkpoint: mirror_in of cycle {op} is not the saved model"),
        );
        if let Some(rp) = replay {
            gate.op("replayed restore", rp.restore(&self.ctx, tr, span, op));
        }

        if !full {
            return true;
        }
        let before = Counters::take(&stats);
        let (r, ms) = tr
            .span("ssd.save", None, op, || {
                timed(|| self.ssd.save(&self.ctx, &self.sources[src]))
            })
            .0;
        let Some(ssd_saved) = gate.op("SsdCheckpointer::save", r) else {
            return false;
        };
        s.ssd_bytes
            .push(Counters::take(&stats).since(&before, "fs.bytes_written"));
        s.ssd_save.push(ms);
        let (r, ms) = tr
            .span("ssd.restore", None, op, || {
                timed(|| self.ssd.restore(&self.ctx, &mut self.dests[1]))
            })
            .0;
        let Some(ssd_restored) = gate.op("SsdCheckpointer::restore", r) else {
            return false;
        };
        s.ssd_restore.push(ms);
        gate.check(
            same_params(&self.dests[1], &self.sources[src]) && ssd_restored.iteration == iteration,
            || format!("checkpoint: SSD restore of cycle {op} is not the saved model"),
        );
        s.sims.push(SimCycle {
            encrypt: saved.encrypt.millis(),
            write: saved.write.millis(),
            read: restored.read.millis(),
            decrypt: restored.decrypt.millis(),
            ssd_save: ssd_saved.total_ms(),
            ssd_restore: ssd_restored.total_ms(),
        });

        self.ctx
            .pool()
            .crash(&mut self.crash_rng, CrashMode::DropUnflushed);
        let span = tr.begin("recovery", None, op);
        let (r, ms) = timed(|| self.recover(tr, span, op));
        tr.end(span);
        let Some((ctx, mirror, report)) = gate.op("crash recovery", r) else {
            return false;
        };
        s.recovery.push(ms);
        gate.check(
            same_params(&self.dests[2], &self.sources[src])
                && report.iteration == iteration
                && report.epoch == self.epoch,
            || format!("checkpoint: recovery of cycle {op} is not the saved model"),
        );
        self.ctx = ctx;
        self.mirror = mirror;
        true
    }

    /// Reopens the crashed pool (Romulus recovery under a new enclave), provisions
    /// the key again, reopens the mirror and restores the newest epoch.
    fn recover(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        op: u64,
    ) -> Result<(PliniusContext, MirrorModel, plinius::MirrorInReport), PliniusError> {
        let pool = self.ctx.pool().clone();
        let (ctx, _) = tr.span("romulus.recover", Some(parent), op, || {
            PliniusContext::open(pool, self.cost.clone())
        });
        let ctx = ctx?;
        ctx.provision_key_directly(self.key.clone());
        ctx.enclave().alloc_trusted((self.model_bytes * 2) as u64)?;
        let (mirror, _) = tr.span("mirror.open", Some(parent), op, || MirrorModel::open(&ctx));
        let mirror = mirror?;
        let (report, _) = tr.span("mirror.recovery_restore", Some(parent), op, || {
            mirror.mirror_in(&ctx, &mut self.dests[2])
        });
        Ok((ctx, mirror, report?))
    }

    fn report(&self, s: &Samples, tr: &Tracer, gate: &mut Gate, out: &mut Metrics) {
        gate.check(s.save.len() >= 2 && !s.recovery.is_empty(), || {
            "checkpoint: too few cycles".into()
        });
        gate.check(s.sims.windows(2).all(|w| w[0] == w[1]), || {
            "checkpoint: simulated spans differ between cycles".into()
        });
        let Some(sim) = s.sims.first() else {
            return;
        };
        if !tr.enabled() {
            out.ms("mirror_save_ms_p50", median(&s.save), s.save.len());
            out.ms("mirror_save_ms_p90", percentile(&s.save, 90), s.save.len());
            out.ms("mirror_restore_ms_p50", median(&s.restore), s.restore.len());
            out.ms(
                "mirror_restore_ms_p90",
                percentile(&s.restore, 90),
                s.restore.len(),
            );
            out.ms("recovery_ms_p50", median(&s.recovery), s.recovery.len());
            out.ms("ssd_save_ms_p50", median(&s.ssd_save), s.ssd_save.len());
            out.ms(
                "ssd_restore_ms_p50",
                median(&s.ssd_restore),
                s.ssd_restore.len(),
            );
            out.put(
                "sim_save_speedup_vs_ssd",
                sim.ssd_save / (sim.encrypt + sim.write),
                "x",
                Better::Higher,
                s.sims.len(),
            );
            out.put(
                "sim_restore_speedup_vs_ssd",
                sim.ssd_restore / (sim.read + sim.decrypt),
                "x",
                Better::Higher,
                s.sims.len(),
            );
            return;
        }
        for (name, span) in [
            ("crypto.seal_ms", "crypto.seal"),
            ("crypto.open_ms", "crypto.open"),
            ("pmem.persist_ms", "pmem.persist"),
            ("pmem.read_ms", "pmem.read"),
            ("romulus.publish_region_ms", "romulus.publish_region"),
            ("romulus.recover_ms", "romulus.recover"),
            ("mirror.open_ms", "mirror.open"),
        ] {
            let d = tr.durations(span);
            out.ms(name, median(&d), d.len());
        }
        let flips: Vec<f64> = tr
            .durations("romulus.flip_tx")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        out.put(
            "romulus.flip_tx_us",
            median(&flips),
            "us",
            Better::Lower,
            flips.len(),
        );
        let own = tr.self_times("mirror.save");
        out.ms("mirror.self_ms", median(&own), own.len());
        let own = tr.self_times("mirror.restore");
        out.ms("mirror.restore_self_ms", median(&own), own.len());
        let saves = tr.per_op_totals("mirror.save");
        for (name, span) in [
            ("mirror.save_share_pmem_persist", "pmem.persist"),
            ("mirror.save_share_crypto_seal", "crypto.seal"),
        ] {
            let shares: Vec<f64> = tr
                .per_op_totals(span)
                .iter()
                .filter_map(|(op, ms)| saves.get(op).map(|save| 100.0 * ms / save))
                .collect();
            out.put(name, median(&shares), "%", Better::Lower, shares.len());
        }
        // Exact counts, averaged over one save into each of the two ring slots.
        if let [a, b, ..] = s.save_counts[..] {
            let per_save = |i: usize| (a[i] + b[i]) as f64 / 2.0;
            out.count(
                "pmem.bytes_written_per_save",
                per_save(0) / self.model_bytes as f64,
                "x",
            );
            out.count("pmem.flushes_per_save", per_save(1), "count");
            out.count("pmem.fences_per_save", per_save(2), "count");
            out.count("crypto.bytes_per_save", per_save(3), "bytes");
        }
        if let Some(bytes) = s.ssd_bytes.first() {
            out.count("storage.bytes_written_per_save", *bytes as f64, "bytes");
        }
        out.count(
            "mirror.torn_read_retries",
            self.ctx.stats().value("mirror.torn_read_retries") as f64,
            "count",
        );
        out.ms("mirror.sim_encrypt_ms", sim.encrypt, 1);
        out.ms("mirror.sim_write_ms", sim.write, 1);
        out.ms("mirror.sim_read_ms", sim.read, 1);
        out.ms("mirror.sim_decrypt_ms", sim.decrypt, 1);
        out.ms("ssd.sim_save_ms", sim.ssd_save, 1);
        out.ms("ssd.sim_restore_ms", sim.ssd_restore, 1);
    }
}

/// Closed loop of save/restore cycles.
struct CheckpointLoop {
    rig: CheckpointRig,
    replay: Option<Replay>,
    s: Samples,
}

impl Loop for CheckpointLoop {
    fn op(&mut self, tr: &mut Tracer, gate: &mut Gate) -> bool {
        let full = self.rig.cycles.is_multiple_of(FULL_EVERY);
        self.rig
            .cycle(full, tr, self.replay.as_mut(), gate, &mut self.s)
    }

    fn finish(self: Box<Self>, tr: &Tracer, gate: &mut Gate, out: &mut Metrics) {
        self.rig.report(&self.s, tr, gate, out);
    }
}

/// Replays the layer calls inside `mirror_out`/`mirror_in` on the operation's own
/// tensors and sizes, on a second pool of the same geometry: `seal_into`,
/// `Romulus::publish_region`, `PmemPool::persist`, the epoch-flip transaction,
/// `PmemPool::read` and `open_into`.
struct Replay {
    ctx: PliniusContext,
    /// Pool offsets of the twin regions: Romulus lays a pool out as a header
    /// followed by the main and the back region.
    main_start: usize,
    back_start: usize,
    /// One PM region per tensor, sized like its mirror slot.
    regions: Vec<PmPtr>,
    header: PmPtr,
    aads: Vec<Vec<u8>>,
    plain: Vec<Vec<u8>>,
    sealed: Vec<Vec<u8>>,
    ivs: Vec<[u8; IV_LEN]>,
    iv_rng: StdRng,
}

impl Replay {
    fn new(rig: &CheckpointRig) -> Result<Self, PliniusError> {
        let ctx = PliniusContext::create(rig.cost.clone(), pool_bytes(rig.model_bytes))?;
        let mut plain = Vec::new();
        let mut aads = Vec::new();
        for (i, layer) in rig.sources[0]
            .layers()
            .iter()
            .filter(|l| l.is_trainable())
            .enumerate()
        {
            for (j, p) in layer.params().iter().enumerate() {
                plain.push(vec![0u8; p.data.len() * 4]);
                aads.push(format!("layer{i}-tensor{j}").into_bytes());
            }
        }
        let sealed: Vec<Vec<u8>> = plain
            .iter()
            .map(|p| vec![0u8; p.len() + SEAL_OVERHEAD])
            .collect();
        let mut regions = Vec::new();
        let mut header = PmPtr::NULL;
        ctx.romulus().transaction(|tx| {
            header = tx.alloc(88)?;
            for s in &sealed {
                regions.push(tx.alloc(s.len())?);
            }
            Ok(())
        })?;
        let region = ctx.romulus().region_size();
        let main_start = ctx.pool().len() - 2 * region;
        Ok(Replay {
            ctx,
            main_start,
            back_start: main_start + region,
            regions,
            header,
            aads,
            ivs: vec![[0u8; IV_LEN]; plain.len()],
            plain,
            sealed,
            iv_rng: StdRng::seed_from_u64(0),
        })
    }

    fn save(
        &mut self,
        ctx: &PliniusContext,
        src: &Network,
        tr: &mut Tracer,
        parent: SpanId,
        op: u64,
    ) -> Result<(), PliniusError> {
        let gcm = ctx.gcm()?;
        let views = src
            .layers()
            .iter()
            .filter_map(|l| l.param_views())
            .flatten();
        for (plain, view) in self.plain.iter_mut().zip(views) {
            f32s_to_bytes_into(view.data, plain);
        }
        for iv in &mut self.ivs {
            self.iv_rng.fill_bytes(iv);
        }
        let (r, _) = tr.span("crypto.seal", Some(parent), op, || {
            let tensors = self.plain.iter().zip(&self.aads).zip(&self.ivs);
            for (((p, aad), iv), out) in tensors.zip(&mut self.sealed) {
                seal_into(&gcm, p, aad, iv, out)?;
            }
            Ok::<_, PliniusError>(())
        });
        r?;
        let rom = self.ctx.romulus();
        let (r, publish) = tr.span("romulus.publish_region", Some(parent), op, || {
            for (ptr, blob) in self.regions.iter().zip(&self.sealed) {
                rom.publish_region(*ptr, blob)?;
            }
            Ok::<_, PliniusError>(())
        });
        r?;
        let pool = self.ctx.pool();
        let (r, _) = tr.span("pmem.persist", Some(publish), op, || {
            for (ptr, blob) in self.regions.iter().zip(&self.sealed) {
                let off = ptr.offset() as usize;
                pool.persist(self.main_start + off, blob)?;
                pool.persist(self.back_start + off, blob)?;
            }
            Ok::<_, PliniusError>(())
        });
        r?;
        let header = self.header;
        let (r, _) = tr.span("romulus.flip_tx", Some(parent), op, || {
            rom.transaction(|tx| {
                tx.write_u64(header, op)?;
                tx.write_u64(header.add(24), op + 1)?;
                tx.write_u64(header.add(32), op % 2)?;
                tx.write_u64(header.add(56 + 16 * (op % 2)), op + 1)?;
                tx.write_u64(header.add(64 + 16 * (op % 2)), op)
            })
        });
        r?;
        Ok(())
    }

    fn restore(
        &mut self,
        ctx: &PliniusContext,
        tr: &mut Tracer,
        parent: SpanId,
        op: u64,
    ) -> Result<(), PliniusError> {
        let gcm = ctx.gcm()?;
        let pool = self.ctx.pool();
        let (r, _) = tr.span("pmem.read", Some(parent), op, || {
            for (ptr, blob) in self.regions.iter().zip(&mut self.sealed) {
                pool.read(self.main_start + ptr.offset() as usize, blob)?;
            }
            Ok::<_, PliniusError>(())
        });
        r?;
        let (r, _) = tr.span("crypto.open", Some(parent), op, || {
            for ((blob, aad), out) in self.sealed.iter().zip(&self.aads).zip(&mut self.plain) {
                SealedView::parse(blob)?.open_into(&gcm, aad, out)?;
            }
            Ok::<_, PliniusError>(())
        });
        r?;
        Ok(())
    }
}
