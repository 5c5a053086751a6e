//! One repetition of a workload: real RSUs, the fleet around them, and the
//! closed-loop micro-batch cycle that drives them through their public API.
//!
//! A cycle is: vehicle `next_status` → `encode_to_bytes` →
//! `DsrcChannel::send` (the record's arrival stamp) → `Broker::produce` to
//! IN-DATA → `RsuNode::run_batch` → `publish_warning` → fleet
//! `Consumer::poll` + `WarningMessage::decode`. On the handover workload,
//! every [`HANDOVER_EVERY`]-th cycle also runs `export_summaries` →
//! `WiredLink::transmit` → `receive_summary_at` before the second RSU's
//! `run_batch`. Batch `k + 1` is built only after cycle `k` returns.

use bytes::Bytes;
use cad3::detector::{train_all, Cad3Detector, Detection, DetectionConfig, Detector};
use cad3::{ProcessingCostModel, RsuNode, SummaryTracker, VehicleAgent};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_engine::{Executor, PAPER_WORKERS};
use cad3_net::{DsrcChannel, WiredLink};
use cad3_sim::SimRng;
use cad3_stream::{Broker, Consumer, OffsetReset, TOPIC_IN_DATA, TOPIC_OUT_DATA};
use cad3_types::{
    FeatureRecord, RoadType, RsuId, SimTime, SummaryMessage, VehicleId, VehicleStatus,
    WarningMessage, WireDecode, WireEncode,
};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The paper's Spark Streaming micro-batch interval.
const BATCH_MS: u64 = 50;
/// RSU A hands its summaries to RSU B every 5th batch (250 ms). At every
/// 10th, handover cycles were exactly 10% of the cycles, so the p90 sat on
/// the edge between ordinary and handover cycles and swung with noise; at
/// 20% it falls inside the handover cycles and tracks their cost.
pub const HANDOVER_EVERY: usize = 5;
/// Feature records each vehicle replays, cycled.
const POOL_LEN: usize = 64;
/// Leading cycles of each repetition left out of the timing samples, while
/// the topic logs and allocator pools grow to their working size.
const WARMUP_CYCLES: usize = 10;
/// Corpus records the detectors train on and the fleet replays. The
/// generated corpus's size swings about 2x with the seed (29 k to 61 k
/// records over seeds 1–16); a fixed prefix keeps set-up time and memory a
/// property of the code rather than of the seed.
const CORPUS_RECORDS: usize = 24_000;
/// Vehicle ids start here, clear of the corpus's own ids.
const FLEET_BASE_ID: u64 = 1_000;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One RSU, 256 vehicles: 128 records per batch, the top of the paper's
    /// Fig. 6a sweep. Per-batch fixed cost dominates.
    PaperFleet,
    /// One RSU, 2048 vehicles: 1024 records per batch, a backlogged RSU
    /// past the paper's range. Per-record cost dominates.
    DenseFleet,
    /// Two RSUs (motorway → link) sharing 512 vehicles, with a CO-DATA
    /// handover every 250 ms.
    Handover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::PaperFleet, Workload::DenseFleet, Workload::Handover];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFleet => "paper_fleet",
            Workload::DenseFleet => "dense_fleet",
            Workload::Handover => "handover",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Vehicles in the fleet. Each reports at 10 Hz, so half of them send
    /// in every 50 ms batch.
    pub fn vehicles(self) -> usize {
        match self {
            Workload::PaperFleet => 256,
            Workload::DenseFleet => 2048,
            Workload::Handover => 512,
        }
    }

    /// RSUs in the deployment.
    pub fn rsus(self) -> usize {
        if self == Workload::Handover {
            2
        } else {
            1
        }
    }

    /// Cycles in one repetition: a fixed amount of work, so counts, digests
    /// and peak memory repeat. About half a second of cycles on a 2-core
    /// host, so a run has dozens of repetitions to choose quiet ones from,
    /// and at least 100 timed cycles, so each has a p90.
    pub fn cycles(self) -> usize {
        match self {
            Workload::PaperFleet => 600,
            Workload::DenseFleet => 120,
            Workload::Handover => 300,
        }
    }
}

/// How a repetition is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Cycle wall time only: the end-to-end numbers.
    Plain,
    /// As `Plain`, with the program's own instrumentation switched on
    /// (`cad3_obs::set_enabled(true)`).
    Obs,
    /// Every layer call timed from outside, plus re-timings outside the
    /// cycle on each cycle's exact inputs.
    Traced,
}

/// Operations the benchmark issued in a repetition and what came back, counted
/// from outside the RSU.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// IN-DATA produce calls.
    pub produced: u64,
    /// Of those, records the benchmark knows are not status records.
    pub undecodable: u64,
    /// Σ `BatchResult::records`.
    pub batch_records: u64,
    /// Growth of `RsuNode::records_processed`.
    pub detected: u64,
    /// `run_batch` calls.
    pub batches: u64,
    /// `publish_warning` calls (one per warning a batch returned).
    pub published: u64,
    /// Fleet OUT-DATA polls.
    pub polls: u64,
    /// Warnings polled from OUT-DATA and decoded.
    pub delivered: u64,
    /// `receive_summary_at` calls.
    pub summaries_sent: u64,
    /// Σ `BatchResult::summaries_received`.
    pub summaries_fused: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Σ `Broker::topic_len(IN-DATA)` at the end of the repetition.
    pub in_data_retained: u64,
}

impl Counts {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.produced + self.batches + self.published + self.polls + self.summaries_sent
    }

    /// Operations whose effect is missing: records never detected, warnings
    /// never delivered, summaries never fused, and failed calls.
    pub fn failed(&self) -> u64 {
        let shortfall = self.produced.saturating_sub(self.detected)
            + self.published.saturating_sub(self.delivered)
            + self.summaries_sent.saturating_sub(self.summaries_fused);
        (shortfall + self.errors).min(self.attempted())
    }

    /// The conservation identities: records produced = Σ records batched =
    /// detected + undecodable; warnings published = warnings delivered;
    /// summaries sent = summaries fused.
    pub fn conserved(&self) -> bool {
        self.batch_records == self.produced
            && self.batch_records == self.detected + self.undecodable
            && self.delivered == self.published
            && self.summaries_fused == self.summaries_sent
    }
}

/// Samples of the fusing RSU's `run_batch`, µs, on cycles that carry
/// summaries and on cycles that do not; `rsu.fuse_us` is the difference of
/// their medians.
pub const FUSE_WITH: &str = "rsu.fuse_with_us";
/// See [`FUSE_WITH`].
pub const FUSE_WITHOUT: &str = "rsu.fuse_without_us";

/// Named per-layer timing samples from traced cycles.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

/// What one repetition measured.
#[derive(Debug)]
pub struct RepOutcome {
    /// The repetition's mode.
    pub mode: Mode,
    /// Dataset generation + `train_all` + RSU and fleet construction, s.
    pub setup_s: f64,
    /// Wall time of each cycle after the warm-up, ns.
    pub cycle_ns: Vec<f64>,
    /// Records produced in those cycles.
    pub timed_records: u64,
    /// Share of host CPU time stolen by the hypervisor during the repetition.
    pub steal_share: f64,
    /// The process's peak resident memory (`VmHWM`) after the last cycle,
    /// when the topic logs are fullest, MB.
    pub hwm_mb: Option<f64>,
    /// Operation accounting over every cycle.
    pub counts: Counts,
    /// FNV-1a over the delivered warnings and the exported summaries.
    pub digest: u64,
    /// Traced-only checks that failed: the one-worker reference RSU's
    /// warnings differed, or a call outside the cycle returned an error.
    pub traced_faults: u64,
    /// Per-layer samples (traced repetitions only).
    pub samples: Samples,
}

/// Runs one repetition of `cycles` cycles. With `inject_garbage`, one record
/// that is not a status record joins IN-DATA halfway through.
///
/// # Errors
///
/// Fails when the detectors cannot be trained on the generated corpus.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    cycles: usize,
    mode: Mode,
    inject_garbage: bool,
) -> Result<RepOutcome, String> {
    let ticks_before = crate::host::cpu_ticks();
    let start = Instant::now();
    let mut rig = Rig::new(workload, seed, mode)?;
    let setup_s = start.elapsed().as_secs_f64();
    if mode == Mode::Obs {
        cad3_obs::set_enabled(true);
    }
    let mut out = RepOutcome {
        mode,
        setup_s,
        cycle_ns: Vec::with_capacity(cycles),
        timed_records: 0,
        steal_share: 0.0,
        hwm_mb: None,
        counts: Counts::default(),
        digest: 0,
        traced_faults: 0,
        samples: Samples::new(),
    };
    let mut digest = Fnv::default();
    for k in 0..cycles {
        let garbage = inject_garbage && k == cycles / 2;
        let produced_before = out.counts.produced;
        let wall_ns = rig.cycle(k, garbage, &mut out, &mut digest);
        if k >= WARMUP_CYCLES {
            out.cycle_ns.push(wall_ns);
            out.timed_records += out.counts.produced - produced_before;
        }
    }
    cad3_obs::set_enabled(false);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, crate::host::cpu_ticks()) {
        out.steal_share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
    }
    out.hwm_mb = crate::host::hwm_mb();
    out.digest = digest.finish();
    out.counts.in_data_retained = rig
        .stations
        .iter()
        .map(|st| st.broker.topic_len(TOPIC_IN_DATA).map_or(0, |n| n as u64))
        .sum();
    Ok(out)
}

/// One RSU with the fleet-side objects around it, and the current cycle's
/// scratch buffers.
struct Station {
    rsu: RsuNode,
    broker: Arc<Broker>,
    channel: DsrcChannel,
    /// The vehicles' OUT-DATA consumer.
    fleet: Consumer,
    /// Vehicles sending to this RSU in the current cycle.
    senders: Vec<usize>,
    statuses: Vec<VehicleStatus>,
    payloads: Vec<Bytes>,
    arrivals: Vec<u64>,
    /// Warnings the last `run_batch` returned.
    warnings: Vec<WarningMessage>,
    /// Warnings the fleet decoded this cycle.
    delivered: Vec<WarningMessage>,
    summaries_in: usize,
    run_batch_ns: f64,
    /// A bench-owned tracker for re-timing the detect sweep.
    tracker: SummaryTracker,
}

struct Rig {
    workload: Workload,
    mode: Mode,
    detector: Arc<Cad3Detector>,
    stations: Vec<Station>,
    agents: Vec<VehicleAgent>,
    keys: Vec<Bytes>,
    /// Per vehicle: its motorway and (handover only) its link record pool.
    pools: Vec<[Vec<FeatureRecord>; 2]>,
    link: WiredLink,
    rng: SimRng,
    exported: Vec<SummaryMessage>,
    link_arrivals: Vec<SimTime>,
    /// One-worker RSU fed station 0's records (traced only).
    reference: Option<RsuNode>,
    /// Traced single-RSU workloads have no second RSU, so their handover
    /// layers are timed outside the cycle against this one: a one-worker
    /// RSU that receives station 0's exported summaries over `link` and
    /// fuses them in a `run_batch` with no status records.
    peer: Option<RsuNode>,
}

impl Rig {
    fn new(workload: Workload, seed: u64, mode: Mode) -> Result<Rig, String> {
        let mut ds = SyntheticDataset::generate(&DatasetConfig::small(seed));
        // A prefix keeps the records in trip order, as training requires.
        ds.features.truncate(CORPUS_RECORDS);
        let models = train_all(&ds.features, &DetectionConfig::default())
            .map_err(|e| format!("training on seed {seed}: {e}"))?;
        let detector = Arc::new(models.cad3);
        let mut rng = SimRng::seed_from(seed);

        let n = workload.vehicles();
        let pools: Vec<[Vec<FeatureRecord>; 2]> = if workload == Workload::Handover {
            let motorway = ds.features_of_type(RoadType::Motorway);
            let link = ds.features_of_type(RoadType::MotorwayLink);
            (0..n).map(|_| [window(&motorway, &mut rng), window(&link, &mut rng)]).collect()
        } else {
            (0..n).map(|_| [window(&ds.features, &mut rng), Vec::new()]).collect()
        };
        let agents = (0..n)
            .map(|i| {
                let pool = &pools[i][station_of(workload, i, 0)];
                VehicleAgent::new(VehicleId(FLEET_BASE_ID + i as u64), pool.clone())
            })
            .collect();
        let keys = (0..n)
            .map(|i| Bytes::copy_from_slice(&(FLEET_BASE_ID + i as u64).to_be_bytes()))
            .collect();

        let names = ["rsu-motorway", "rsu-motorway-link"];
        let stations = (0..workload.rsus())
            .map(|s| {
                let shared: Arc<dyn Detector> = detector.clone();
                let rsu = RsuNode::new(
                    RsuId(s as u32 + 1),
                    names[s],
                    shared,
                    ProcessingCostModel::default(),
                );
                let broker = rsu.broker();
                let mut fleet = Consumer::new(Arc::clone(&broker), "fleet", OffsetReset::Earliest);
                fleet.subscribe(&[TOPIC_OUT_DATA]).expect("RSU brokers create OUT-DATA");
                Station {
                    rsu,
                    broker,
                    channel: DsrcChannel::paper_default((n / workload.rsus()) as u32),
                    fleet,
                    senders: Vec::new(),
                    statuses: Vec::new(),
                    payloads: Vec::new(),
                    arrivals: Vec::new(),
                    warnings: Vec::new(),
                    delivered: Vec::new(),
                    summaries_in: 0,
                    run_batch_ns: 0.0,
                    tracker: detector.new_tracker(),
                }
            })
            .collect();

        let one_worker = |id: u32, name: &str| {
            let shared: Arc<dyn Detector> = detector.clone();
            RsuNode::with_executor(
                RsuId(id),
                name,
                shared,
                ProcessingCostModel::default(),
                Executor::new(1),
            )
        };
        let traced = mode == Mode::Traced;
        let reference = traced.then(|| one_worker(11, "rsu-reference-1w"));
        let peer = (traced && workload.rsus() == 1).then(|| one_worker(12, "rsu-peer"));
        Ok(Rig {
            workload,
            mode,
            detector,
            stations,
            agents,
            keys,
            pools,
            link: WiredLink::gigabit_ethernet(),
            rng,
            exported: Vec::new(),
            link_arrivals: Vec::new(),
            reference,
            peer,
        })
    }

    /// Runs cycle `k` and returns its wall time in ns.
    fn cycle(&mut self, k: usize, garbage: bool, out: &mut RepOutcome, digest: &mut Fnv) -> f64 {
        let now = SimTime::from_millis(BATCH_MS * (k as u64 + 1));
        let hand_over = self.stations.len() == 2 && k % HANDOVER_EVERY == HANDOVER_EVERY - 1;
        self.prepare(k);
        let counts = &mut out.counts;
        let mut laps = Laps::new(self.mode == Mode::Traced);

        let start = Instant::now();
        for s in 0..self.stations.len() {
            self.produce(s, now, &mut laps, counts);
        }
        if garbage {
            counts.produced += 1;
            counts.undecodable += 1;
            let st = &self.stations[0];
            let value = Bytes::copy_from_slice(b"not a status record");
            if st.broker.produce(TOPIC_IN_DATA, None, Some(self.keys[0].clone()), value, 0).is_err()
            {
                counts.errors += 1;
            }
        }
        for s in 0..self.stations.len() {
            self.detect(s, now, &mut laps, counts);
            if s == 0 && hand_over {
                self.hand_over(now, &mut laps, counts);
            }
        }
        for st in &mut self.stations {
            deliver(st, &mut laps, counts);
        }
        let wall_ns = start.elapsed().as_nanos() as f64;

        for st in &mut self.stations {
            st.delivered.sort_by_key(|w| (w.vehicle, w.source_seq));
            for w in st.delivered.drain(..) {
                w.vehicle.raw().hash(digest);
                w.source_seq.hash(digest);
                w.kind.hash(digest);
                w.probability.to_bits().hash(digest);
            }
        }
        if hand_over {
            for m in &self.exported {
                digest.write(&m.encode_to_bytes());
            }
        }
        if self.mode == Mode::Traced {
            laps.record(wall_ns, &mut out.samples);
            self.retime(k, now, hand_over, out);
        }
        wall_ns
    }

    /// Untimed per-cycle set-up: on the handover workload, vehicles that
    /// crossed to the other RSU switch record pool; then every station's
    /// senders for this cycle.
    fn prepare(&mut self, k: usize) {
        if self.workload == Workload::Handover && k > 0 && k.is_multiple_of(HANDOVER_EVERY) {
            for (i, agent) in self.agents.iter_mut().enumerate() {
                agent.switch_pool(self.pools[i][station_of(self.workload, i, k)].clone());
            }
        }
        for st in &mut self.stations {
            st.senders.clear();
        }
        // 10 Hz reports into 50 ms batches: each vehicle sends every other batch.
        for i in (k % 2..self.agents.len()).step_by(2) {
            self.stations[station_of(self.workload, i, k)].senders.push(i);
        }
    }

    /// Status → encode → DSRC → IN-DATA for station `s`'s senders.
    fn produce(&mut self, s: usize, now: SimTime, laps: &mut Laps, counts: &mut Counts) {
        let n = self.agents.len() as u64;
        let window_start = now.as_nanos() - BATCH_MS * 1_000_000;
        let sent_at =
            |i: usize| SimTime::from_nanos(window_start + i as u64 * BATCH_MS * 1_000_000 / n);
        let st = &mut self.stations[s];
        let (agents, keys, rng) = (&mut self.agents, &self.keys, &mut self.rng);
        let sends = st.senders.len();

        st.statuses.clear();
        laps.time(Layer::NextStatus, sends, || {
            for &i in &st.senders {
                st.statuses.push(agents[i].next_status(sent_at(i)));
            }
        });
        st.payloads.clear();
        laps.time(Layer::Encode, sends, || {
            st.payloads.extend(st.statuses.iter().map(WireEncode::encode_to_bytes));
        });
        st.arrivals.clear();
        laps.time(Layer::DsrcSend, sends, || {
            for (&i, p) in st.senders.iter().zip(&st.payloads) {
                let vehicle = FLEET_BASE_ID + i as u64;
                st.arrivals.push(st.channel.send(rng, vehicle, sent_at(i), p.len()).as_nanos());
            }
        });
        counts.produced += sends as u64;
        laps.time(Layer::Produce, sends, || {
            for ((&i, p), &at) in st.senders.iter().zip(&st.payloads).zip(&st.arrivals) {
                let key = Some(keys[i].clone());
                if st.broker.produce(TOPIC_IN_DATA, None, key, p.clone(), at).is_err() {
                    counts.errors += 1;
                }
            }
        });
    }

    /// `run_batch` on station `s`, then publish its warnings.
    fn detect(&mut self, s: usize, now: SimTime, laps: &mut Laps, counts: &mut Counts) {
        let st = &mut self.stations[s];
        let before = st.rsu.records_processed();
        counts.batches += 1;
        let result = laps.time(Layer::RunBatch, 1, || st.rsu.run_batch(now));
        st.run_batch_ns = laps.last_ns;
        let Ok(batch) = result else {
            counts.errors += 1;
            return;
        };
        counts.batch_records += batch.records as u64;
        counts.detected += st.rsu.records_processed() - before;
        counts.summaries_fused += batch.summaries_received as u64;
        counts.published += batch.warnings.len() as u64;
        st.summaries_in = batch.summaries_received;
        laps.time(Layer::Publish, batch.warnings.len(), || {
            for w in &batch.warnings {
                if st.rsu.publish_warning(w).is_err() {
                    counts.errors += 1;
                }
            }
        });
        st.warnings = batch.warnings;
    }

    /// RSU A's summaries over the wired link into RSU B's CO-DATA.
    fn hand_over(&mut self, now: SimTime, laps: &mut Laps, counts: &mut Counts) {
        let (a, b) = self.stations.split_at_mut(1);
        let (a, b) = (&a[0], &b[0]);
        self.exported = laps.time(Layer::Export, 1, || a.rsu.export_summaries(now));
        let (exported, link, arrivals) = (&self.exported, &mut self.link, &mut self.link_arrivals);
        arrivals.clear();
        laps.time(Layer::LinkTransmit, exported.len(), || {
            arrivals.extend(exported.iter().map(|m| link.transmit(now, m.encoded_len())));
        });
        counts.summaries_sent += exported.len() as u64;
        laps.time(Layer::ReceiveSummary, exported.len(), || {
            for (m, &at) in exported.iter().zip(arrivals.iter()) {
                if b.rsu.receive_summary_at(m, at).is_err() {
                    counts.errors += 1;
                }
            }
        });
    }

    /// Traced cycles only: re-times decode, detect and the executor on this
    /// cycle's exact inputs, runs the one-worker reference RSU, and times
    /// the codecs, all outside the cycle's wall time.
    fn retime(&mut self, k: usize, now: SimTime, hand_over: bool, out: &mut RepOutcome) {
        let samples = &mut out.samples;
        for st in &mut self.stations {
            let records = st.payloads.len() as f64;
            let t = Instant::now();
            black_box(Executor::paper_default().run((0..PAPER_WORKERS).collect(), black_box));
            let executor_ns = t.elapsed().as_nanos() as f64;

            let t = Instant::now();
            let decoded: Vec<VehicleStatus> = st
                .payloads
                .iter()
                .filter_map(|p| VehicleStatus::decode(&mut p.clone()).ok())
                .collect();
            let decode_ns = t.elapsed().as_nanos() as f64;

            // The RSU's shard width: its records split by vehicle over the
            // paper's six workers.
            let mut shards: Vec<Vec<FeatureRecord>> = vec![Vec::new(); PAPER_WORKERS];
            for status in &decoded {
                shards[(status.vehicle.raw() % PAPER_WORKERS as u64) as usize]
                    .push(status.to_feature());
            }
            let mut detections: Vec<Option<Detection>> = Vec::new();
            let tracker = &mut st.tracker;
            let t = Instant::now();
            for shard in &shards {
                detections.clear();
                self.detector.detect_batch(
                    shard,
                    &mut |i, p| tracker.observe(shard[i].vehicle, shard[i].road, p),
                    &mut detections,
                );
                black_box(&detections);
            }
            let detect_ns = t.elapsed().as_nanos() as f64;

            push(samples, "engine.executor_run_us", executor_ns / 1e3);
            if records > 0.0 {
                push(samples, "types.status_decode_ns", decode_ns / records);
                push(samples, "detector.detect_batch_ns", detect_ns / records);
            }
            let residual_ns = st.run_batch_ns - executor_ns - decode_ns - detect_ns;
            push(samples, "rsu.run_batch_residual_us", residual_ns / 1e3);
            push(samples, "rsu.run_batch_us", st.run_batch_ns / 1e3);

            if !st.warnings.is_empty() {
                let t = Instant::now();
                for w in &st.warnings {
                    black_box(WarningMessage::decode(&mut w.encode_to_bytes()).ok());
                }
                push(
                    samples,
                    "types.warning_codec_ns",
                    t.elapsed().as_nanos() as f64 / st.warnings.len() as f64,
                );
            }
        }
        if hand_over {
            let b = &self.stations[1];
            let fuse = if b.summaries_in > 0 { FUSE_WITH } else { FUSE_WITHOUT };
            push(samples, fuse, b.run_batch_ns / 1e3);
            summary_codec(&self.exported, samples);
        } else if self.stations.len() == 2 {
            push(samples, FUSE_WITHOUT, self.stations[1].run_batch_ns / 1e3);
        }

        if let Some(reference) = &mut self.reference {
            let st = &self.stations[0];
            let broker = reference.broker();
            for ((&i, p), &at) in st.senders.iter().zip(&st.payloads).zip(&st.arrivals) {
                if broker
                    .produce(TOPIC_IN_DATA, None, Some(self.keys[i].clone()), p.clone(), at)
                    .is_err()
                {
                    out.traced_faults += 1;
                }
            }
            let t = Instant::now();
            let result = reference.run_batch(now);
            push(samples, "rsu.run_batch_1w_us", t.elapsed().as_nanos() as f64 / 1e3);
            let key = |w: &WarningMessage| (w.vehicle, w.source_seq, w.probability.to_bits());
            let mut mine: Vec<_> = st.warnings.iter().map(key).collect();
            let mut theirs: Vec<_> =
                result.map(|r| r.warnings.iter().map(key).collect()).unwrap_or_default();
            mine.sort_unstable();
            theirs.sort_unstable();
            if mine != theirs {
                out.traced_faults += 1;
            }
        }

        if let Some(peer) = &mut self.peer {
            if k % HANDOVER_EVERY == HANDOVER_EVERY - 1 {
                let rsu = &self.stations[0].rsu;
                let t = Instant::now();
                let exported = rsu.export_summaries(now);
                push(samples, "rsu.export_summaries_us", t.elapsed().as_nanos() as f64 / 1e3);
                if !exported.is_empty() {
                    let n = exported.len() as f64;
                    let t = Instant::now();
                    let arrivals: Vec<SimTime> =
                        exported.iter().map(|m| self.link.transmit(now, m.encoded_len())).collect();
                    push(samples, "net.link_transmit_ns", t.elapsed().as_nanos() as f64 / n);
                    let t = Instant::now();
                    for (m, &at) in exported.iter().zip(&arrivals) {
                        if peer.receive_summary_at(m, at).is_err() {
                            out.traced_faults += 1;
                        }
                    }
                    push(samples, "rsu.receive_summary_ns", t.elapsed().as_nanos() as f64 / n);
                    summary_codec(&exported, samples);
                }
            }
            let t = Instant::now();
            let fused = peer.run_batch(now).map_or(0, |r| r.summaries_received);
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            push(samples, if fused > 0 { FUSE_WITH } else { FUSE_WITHOUT }, us);
        }
    }
}

/// Fleet poll of station `st`'s OUT-DATA and decode of every warning.
fn deliver(st: &mut Station, laps: &mut Laps, counts: &mut Counts) {
    counts.polls += 1;
    let polled = laps.time(Layer::OutPoll, 1, || st.fleet.poll(usize::MAX));
    let Ok(records) = polled else {
        counts.errors += 1;
        return;
    };
    laps.time(Layer::WarningDecode, records.len(), || {
        for rec in records {
            let mut value = rec.value;
            match WarningMessage::decode(&mut value) {
                Ok(w) => {
                    counts.delivered += 1;
                    st.delivered.push(w);
                }
                Err(_) => counts.errors += 1,
            }
        }
    });
}

fn summary_codec(summaries: &[SummaryMessage], samples: &mut Samples) {
    if summaries.is_empty() {
        return;
    }
    let t = Instant::now();
    for m in summaries {
        black_box(SummaryMessage::decode(&mut m.encode_to_bytes()).ok());
    }
    push(samples, "types.summary_codec_ns", t.elapsed().as_nanos() as f64 / summaries.len() as f64);
}

/// Which RSU vehicle `i` reports to in cycle `k`. On the handover workload
/// the fleet is two groups that trade places every handover period: the
/// group on the motorway RSU moves to the link RSU and the other comes back.
fn station_of(workload: Workload, i: usize, k: usize) -> usize {
    if workload != Workload::Handover {
        return 0;
    }
    let group = usize::from(i >= workload.vehicles() / 2);
    (group + k / HANDOVER_EVERY) % 2
}

/// A seeded window of `POOL_LEN` consecutive corpus records.
fn window(records: &[FeatureRecord], rng: &mut SimRng) -> Vec<FeatureRecord> {
    assert!(!records.is_empty(), "the corpus has records of every pool's road type");
    let start = rng.index(records.len().saturating_sub(POOL_LEN) + 1);
    records[start..(start + POOL_LEN).min(records.len())].to_vec()
}

/// The in-cycle layer calls, timed from outside in traced cycles.
#[derive(Debug, Clone, Copy)]
enum Layer {
    NextStatus,
    Encode,
    DsrcSend,
    Produce,
    RunBatch,
    Publish,
    Export,
    LinkTransmit,
    ReceiveSummary,
    OutPoll,
    WarningDecode,
}

impl Layer {
    const COUNT: usize = 11;
    const ALL: [Layer; Layer::COUNT] = [
        Layer::NextStatus,
        Layer::Encode,
        Layer::DsrcSend,
        Layer::Produce,
        Layer::RunBatch,
        Layer::Publish,
        Layer::Export,
        Layer::LinkTransmit,
        Layer::ReceiveSummary,
        Layer::OutPoll,
        Layer::WarningDecode,
    ];

    /// The per-call metric the layer reports and its divisor from ns.
    /// `run_batch` is reported per call from its own samples instead.
    fn metric(self) -> Option<(&'static str, f64)> {
        Some(match self {
            Layer::NextStatus => ("vehicle.next_status_ns", 1.0),
            Layer::Encode => ("types.status_encode_ns", 1.0),
            Layer::DsrcSend => ("net.dsrc_send_ns", 1.0),
            Layer::Produce => ("stream.produce_ns", 1.0),
            Layer::RunBatch => return None,
            Layer::Publish => ("rsu.publish_warning_ns", 1.0),
            Layer::Export => ("rsu.export_summaries_us", 1e3),
            Layer::LinkTransmit => ("net.link_transmit_ns", 1.0),
            Layer::ReceiveSummary => ("rsu.receive_summary_ns", 1.0),
            Layer::OutPoll => ("stream.out_poll_us", 1e3),
            Layer::WarningDecode => ("types.warning_decode_ns", 1.0),
        })
    }
}

/// Per-layer stopwatch for one cycle; free when off.
struct Laps {
    on: bool,
    ns: [f64; Layer::COUNT],
    calls: [usize; Layer::COUNT],
    last_ns: f64,
}

impl Laps {
    fn new(on: bool) -> Self {
        Laps { on, ns: [0.0; Layer::COUNT], calls: [0; Layer::COUNT], last_ns: 0.0 }
    }

    /// Runs `f`, charging its wall time and `calls` calls to `layer`.
    fn time<R>(&mut self, layer: Layer, calls: usize, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.last_ns = t.elapsed().as_nanos() as f64;
        self.ns[layer as usize] += self.last_ns;
        self.calls[layer as usize] += calls;
        r
    }

    /// Per-call layer samples, and the share of the cycle no layer call
    /// covers (`trace.residual_pct`).
    fn record(&self, wall_ns: f64, samples: &mut Samples) {
        for layer in Layer::ALL {
            let i = layer as usize;
            if let (Some((name, divisor)), true) = (layer.metric(), self.calls[i] > 0) {
                push(samples, name, self.ns[i] / self.calls[i] as f64 / divisor);
            }
        }
        let covered: f64 = self.ns.iter().sum();
        push(samples, "trace.residual_pct", (wall_ns - covered) / wall_ns * 100.0);
    }
}

/// 64-bit FNV-1a: a digest that repeats from run to run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handover_groups_trade_places_every_period() {
        let w = Workload::Handover;
        assert_eq!(station_of(w, 0, 0), 0);
        assert_eq!(station_of(w, 511, 0), 1);
        assert_eq!(station_of(w, 0, HANDOVER_EVERY), 1);
        assert_eq!(station_of(w, 511, HANDOVER_EVERY), 0);
        assert_eq!(station_of(Workload::DenseFleet, 2047, 7), 0);
    }

    #[test]
    fn counts_charge_a_lost_record_as_a_failed_operation() {
        let ok = Counts {
            produced: 10,
            batch_records: 10,
            detected: 10,
            batches: 1,
            published: 2,
            polls: 1,
            delivered: 2,
            ..Counts::default()
        };
        assert!(ok.conserved());
        assert_eq!((ok.attempted(), ok.failed()), (14, 0));
        let lost = Counts { detected: 9, undecodable: 1, ..ok.clone() };
        assert!(lost.conserved());
        assert_eq!(lost.failed(), 1);
        let dropped = Counts { batch_records: 9, detected: 9, ..ok };
        assert!(!dropped.conserved());
    }
}
