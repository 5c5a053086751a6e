//! End-to-end wall-clock benchmark of the CAD3 RSU pipeline: status records
//! in, warnings out, with a per-layer table from a separate traced run. See
//! `README.md` beside this crate for the metrics and workloads.

pub mod host;
pub mod rig;
pub mod stats;

use host::Stamp;
use rig::{run_rep, Counts, Mode, RepOutcome, Workload, FUSE_WITH, FUSE_WITHOUT};
use std::fmt::Write as _;
use std::time::Instant;

/// The seed whose output digests are recorded in [`expected_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// The traced run's outside-timed layer calls must cover the cycle wall
/// time to within this many percent (median over traced cycles).
pub const RECONCILE_TOLERANCE_PCT: f64 = 10.0;

/// Fewest repetitions in a timed run.
const MIN_REPS: usize = 3;

/// Fewest repetitions a timing median is taken over, when more ran.
const QUIET_REPS: usize = 5;

/// Digest of one repetition's warnings and summaries at [`DEFAULT_SEED`].
pub fn expected_digest(workload: Workload) -> u64 {
    match workload {
        Workload::PaperFleet => 0xe4fc_ec40_fe9f_5398,
        Workload::DenseFleet => 0x8811_4498_0748_8bd9,
        Workload::Handover => 0x3d37_fe74_e0f5_6ff8,
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Seed of the corpus, the fleet and the DSRC draws.
    pub seed: u64,
    /// Measurement time; repetitions start until it is spent.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; `None` when the run has too few samples for it.
    pub value: Option<f64>,
    /// Samples behind the value.
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>, samples: usize) -> Metric {
    Metric { name, unit, value: value.filter(|v| v.is_finite()), samples }
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Host and run stamp.
    pub stamp: Stamp,
    /// What ran.
    pub spec: Spec,
    /// Repetitions run.
    pub reps: usize,
    /// One repetition's accounting (every repetition must match it).
    pub counts: Counts,
    /// One repetition's digest.
    pub digest: u64,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed over all repetitions.
    pub failed: u64,
    /// Named correctness checks; `None` marks a check that does not apply.
    pub checks: Vec<(&'static str, Option<bool>)>,
    /// The end-to-end metrics, from the untraced repetitions.
    pub end_to_end: Vec<Metric>,
    /// Printed beside the end-to-end metrics but not gated.
    pub extra: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

/// Runs repetitions of `spec.workload` until `spec.seconds` are spent
/// (and at least [`MIN_REPS`], or one of each mode when traced).
///
/// # Errors
///
/// Fails when a repetition cannot be set up.
pub fn run(spec: &Spec) -> Result<Report, String> {
    let start = Instant::now();
    let modes: &[Mode] =
        if spec.trace { &[Mode::Plain, Mode::Obs, Mode::Traced] } else { &[Mode::Plain] };
    let min_reps = if spec.trace { modes.len() } else { MIN_REPS };
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < spec.seconds {
        let mode = modes[reps.len() % modes.len()];
        let rep = run_rep(spec.workload, spec.seed, spec.workload.cycles(), mode, false)?;
        eprintln!(
            "rep {:>3} {:<6} steal={:5.1}% p50={:>9.1}us p90={:>9.1}us setup={:.3}s hwm={:.1}MB",
            reps.len(),
            format!("{:?}", rep.mode),
            rep.steal_share * 100.0,
            stats::median(&rep.cycle_ns).unwrap_or(f64::NAN) / 1e3,
            stats::percentile(&rep.cycle_ns, 0.9).unwrap_or(f64::NAN) / 1e3,
            rep.setup_s,
            rep.hwm_mb.unwrap_or(f64::NAN),
        );
        reps.push(rep);
    }
    Ok(Report::new(spec, &reps))
}

impl Report {
    /// Summarises `reps` (all of one workload and seed).
    pub fn new(spec: &Spec, reps: &[RepOutcome]) -> Report {
        let first = &reps[0];
        let attempted = reps.iter().map(|r| r.counts.attempted()).sum::<u64>();
        let failed = reps.iter().map(|r| r.counts.failed()).sum::<u64>();

        // Each repetition yields one value per metric and the run reports
        // their median over the quietest repetitions (see `quiet`), so
        // repetitions that shared the host with other work do not move it.
        let plain = quiet(reps, Mode::Plain);
        let per_rep = |f: &dyn Fn(&RepOutcome) -> Option<f64>| -> Option<f64> {
            let values: Option<Vec<f64>> = plain.iter().map(|r| f(r)).collect();
            values.and_then(|v| stats::median_of_reps(&v))
        };
        let rate = |r: &RepOutcome| {
            let s = r.cycle_ns.iter().sum::<f64>() / 1e9;
            (s > 0.0).then(|| r.timed_records as f64 / s)
        };
        let us =
            |p: f64| move |r: &RepOutcome| stats::percentile(&r.cycle_ns, p).map(|ns| ns / 1e3);
        let cycles: Vec<f64> = plain.iter().flat_map(|r| r.cycle_ns.iter().copied()).collect();
        let (n, reps_n) = (cycles.len(), plain.len());
        let end_to_end = vec![
            metric("records_per_s", "rec/s", per_rep(&rate), n),
            metric("batch_p50_us", "us", per_rep(&us(0.5)), n),
            metric("batch_p90_us", "us", per_rep(&us(0.9)), n),
            // Later repetitions reuse the heap the earlier ones freed, so
            // only the first, in a fresh process, measures one repetition's
            // footprint.
            metric("peak_rss_mb", "MB", first.hwm_mb, 1),
            metric("setup_s", "s", per_rep(&|r| Some(r.setup_s)), reps_n),
        ];
        let steal: Vec<f64> = reps.iter().map(|r| r.steal_share * 100.0).collect();
        let extra = vec![
            metric("batch_p99_us", "us", stats::percentile(&cycles, 0.99).map(|ns| ns / 1e3), n),
            metric(
                "failed_ops_share",
                "ratio",
                Some(failed as f64 / attempted.max(1) as f64),
                reps.len(),
            ),
            metric("host_steal_pct", "%", per_rep(&|r| Some(r.steal_share * 100.0)), reps_n),
            metric("host_steal_all_pct", "%", stats::median_of_reps(&steal), reps.len()),
        ];

        let per_layer = if spec.trace { per_layer(reps) } else { Vec::new() };
        let residual =
            per_layer.iter().find(|m| m.name == "trace.residual_pct").and_then(|m| m.value);
        let traced_faults: u64 = reps.iter().map(|r| r.traced_faults).sum();
        let checks = vec![
            ("conservation", Some(reps.iter().all(|r| r.counts.conserved()))),
            ("no_failed_ops", Some(failed == 0)),
            (
                "repetitions_agree",
                Some(reps.iter().all(|r| r.counts == first.counts && r.digest == first.digest)),
            ),
            (
                "default_seed_digest",
                (spec.seed == DEFAULT_SEED).then(|| first.digest == expected_digest(spec.workload)),
            ),
            ("one_worker_reference_agrees", spec.trace.then_some(traced_faults == 0)),
            (
                "layers_reconcile",
                spec.trace.then(|| residual.is_some_and(|r| r.abs() <= RECONCILE_TOLERANCE_PCT)),
            ),
            (
                "metrics_complete",
                Some(
                    end_to_end.iter().chain(&per_layer).all(|m| m.value.is_some())
                        && !cycles.is_empty(),
                ),
            ),
        ];
        Report {
            stamp: Stamp::collect(spec.seed, spec.workload.cycles()),
            spec: spec.clone(),
            reps: reps.len(),
            counts: first.counts.clone(),
            digest: first.digest,
            attempted,
            failed,
            checks,
            end_to_end,
            extra,
            per_layer,
        }
    }

    /// Whether every applicable check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| ok.unwrap_or(true))
    }

    /// The metrics the final line carries: per-layer when traced, else
    /// end-to-end.
    pub fn gated(&self) -> &[Metric] {
        if self.spec.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// A human-readable table.
    pub fn table(&self) -> String {
        let s = &self.stamp;
        let mut t = String::new();
        let _ = writeln!(
            t,
            "# rsubench {} ({}) seed={} cycles/rep={} reps={} | nproc={} cpu=\"{}\" {} commit={}",
            self.spec.workload.name(),
            if self.spec.trace { "traced" } else { "timed" },
            s.seed,
            s.cycles_per_rep,
            self.reps,
            s.nproc,
            s.cpu_model,
            s.rustc,
            s.git_commit,
        );
        for m in self.gated().iter().chain(if self.spec.trace { &[][..] } else { &self.extra }) {
            let value = m.value.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.3}"));
            let _ = writeln!(t, "  {:<28} {:>16} {:<6} n={}", m.name, value, m.unit, m.samples);
        }
        for (name, ok) in &self.checks {
            let verdict = match ok {
                Some(true) => "ok",
                Some(false) => "FAILED",
                None => "n/a",
            };
            let _ = writeln!(t, "  check {name:<30} {verdict}");
        }
        let _ = write!(
            t,
            "  digest {:016x} attempted={} failed={}",
            self.digest, self.attempted, self.failed
        );
        t
    }

    /// The full record as one JSON line: stamp, every metric with its
    /// sample count, counts and checks.
    pub fn record_json(&self) -> String {
        let s = &self.stamp;
        let c = &self.counts;
        let metrics: Vec<String> = self
            .end_to_end
            .iter()
            .chain(&self.extra)
            .chain(&self.per_layer)
            .map(|m| {
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{},\"samples\":{}}}",
                    m.name,
                    m.unit,
                    m.value.map_or_else(|| "null".to_owned(), |v| v.to_string()),
                    m.samples
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, ok)| {
                format!("\"{name}\":{}", ok.map_or_else(|| "null".to_owned(), |b| b.to_string()))
            })
            .collect();
        format!(
            "{{\"stamp\":{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\"seed\":{},\"cycles_per_rep\":{}}},\
             \"workload\":\"{}\",\"traced\":{},\"reps\":{},\"digest\":\"{:016x}\",\
             \"counts\":{{\"produced\":{},\"undecodable\":{},\"batch_records\":{},\"detected\":{},\"batches\":{},\
             \"published\":{},\"polls\":{},\"delivered\":{},\"summaries_sent\":{},\"summaries_fused\":{},\
             \"errors\":{},\"in_data_retained\":{}}},\"checks\":{{{}}},\"metrics\":[{}]}}",
            s.nproc,
            json_str(&s.cpu_model),
            json_str(s.rustc),
            json_str(&s.git_commit),
            s.seed,
            s.cycles_per_rep,
            self.spec.workload.name(),
            self.spec.trace,
            self.reps,
            self.digest,
            c.produced,
            c.undecodable,
            c.batch_records,
            c.detected,
            c.batches,
            c.published,
            c.polls,
            c.delivered,
            c.summaries_sent,
            c.summaries_fused,
            c.errors,
            c.in_data_retained,
            checks.join(","),
            metrics.join(","),
        )
    }

    /// The last line of output: `correct`, `attempted`, `failed` and the
    /// gated metrics by name.
    pub fn final_json(&self) -> String {
        let metrics: Vec<String> = self
            .gated()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    m.value.map_or_else(|| "null".to_owned(), |v| v.to_string()),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The repetitions in `mode` whose steal share is within one percentage
/// point of the quietest one's, or else the [`QUIET_REPS`] quietest.
///
/// Steal inflates p90 by about 2% per percentage point on the 2-vCPU host
/// this was written on. A median over a fixed share of the repetitions
/// still averages in contended ones when most of a run is contended; the
/// few quietest do not.
fn quiet(reps: &[RepOutcome], mode: Mode) -> Vec<&RepOutcome> {
    let mut of_mode: Vec<&RepOutcome> = reps.iter().filter(|r| r.mode == mode).collect();
    // A stable sort keeps run order among equally quiet repetitions.
    of_mode.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let floor = of_mode.first().map_or(0.0, |r| r.steal_share) + 0.01;
    let keep = of_mode.iter().take_while(|r| r.steal_share <= floor).count();
    of_mode.truncate(keep.max(QUIET_REPS));
    of_mode
}

/// The per-layer table from the quietest traced, obs-enabled and plain
/// repetitions.
fn per_layer(reps: &[RepOutcome]) -> Vec<Metric> {
    let traced = quiet(reps, Mode::Traced);
    let samples = |name: &str| -> Vec<f64> {
        traced.iter().flat_map(|r| r.samples.get(name).into_iter().flatten().copied()).collect()
    };
    let timing = |name: &'static str, unit: &'static str| {
        let s = samples(name);
        metric(name, unit, stats::median(&s), s.len())
    };
    // Median over repetitions of each repetition's cycle p50.
    let p50 = |mode: Mode| -> (Option<f64>, usize) {
        let reps = quiet(reps, mode);
        let p50s: Option<Vec<f64>> = reps.iter().map(|r| stats::median(&r.cycle_ns)).collect();
        (p50s.and_then(|v| stats::median_of_reps(&v)), reps.iter().map(|r| r.cycle_ns.len()).sum())
    };
    let (plain, _) = p50(Mode::Plain);
    // Percent change of a mode's cycle p50 against the plain repetitions'.
    let overhead = |name: &'static str, mode: Mode| {
        let (other, n) = p50(mode);
        metric(name, "%", other.zip(plain).map(|(o, p)| (o / p - 1.0) * 100.0), n)
    };
    let (with, without) = (samples(FUSE_WITH), samples(FUSE_WITHOUT));
    let fuse = stats::median(&with).zip(stats::median(&without)).map(|(w, wo)| w - wo);
    let c = &reps[0].counts;
    let count = |name: &'static str, value: u64| metric(name, "count", Some(value as f64), 1);

    vec![
        timing("vehicle.next_status_ns", "ns"),
        timing("types.status_encode_ns", "ns"),
        timing("net.dsrc_send_ns", "ns"),
        timing("stream.produce_ns", "ns"),
        timing("rsu.run_batch_us", "us"),
        timing("rsu.run_batch_1w_us", "us"),
        timing("rsu.run_batch_residual_us", "us"),
        timing("engine.executor_run_us", "us"),
        timing("types.status_decode_ns", "ns"),
        timing("detector.detect_batch_ns", "ns"),
        timing("rsu.publish_warning_ns", "ns"),
        timing("stream.out_poll_us", "us"),
        timing("types.warning_decode_ns", "ns"),
        timing("types.warning_codec_ns", "ns"),
        timing("rsu.export_summaries_us", "us"),
        timing("net.link_transmit_ns", "ns"),
        timing("rsu.receive_summary_ns", "ns"),
        timing("types.summary_codec_ns", "ns"),
        metric("rsu.fuse_us", "us", fuse, with.len()),
        overhead("obs.overhead_pct", Mode::Obs),
        overhead("trace.overhead_pct", Mode::Traced),
        timing("trace.residual_pct", "%"),
        count("rsu.records_detected", c.detected),
        count("rsu.warnings", c.delivered),
        count("rsu.summaries_fused", c.summaries_fused),
        count("stream.in_data_retained", c.in_data_retained),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
