//! The benchmark's own logic: determinism of a seed, seed sensitivity,
//! failure accounting, and the traced run's cross-checks. Each test drives a
//! few dozen real cycles.

use rsubench::rig::{run_rep, Mode, RepOutcome, Workload, FUSE_WITH, HANDOVER_EVERY};
use rsubench::{Report, Spec};

const CYCLES: usize = 6 * HANDOVER_EVERY;

fn rep(workload: Workload, seed: u64, mode: Mode, garbage: bool) -> RepOutcome {
    run_rep(workload, seed, CYCLES, mode, garbage).expect("small corpus trains")
}

fn spec(workload: Workload, seed: u64, trace: bool) -> Spec {
    Spec { workload, seed, seconds: 0.0, trace }
}

#[test]
fn one_seed_gives_identical_counts_and_digests() {
    for workload in [Workload::PaperFleet, Workload::Handover] {
        let (a, b) = (rep(workload, 7, Mode::Plain, false), rep(workload, 7, Mode::Plain, false));
        assert_eq!(a.counts, b.counts, "{workload:?}");
        assert_eq!(a.digest, b.digest, "{workload:?}");
        assert!(a.counts.conserved() && a.counts.failed() == 0, "{workload:?}: {:?}", a.counts);
        assert!(a.counts.delivered > 0, "{workload:?}: the fleet saw warnings");
    }
}

#[test]
fn another_seed_changes_the_digest_and_still_conserves() {
    let a = rep(Workload::Handover, 7, Mode::Plain, false);
    let b = rep(Workload::Handover, 8, Mode::Plain, false);
    assert_ne!(a.digest, b.digest);
    assert!(b.counts.conserved(), "{:?}", b.counts);
    assert_eq!(b.counts.failed(), 0);
    assert!(b.counts.summaries_fused > 0, "handover cycles fused summaries");
    assert_eq!(b.counts.summaries_fused, b.counts.summaries_sent);
}

#[test]
fn a_garbage_record_is_a_failed_operation_not_a_silent_drop() {
    let clean = rep(Workload::PaperFleet, 7, Mode::Plain, false);
    let dirty = rep(Workload::PaperFleet, 7, Mode::Plain, true);
    // The RSU skips the record without counting it; the benchmark does not.
    assert_eq!(dirty.counts.batch_records, clean.counts.batch_records + 1);
    assert_eq!(dirty.counts.detected, clean.counts.detected);
    assert!(dirty.counts.conserved(), "{:?}", dirty.counts);
    assert_eq!(dirty.counts.failed(), 1);

    let report = Report::new(&spec(Workload::PaperFleet, 7, false), &[dirty]);
    let share = report.extra.iter().find(|m| m.name == "failed_ops_share").and_then(|m| m.value);
    assert!(share.is_some_and(|s| s > 0.0), "{share:?}");
    assert!(!report.correct());
    assert!(report.final_json().starts_with("{\"correct\":false,"));
}

#[test]
fn traced_repetition_matches_plain_and_its_reference() {
    let plain = rep(Workload::Handover, 9, Mode::Plain, false);
    let traced = rep(Workload::Handover, 9, Mode::Traced, false);
    assert_eq!(plain.digest, traced.digest, "timing the layers must not change outputs");
    assert_eq!(plain.counts, traced.counts);
    assert_eq!(traced.traced_faults, 0, "the one-worker RSU produced the same warnings");
    for name in ["rsu.run_batch_us", "rsu.run_batch_1w_us", "types.status_encode_ns", FUSE_WITH] {
        assert!(traced.samples.contains_key(name), "missing {name}");
    }
    let residual = &traced.samples["trace.residual_pct"];
    assert_eq!(residual.len(), CYCLES);
    assert!(residual.iter().all(|r| (0.0..100.0).contains(r)), "{residual:?}");
}

#[test]
fn obs_instrumentation_does_not_change_outputs() {
    let plain = rep(Workload::PaperFleet, 5, Mode::Plain, false);
    let obs = rep(Workload::PaperFleet, 5, Mode::Obs, false);
    assert_eq!(plain.digest, obs.digest);
    assert_eq!(plain.counts, obs.counts);
}
