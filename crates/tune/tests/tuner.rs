//! Tuner search semantics on a synthetic (deterministic) trial
//! function: prior pruning, the bitwise guard, argmin selection with
//! the baseline always measured, cache hits running zero trials, and
//! corruption answered by a successful retune.

use lqcd_lattice::{Dims, PartitionScheme};
use lqcd_tune::{TrialOutcome, TuneCache, TuneKey, TuneParam, Tuner};
use lqcd_util::trace::MetricsRegistry;
use lqcd_util::Error;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lqcd-tuner-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Synthetic cost: XYZT with 4 threads is the planted optimum on the
/// scheme × thread axes; everything else is slower in a deterministic
/// way.
fn synthetic_cost(p: &TuneParam) -> f64 {
    let scheme_cost = match p.scheme {
        PartitionScheme::XYZT => 1.0,
        PartitionScheme::YZT => 1.2,
        PartitionScheme::ZT => 1.5,
        PartitionScheme::T => 2.0,
    };
    let thread_cost = 1.0 + 1.0 / p.interior_threads as f64;
    scheme_cost * thread_cost * 1e-5
}

fn key() -> TuneKey {
    TuneKey::new("wilson_clover/dslash", Dims([8, 8, 8, 8]), 4)
}

/// A dslash tuner with pruning effectively disabled, so every candidate
/// is measured and the planted optimum cannot be dropped on its model
/// prior.
fn exhaustive_tuner() -> Tuner {
    let mut t = Tuner::dslash(TuneParam::baseline(1), 4);
    t.keep = 1024;
    t
}

#[test]
fn picks_the_planted_optimum_and_measures_the_baseline() {
    let path = tmpdir("argmin").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    let mut metrics = MetricsRegistry::new();
    let tuner = exhaustive_tuner();
    let mut calls = 0usize;
    let report = tuner
        .tune(&key(), &mut cache, &mut metrics, |p| {
            calls += 1;
            Ok(TrialOutcome { secs_per_unit: synthetic_cost(p), bit_identical: true })
        })
        .unwrap();

    assert!(!report.cache_hit);
    assert_eq!(report.trials_run, calls);
    let d = &report.decision;
    assert_eq!(d.param.scheme, PartitionScheme::XYZT);
    assert_eq!(d.param.interior_threads, 4);
    // The baseline was measured under the same protocol, so the quoted
    // speedup is a real measured ratio ≥ 1.
    let expected_default = synthetic_cost(&TuneParam::baseline(1)) * 1e6;
    assert!((d.default_us - expected_default).abs() < 1e-9);
    assert!(d.speedup() >= 1.0);
    assert_eq!(metrics.counter("tune.trials"), calls as u64);
    assert_eq!(metrics.counter("tune.cache_misses"), 1);
}

#[test]
fn model_prior_prunes_and_bounds_the_trial_count() {
    let path = tmpdir("prune").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    let mut metrics = MetricsRegistry::new();
    // The dslash space holds 12 candidates (4 schemes × {1, 2, 4}
    // threads); a kept set of 4 must prune some of them.
    let mut tuner = Tuner::dslash(TuneParam::baseline(1), 4);
    tuner.keep = 4;
    let mut calls = 0usize;
    let report = tuner
        .tune(&key(), &mut cache, &mut metrics, |p| {
            calls += 1;
            Ok(TrialOutcome { secs_per_unit: synthetic_cost(p), bit_identical: true })
        })
        .unwrap();
    assert!(calls <= tuner.keep + 1, "prior pruning must bound the trial count");
    assert!(metrics.counter("tune.pruned") > 0);
    assert!(report.rows.iter().any(|r| r.pruned && r.measured_us.is_none()));
    // The winner is still the argmin of what was measured, baseline
    // included, so the quoted speedup stays a real measured ratio ≥ 1.
    assert!(report.decision.speedup() >= 1.0);
}

#[test]
fn guard_rejects_fast_but_wrong_candidates() {
    let path = tmpdir("guard").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    let mut metrics = MetricsRegistry::new();
    let tuner = exhaustive_tuner();
    // The planted optimum claims an absurdly fast time but fails the
    // bitwise guard; the tuner must not choose it.
    let report = tuner
        .tune(&key(), &mut cache, &mut metrics, |p| {
            let wrong = p.scheme == PartitionScheme::XYZT && p.interior_threads == 4;
            Ok(TrialOutcome {
                secs_per_unit: if wrong { 1e-12 } else { synthetic_cost(p) },
                bit_identical: !wrong,
            })
        })
        .unwrap();
    let d = &report.decision;
    assert!(
        !(d.param.scheme == PartitionScheme::XYZT && d.param.interior_threads == 4),
        "guard-rejected candidate was chosen: {}",
        d.param.label()
    );
    assert!(metrics.counter("tune.guard_rejected") > 0);
    assert!(report.rows.iter().any(|r| r.rejected));
}

#[test]
fn second_run_hits_the_cache_with_zero_trials_and_identical_decision() {
    let path = tmpdir("warm").join("cache.json");
    let mut metrics = MetricsRegistry::new();
    let tuner = Tuner::dslash(TuneParam::baseline(1), 4);

    let mut cold_cache = TuneCache::empty(&path);
    let cold = tuner
        .tune(&key(), &mut cold_cache, &mut metrics, |p| {
            Ok(TrialOutcome { secs_per_unit: synthetic_cost(p), bit_identical: true })
        })
        .unwrap();

    // Fresh process equivalent: reopen from disk, trial closure must
    // never be called.
    let mut warm_cache = TuneCache::open(&path).unwrap();
    let warm = tuner
        .tune(&key(), &mut warm_cache, &mut metrics, |_| -> lqcd_util::Result<TrialOutcome> {
            panic!("cache hit must run zero micro-trials")
        })
        .unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.trials_run, 0);
    assert_eq!(warm.decision, cold.decision);
    assert_eq!(metrics.counter("tune.cache_hits"), 1);
}

#[test]
fn corrupt_cache_is_a_structured_error_then_a_clean_retune() {
    let path = tmpdir("retune").join("cache.json");
    let tuner = Tuner::dslash(TuneParam::baseline(1), 4);
    let mut metrics = MetricsRegistry::new();
    let mut cache = TuneCache::empty(&path);
    let cold = tuner
        .tune(&key(), &mut cache, &mut metrics, |p| {
            Ok(TrialOutcome { secs_per_unit: synthetic_cost(p), bit_identical: true })
        })
        .unwrap();

    // Corrupt the file on disk.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    match TuneCache::open(&path) {
        Err(Error::Corrupt { what, .. }) => assert!(what.contains("cache.json")),
        other => panic!("expected structured corruption, got {other:?}"),
    }

    // The retune path: start from an explicit empty cache at the same
    // path, tune again, and the file is healthy afterwards.
    let mut fresh = TuneCache::empty(&path);
    let redo = tuner
        .tune(&key(), &mut fresh, &mut metrics, |p| {
            Ok(TrialOutcome { secs_per_unit: synthetic_cost(p), bit_identical: true })
        })
        .unwrap();
    assert_eq!(redo.decision.param, cold.decision.param);
    let healthy = TuneCache::open(&path).unwrap();
    assert_eq!(healthy.lookup(&key()).unwrap().param, cold.decision.param);
}

#[test]
fn trial_errors_on_candidates_reject_but_do_not_abort() {
    let path = tmpdir("trialerr").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    let mut metrics = MetricsRegistry::new();
    let tuner = exhaustive_tuner();
    let report = tuner
        .tune(&key(), &mut cache, &mut metrics, |p| {
            if p.scheme == PartitionScheme::XYZT {
                Err(Error::Config("synthetic trial failure".into()))
            } else {
                Ok(TrialOutcome { secs_per_unit: synthetic_cost(p), bit_identical: true })
            }
        })
        .unwrap();
    assert_ne!(report.decision.param.scheme, PartitionScheme::XYZT);
    assert!(metrics.counter("tune.trial_failed") > 0);
}
