//! Tuner decision rule on synthetic (deterministic) trials: each round
//! returns a time the test fixes in advance. A candidate displaces the
//! default only with at least 9 of 10 alternating round wins and a
//! median gap wider than the default's IQR; the warm-up round before the
//! first comparison is discarded; the bitwise guard rejects a
//! fast-but-wrong candidate, a failing default aborts the tune, cache
//! hits run zero trials, and corruption is answered by a clean retune.

use lqcd_lattice::{Dims, PartitionScheme};
use lqcd_tune::{TrialOutcome, TuneCache, TuneKey, TuneParam, Tuner, ROUNDS};
use lqcd_util::trace::MetricsRegistry;
use lqcd_util::{Error, Result};
use std::collections::HashMap;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lqcd-tuner-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn key() -> TuneKey {
    TuneKey::new("wilson_clover/dslash", Dims([8, 8, 8, 8]), 4)
}

/// One thread per rank: the space is the four schemes, ZT the default.
fn tuner() -> Tuner {
    Tuner::new(TuneParam::baseline(1), 1)
}

/// The default's per-round µs: 10 µs with a ±1 % spread.
const DEFAULT_S: [f64; ROUNDS] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95];

/// The tuner's first two calls: the discarded warm-up round (the
/// default, then the first candidate) before its first comparison.
const WARMUP_CALLS: usize = 2;

/// A synthetic trial: round `r` (the r-th call, counted per candidate,
/// modulo the 10 rounds of a comparison) of `scheme` takes
/// `series(scheme, r)` µs; every other scheme ties the default. The
/// warm-up calls take round 0's time and count as no round.
fn trial_with(
    series: impl Fn(PartitionScheme, usize) -> Option<f64>,
) -> impl FnMut(&TuneParam) -> Result<TrialOutcome> {
    let mut warmups = 0;
    let mut calls: HashMap<PartitionScheme, usize> = HashMap::new();
    move |p| {
        let r = if warmups < WARMUP_CALLS {
            warmups += 1;
            0
        } else {
            let n = calls.entry(p.scheme).or_default();
            *n += 1;
            (*n - 1) % ROUNDS
        };
        let us = series(p.scheme, r).unwrap_or(DEFAULT_S[r]);
        Ok(TrialOutcome { secs_per_unit: us * 1e-6, bit_identical: true })
    }
}

fn tune(
    name: &str,
    metrics: &mut MetricsRegistry,
    trial: impl FnMut(&TuneParam) -> Result<TrialOutcome>,
) -> Result<lqcd_tune::TuneReport> {
    let mut cache = TuneCache::empty(tmpdir(name).join("cache.json"));
    tuner().tune(&key(), &mut cache, metrics, trial)
}

#[test]
fn a_candidate_twice_as_fast_displaces_the_default() {
    let mut metrics = MetricsRegistry::new();
    let report = tune(
        "twice",
        &mut metrics,
        trial_with(|s, r| (s == PartitionScheme::XYZT).then_some(0.5 * DEFAULT_S[r])),
    )
    .unwrap();
    let d = report.decision;
    assert_eq!(d.param.scheme, PartitionScheme::XYZT);
    assert_eq!((d.wins, d.rounds), (ROUNDS, ROUNDS));
    assert!(d.significant());
    assert_eq!(d.verdict(), "significant win");
    assert!((d.speedup() - 2.0).abs() < 1e-12, "{}", d.speedup());
    // Three candidates, each 10 rounds of both sides, and the warm-up.
    assert_eq!(report.trials_run, 3 * 2 * ROUNDS + WARMUP_CALLS);
    assert_eq!(metrics.counter("tune.trials"), report.trials_run as u64);
    assert_eq!(metrics.counter("tune.cache_misses"), 1);
    // Ties win no round, so the tying candidates stand at 0 wins.
    for r in &report.rows[1..] {
        let e = r.evidence.unwrap();
        assert_eq!(e.wins, if r.param.scheme == PartitionScheme::XYZT { ROUNDS } else { 0 });
    }
}

#[test]
fn eight_wins_of_ten_do_not_displace_the_default() {
    let mut metrics = MetricsRegistry::new();
    // Twice as fast in 8 rounds, slower in rounds 3 and 7: the median gap
    // is wide, but the candidate won only 8 rounds.
    let report = tune(
        "eight",
        &mut metrics,
        trial_with(|s, r| {
            (s == PartitionScheme::T).then_some(if r == 3 || r == 7 { 11.0 } else { 5.0 })
        }),
    )
    .unwrap();
    let t = report.rows.iter().find(|r| r.param.scheme == PartitionScheme::T).unwrap();
    let e = t.evidence.unwrap();
    assert_eq!(e.wins, 8);
    assert!(e.default_us - e.tuned_us > e.default_iqr_us, "the gap alone would pass");
    let d = report.decision;
    assert_eq!(d.param, TuneParam::baseline(1));
    assert_eq!(d.speedup(), 1.0);
    assert_eq!(d.verdict(), "no significant difference");
}

#[test]
fn faster_every_round_inside_the_default_iqr_does_not_displace_it() {
    let mut metrics = MetricsRegistry::new();
    // 0.05 µs faster in every round, against a 0.1 µs IQR.
    let report = tune(
        "iqr",
        &mut metrics,
        trial_with(|s, r| (s == PartitionScheme::YZT).then_some(DEFAULT_S[r] - 0.05)),
    )
    .unwrap();
    let y = report.rows.iter().find(|r| r.param.scheme == PartitionScheme::YZT).unwrap();
    let e = y.evidence.unwrap();
    assert_eq!(e.wins, ROUNDS);
    assert!((e.default_iqr_us - 0.1).abs() < 1e-9, "IQR {}", e.default_iqr_us);
    assert!(!e.significant());
    assert_eq!(report.decision.param, TuneParam::baseline(1));
    assert_eq!(report.decision.speedup(), 1.0);
}

#[test]
fn a_slow_first_call_on_each_side_is_discarded() {
    // T beats the default by 0.12 µs every round, against its 0.1 µs IQR:
    // a significant displacement. Counted as round 0, a 10× slow first
    // call of each side would widen the default's IQR to 0.15 µs and
    // leave the default standing.
    let series = |s, r: usize| (s == PartitionScheme::T).then_some(DEFAULT_S[r] - 0.12);
    let mut metrics = MetricsRegistry::new();
    let steady = tune("steady", &mut metrics, trial_with(series)).unwrap();
    let mut calls = 0;
    let mut inner = trial_with(series);
    let cold = tune("cold", &mut metrics, |p| {
        calls += 1;
        let o = inner(p)?;
        let slow = if calls <= WARMUP_CALLS { 10.0 } else { 1.0 };
        Ok(TrialOutcome { secs_per_unit: slow * o.secs_per_unit, ..o })
    })
    .unwrap();
    assert_eq!(steady.decision.param.scheme, PartitionScheme::T);
    assert_eq!(cold.decision, steady.decision);
    let wins = |r: &lqcd_tune::TuneReport| {
        r.rows.iter().map(|row| row.evidence.map(|e| e.wins)).collect::<Vec<_>>()
    };
    assert_eq!(wins(&cold), wins(&steady));
}

#[test]
fn guard_rejects_fast_but_wrong_candidates() {
    let mut metrics = MetricsRegistry::new();
    // XYZT claims an absurdly fast time but fails the bitwise guard; the
    // tuner must not choose it.
    let mut inner = trial_with(|_, _| None);
    let report = tune("guard", &mut metrics, |p| {
        if p.scheme == PartitionScheme::XYZT {
            return Ok(TrialOutcome { secs_per_unit: 1e-12, bit_identical: false });
        }
        inner(p)
    })
    .unwrap();
    assert_ne!(report.decision.param.scheme, PartitionScheme::XYZT);
    assert!(metrics.counter("tune.guard_rejected") > 0);
    let x = report.rows.iter().find(|r| r.param.scheme == PartitionScheme::XYZT).unwrap();
    assert!(x.rejected && x.evidence.is_none());
}

#[test]
fn a_failing_default_aborts_the_tune() {
    let mut metrics = MetricsRegistry::new();
    let guard = tune("abort-guard", &mut metrics, |p| {
        let wrong = *p == TuneParam::baseline(1);
        Ok(TrialOutcome { secs_per_unit: 1e-5, bit_identical: !wrong })
    });
    assert!(matches!(guard, Err(Error::Config(m)) if m.contains("bitwise guard")));
    let failed = tune("abort-error", &mut metrics, |p| {
        if *p == TuneParam::baseline(1) {
            Err(Error::Config("synthetic default failure".into()))
        } else {
            Ok(TrialOutcome { secs_per_unit: 1e-5, bit_identical: true })
        }
    });
    assert!(matches!(failed, Err(Error::Config(m)) if m.contains("synthetic")));
}

#[test]
fn trial_errors_on_candidates_reject_but_do_not_abort() {
    let mut metrics = MetricsRegistry::new();
    let mut inner = trial_with(|s, r| (s == PartitionScheme::T).then_some(0.5 * DEFAULT_S[r]));
    let report = tune("trialerr", &mut metrics, |p| {
        if p.scheme == PartitionScheme::XYZT {
            return Err(Error::Config("synthetic trial failure".into()));
        }
        inner(p)
    })
    .unwrap();
    assert_eq!(report.decision.param.scheme, PartitionScheme::T);
    assert!(metrics.counter("tune.trial_failed") > 0);
}

#[test]
fn second_run_hits_the_cache_with_zero_trials_and_identical_decision() {
    let path = tmpdir("warm").join("cache.json");
    let mut metrics = MetricsRegistry::new();
    let half_xyzt = |s, r: usize| (s == PartitionScheme::XYZT).then_some(0.5 * DEFAULT_S[r]);

    let mut cold_cache = TuneCache::empty(&path);
    let cold = tuner().tune(&key(), &mut cold_cache, &mut metrics, trial_with(half_xyzt)).unwrap();

    // Fresh process equivalent: reopen from disk, trial closure must
    // never be called.
    let mut warm_cache = TuneCache::open(&path).unwrap();
    let warm = tuner()
        .tune(&key(), &mut warm_cache, &mut metrics, |_| -> Result<TrialOutcome> {
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
    let mut metrics = MetricsRegistry::new();
    let half_xyzt = |s, r: usize| (s == PartitionScheme::XYZT).then_some(0.5 * DEFAULT_S[r]);
    let mut cache = TuneCache::empty(&path);
    let cold = tuner().tune(&key(), &mut cache, &mut metrics, trial_with(half_xyzt)).unwrap();

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
    let redo = tuner().tune(&key(), &mut fresh, &mut metrics, trial_with(half_xyzt)).unwrap();
    assert_eq!(redo.decision, cold.decision);
    let healthy = TuneCache::open(&path).unwrap();
    assert_eq!(healthy.lookup(&key()), Some(&cold.decision));
}
