//! The measured-trial search driver.

use crate::cache::{TuneCache, TuneDecision};
use crate::key::TuneKey;
use crate::param::{LadderChoice, TuneParam, TuneSpace};
use lqcd_perf::cost::{OpConfig, PartitionGeometry};
use lqcd_perf::{edge, simulate_dslash, OperatorKind, Precision, Recon};
use lqcd_util::trace::{self, MetricsRegistry, Track};
use lqcd_util::{Error, Result};
use serde::Serialize;

/// What one micro-trial of a candidate measured.
#[derive(Clone, Copy, Debug)]
pub struct TrialOutcome {
    /// Best-of-N wall seconds per unit of trial work (one dslash apply,
    /// one preconditioned solve — whatever the closure measures).
    pub secs_per_unit: f64,
    /// Whether the candidate's output was bitwise equal to the
    /// reference path. A fast-but-wrong candidate is rejected.
    pub bit_identical: bool,
}

/// One row of the tuning table: a candidate and what happened to it.
#[derive(Clone, Debug, Serialize)]
pub struct TrialRow {
    /// Candidate label ([`TuneParam::label`]).
    pub label: String,
    /// The candidate.
    pub param: TuneParam,
    /// Stream-model prior, µs (`null` when the model rejects the
    /// geometry outright).
    pub model_us: Option<f64>,
    /// Measured µs per trial unit (`null` if pruned/rejected).
    pub measured_us: Option<f64>,
    /// Skipped on the model prior, never measured.
    pub pruned: bool,
    /// Measured but rejected by the bitwise-equality guard or a trial
    /// failure.
    pub rejected: bool,
}

/// Everything one [`Tuner::tune`] call did.
#[derive(Clone, Debug, Serialize)]
pub struct TuneReport {
    /// The key that was tuned.
    pub key: TuneKey,
    /// True when the decision came straight from the cache (zero
    /// micro-trials were run).
    pub cache_hit: bool,
    /// Micro-trials actually measured.
    pub trials_run: usize,
    /// The full candidate table (empty on a cache hit).
    pub rows: Vec<TrialRow>,
    /// The decision (freshly measured or cached).
    pub decision: TuneDecision,
}

impl TuneReport {
    /// Render the tuning table for terminal output.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ =
            writeln!(out, "  {:<28} {:>10} {:>12}  status", "candidate", "model µs", "measured µs");
        for r in &self.rows {
            let model = r.model_us.map_or("-".into(), |m| format!("{m:.1}"));
            let measured = r.measured_us.map_or("-".into(), |m| format!("{m:.1}"));
            let status = if r.pruned {
                "pruned (model prior)"
            } else if r.rejected {
                "REJECTED"
            } else if r.param == self.decision.param {
                "<= chosen"
            } else {
                ""
            };
            let _ = writeln!(out, "  {:<28} {:>10} {:>12}  {}", r.label, model, measured, status);
        }
        out
    }
}

/// The trial protocol and search configuration. The caller's trial
/// closure owns the world and the clock; it is expected to honour
/// `warmup`/`rounds`/`applies` (min-of-`rounds` timing after `warmup`
/// untimed units, `applies` units per round) so measurements stay
/// comparable across candidates.
#[derive(Clone, Debug)]
pub struct Tuner {
    /// The hardcoded configuration trials are compared against; always
    /// measured, so the winner's speedup over it is ≥ 1 by
    /// construction.
    pub baseline: TuneParam,
    /// Candidate axes.
    pub space: TuneSpace,
    /// Candidates kept after model-prior pruning (the baseline is kept
    /// on top of this budget).
    pub keep: usize,
    /// Untimed warmup units before measurement.
    pub warmup: usize,
    /// Timed rounds; the fastest round counts.
    pub rounds: usize,
    /// Trial units per round.
    pub applies: usize,
}

impl Tuner {
    /// A dslash-axis tuner around `baseline` (short trials, small kept
    /// set).
    pub fn dslash(baseline: TuneParam, max_threads: usize) -> Self {
        Tuner {
            baseline,
            space: TuneSpace::dslash(&baseline, max_threads),
            keep: 12,
            warmup: 2,
            rounds: 3,
            applies: 20,
        }
    }

    /// A solver-axis tuner around a (dslash-tuned) `baseline`. Solver
    /// trials are whole preconditioned solves, so fewer and shorter.
    pub fn solver(baseline: TuneParam) -> Self {
        Tuner {
            baseline,
            space: TuneSpace::solver(&baseline),
            keep: 9,
            warmup: 1,
            rounds: 2,
            applies: 1,
        }
    }

    /// Stream-model prior for one candidate, µs per dslash apply:
    /// simulate the Fig. 4 pipeline on the candidate's partition
    /// geometry. `None` when the scheme cannot factor the rank count
    /// over the global volume — such candidates are unrunnable and are
    /// always pruned. Candidates differing only in thread count share a
    /// prior; the measured trials decide between them.
    pub fn model_prior_us(key: &TuneKey, param: &TuneParam) -> Option<f64> {
        let grid = param.scheme.grid(key.global_dims(), key.ranks).ok()?;
        let kind = if key.operator.contains("staggered") || key.operator.contains("asqtad") {
            OperatorKind::Asqtad
        } else if key.operator.contains("clover") {
            OperatorKind::WilsonClover
        } else {
            OperatorKind::Wilson
        };
        let precision = match param.ladder {
            LadderChoice::Double => Precision::Double,
            LadderChoice::Single => Precision::Single,
            LadderChoice::Half => Precision::Half,
        };
        let cfg = OpConfig { kind, precision, recon: Recon::None };
        let sim = simulate_dslash(&edge(), &PartitionGeometry::of(&grid), &cfg);
        Some(sim.total * 1e6)
    }

    /// Tune `key`: consult the cache first (a hit runs zero trials),
    /// otherwise enumerate the space, prune on the model prior, measure
    /// the survivors through `trial`, reject anything that fails the
    /// bitwise guard, pick the argmin, and persist the decision.
    ///
    /// Trial failures on non-baseline candidates reject the candidate
    /// and continue; a failing *baseline* trial aborts the tune (there
    /// is nothing sound to compare against).
    pub fn tune<F>(
        &self,
        key: &TuneKey,
        cache: &mut TuneCache,
        metrics: &mut MetricsRegistry,
        mut trial: F,
    ) -> Result<TuneReport>
    where
        F: FnMut(&TuneParam) -> Result<TrialOutcome>,
    {
        if let Some(d) = cache.lookup(key) {
            metrics.add("tune.cache_hits", 1);
            return Ok(TuneReport {
                key: key.clone(),
                cache_hit: true,
                trials_run: 0,
                rows: Vec::new(),
                decision: *d,
            });
        }
        metrics.add("tune.cache_misses", 1);

        // Candidate list: the baseline first, then the space (deduped).
        let mut candidates = vec![self.baseline];
        for c in self.space.enumerate() {
            if !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        let priors: Vec<Option<f64>> =
            candidates.iter().map(|c| Self::model_prior_us(key, c)).collect();
        let base_prior = priors[0].ok_or_else(|| {
            Error::Config(format!(
                "tune baseline {} cannot run on {}: scheme does not factor the world",
                self.baseline.label(),
                key.cache_key()
            ))
        })?;

        // Prune: keep the `keep` best finite priors (baseline always
        // kept). Order of measurement = ascending prior.
        let mut order: Vec<usize> =
            (1..candidates.len()).filter(|&i| priors[i].is_some()).collect();
        order.sort_by(|&a, &b| priors[a].partial_cmp(&priors[b]).unwrap());
        let kept: Vec<usize> = order.iter().copied().take(self.keep).collect();

        let mut rows: Vec<TrialRow> = candidates
            .iter()
            .zip(&priors)
            .map(|(c, &prior)| TrialRow {
                label: c.label(),
                param: *c,
                model_us: prior,
                measured_us: None,
                pruned: true,
                rejected: false,
            })
            .collect();
        let pruned_count = candidates.len() - 1 - kept.len();
        if pruned_count > 0 {
            metrics.add("tune.pruned", pruned_count as u64);
        }

        let mut measure = |idx: usize,
                           rows: &mut Vec<TrialRow>,
                           metrics: &mut MetricsRegistry|
         -> Result<Option<f64>> {
            rows[idx].pruned = false;
            let span = trace::span_arg(Track::Solver, "tune_trial", idx as i64);
            let outcome = trial(&candidates[idx]);
            drop(span);
            metrics.add("tune.trials", 1);
            match outcome {
                Ok(o) if o.bit_identical => {
                    let us = o.secs_per_unit * 1e6;
                    rows[idx].measured_us = Some(us);
                    Ok(Some(us))
                }
                Ok(_) => {
                    metrics.add("tune.guard_rejected", 1);
                    rows[idx].rejected = true;
                    trace::instant(Track::Solver, "tune_guard_rejected", idx as i64);
                    Ok(None)
                }
                Err(e) => {
                    metrics.add("tune.trial_failed", 1);
                    rows[idx].rejected = true;
                    Err(e)
                }
            }
        };

        let default_us = match measure(0, &mut rows, metrics)? {
            Some(us) => us,
            None => {
                return Err(Error::Config(format!(
                    "tune baseline {} failed the bitwise guard — reference path broken",
                    self.baseline.label()
                )));
            }
        };
        let mut best = (0usize, default_us);
        let mut trials_run = 1usize;
        for &idx in &kept {
            trials_run += 1;
            match measure(idx, &mut rows, metrics) {
                Ok(Some(us)) if us < best.1 => best = (idx, us),
                Ok(_) => {}
                // Non-baseline trial failure: candidate rejected, keep
                // searching.
                Err(_) => {}
            }
        }

        let decision = TuneDecision {
            param: candidates[best.0],
            tuned_us: best.1,
            default_us,
            model_us: priors[best.0].unwrap_or(base_prior),
            trials: trials_run,
        };
        cache.insert(key, decision);
        cache.save()?;
        metrics.add("tune.decisions", 1);
        Ok(TuneReport { key: key.clone(), cache_hit: false, trials_run, rows, decision })
    }
}
