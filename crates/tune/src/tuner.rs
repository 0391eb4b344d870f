//! The measured-trial search driver and its decision rule.

use crate::cache::{TuneCache, TuneDecision};
use crate::key::TuneKey;
use crate::param::{TuneParam, TuneSpace};
use lqcd_perf::cost::{OpConfig, PartitionGeometry};
use lqcd_perf::{edge, simulate_dslash, OperatorKind, Precision, Recon};
use lqcd_util::trace::{self, MetricsRegistry, Track};
use lqcd_util::{Error, Result};
use serde::Serialize;

/// Alternating rounds each candidate runs against the incumbent.
pub const ROUNDS: usize = 10;

/// Rounds a candidate must win to displace the incumbent.
pub const MIN_WINS: usize = 9;

/// What one round of a candidate measured.
#[derive(Clone, Copy, Debug)]
pub struct TrialOutcome {
    /// Wall seconds per unit of trial work (one dslash apply).
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
    /// Stream-model prior, µs per apply, printed only (`null` when the
    /// scheme cannot factor the world: the candidate is unrunnable and
    /// never measured).
    pub model_us: Option<f64>,
    /// The candidate's rounds against the incumbent, as the decision it
    /// would make (`null` if unrunnable or rejected). The incumbent's
    /// own row holds its median and IQR over every round it ran.
    pub evidence: Option<TuneDecision>,
    /// Rejected by the bitwise-equality guard or a trial failure.
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
    /// Micro-trials actually measured (one per side per round, plus the
    /// two discarded warm-up trials).
    pub trials_run: usize,
    /// The full candidate table, incumbent first (empty on a cache hit).
    pub rows: Vec<TrialRow>,
    /// The decision (freshly measured or cached).
    pub decision: TuneDecision,
}

impl TuneReport {
    /// Render the tuning table for terminal output.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<10} {:>9} {:>10} {:>6} {:>21}  status",
            "candidate", "model µs", "median µs", "wins", "incumbent median/IQR"
        );
        for (i, r) in self.rows.iter().enumerate() {
            let us = |v: Option<f64>| v.map_or("-".into(), |m| format!("{m:.1}"));
            let e = r.evidence.as_ref();
            let (wins, incumbent) = match e {
                Some(e) => (
                    if i > 0 { format!("{}/{}", e.wins, e.rounds) } else { "-".into() },
                    format!("{:.1} / {:.1}", e.default_us, e.default_iqr_us),
                ),
                None => ("-".into(), "-".into()),
            };
            let status = if i == 0 {
                "incumbent"
            } else if r.model_us.is_none() {
                "unrunnable"
            } else if r.rejected {
                "REJECTED"
            } else if r.param == self.decision.param {
                "<= chosen"
            } else if e.is_some_and(TuneDecision::significant) {
                "significant"
            } else {
                "no significant difference"
            };
            let _ = writeln!(
                out,
                "  {:<10} {:>9} {:>10} {:>6} {:>21}  {}",
                r.label,
                us(r.model_us),
                us(e.map(|e| e.tuned_us)),
                wins,
                incumbent,
                status
            );
        }
        out
    }
}

/// The trial protocol and search configuration. The caller's trial
/// closure owns the world and the clock; one call is one round of one
/// side, and is expected to time `applies` units after `warmup` untimed
/// ones, so measurements stay comparable across candidates.
#[derive(Clone, Debug)]
pub struct Tuner {
    /// The hardcoded configuration, the incumbent: it stands unless a
    /// candidate wins significantly.
    pub baseline: TuneParam,
    /// Candidate axes.
    pub space: TuneSpace,
    /// Untimed warmup units before measurement.
    pub warmup: usize,
    /// Trial units per round.
    pub applies: usize,
}

/// Nearest-rank first and third quartiles and the median (mean of the
/// middle pair for even lengths) of a nonempty sample.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = |p: usize| s[(p * n).div_ceil(100).clamp(1, n) - 1];
    let median = if n % 2 == 1 { s[n / 2] } else { 0.5 * (s[n / 2 - 1] + s[n / 2]) };
    (rank(25), median, rank(75))
}

/// The evidence of `param`'s rounds `cand` against the incumbent's
/// rounds `inc` (round by round; a tie wins for neither).
fn evidence(param: TuneParam, cand: &[f64], inc: &[f64], model_us: f64) -> TuneDecision {
    let (q1, median, q3) = quartiles(inc);
    TuneDecision {
        param,
        wins: cand.iter().zip(inc).filter(|(c, i)| c < i).count(),
        rounds: ROUNDS,
        tuned_us: quartiles(cand).1,
        default_us: median,
        default_iqr_us: q3 - q1,
        model_us,
    }
}

impl Tuner {
    /// A tuner around `baseline` over every scheme and worker counts up
    /// to `max_threads`.
    pub fn new(baseline: TuneParam, max_threads: usize) -> Self {
        Tuner { baseline, space: TuneSpace::new(max_threads), warmup: 2, applies: 20 }
    }

    /// Stream-model prior for one candidate, µs per dslash apply:
    /// simulate the Fig. 4 pipeline for the Wilson-clover operator at
    /// double precision (the operator the trial builds) on the
    /// candidate's partition geometry. `None` when the scheme cannot
    /// factor the rank count over the global volume — such candidates
    /// are unrunnable. The prior is printed next to the measurement; it
    /// neither prunes nor orders candidates.
    pub fn model_prior_us(key: &TuneKey, param: &TuneParam) -> Option<f64> {
        let grid = param.scheme.grid(key.global_dims(), key.ranks).ok()?;
        let cfg = OpConfig {
            kind: OperatorKind::WilsonClover,
            precision: Precision::Double,
            recon: Recon::None,
        };
        let sim = simulate_dslash(&edge(), &PartitionGeometry::of(&grid), &cfg);
        Some(sim.total * 1e6)
    }

    /// Tune `key`: consult the cache first (a hit runs zero trials),
    /// otherwise run every runnable candidate against the incumbent for
    /// [`ROUNDS`] rounds, alternating which side runs first, after one
    /// discarded warm-up trial of each side before the first comparison.
    /// A candidate is significant when it wins at least [`MIN_WINS`]
    /// rounds and its median is below the incumbent's by more than the
    /// incumbent's IQR over the same rounds; the significant candidate
    /// with the lowest median displaces the incumbent. Otherwise the
    /// incumbent stands at exactly 1.00× ("no significant difference").
    /// The decision is persisted either way.
    ///
    /// A candidate that fails the bitwise guard or whose trial errors is
    /// rejected and the search continues; a failing *incumbent* aborts
    /// the tune (there is nothing sound to compare against).
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

        // Candidate list: the incumbent first, then the space (deduped).
        let mut candidates = vec![self.baseline];
        for c in self.space.enumerate() {
            if !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        let mut rows: Vec<TrialRow> = candidates
            .iter()
            .map(|c| TrialRow {
                label: c.label(),
                param: *c,
                model_us: Self::model_prior_us(key, c),
                evidence: None,
                rejected: false,
            })
            .collect();
        let base_prior = rows[0].model_us.ok_or_else(|| {
            Error::Config(format!(
                "tune baseline {} cannot run on {}: scheme does not factor the world",
                self.baseline.label(),
                key.cache_key()
            ))
        })?;

        // One round of one side, µs per unit. A guard rejection is an
        // error like a failed trial: it rejects a candidate and aborts
        // the tune when the incumbent fails.
        let mut trials_run = 0usize;
        let mut measure = |idx: usize, metrics: &mut MetricsRegistry| -> Result<f64> {
            trials_run += 1;
            let span = trace::span_arg(Track::Solver, "tune_trial", idx as i64);
            let outcome = trial(&candidates[idx]);
            drop(span);
            metrics.add("tune.trials", 1);
            match outcome {
                Ok(o) if o.bit_identical => Ok(o.secs_per_unit * 1e6),
                Ok(_) => {
                    metrics.add("tune.guard_rejected", 1);
                    trace::instant(Track::Solver, "tune_guard_rejected", idx as i64);
                    Err(Error::Config(format!(
                        "tune candidate {} failed the bitwise guard against the reference path",
                        candidates[idx].label()
                    )))
                }
                Err(e) => {
                    metrics.add("tune.trial_failed", 1);
                    Err(e)
                }
            }
        };

        let mut incumbent_all = Vec::new();
        let mut cold = true;
        for idx in 1..candidates.len() {
            let Some(model_us) = rows[idx].model_us else { continue };
            // A cold process slows whichever side runs first: one
            // discarded round of each side precedes the first comparison.
            if std::mem::take(&mut cold) {
                measure(0, metrics)?;
                if measure(idx, metrics).is_err() {
                    rows[idx].rejected = true;
                    continue;
                }
            }
            let (mut inc, mut cand) = (Vec::new(), Vec::new());
            for round in 0..ROUNDS {
                let incumbent_first = round % 2 == 0;
                if incumbent_first {
                    inc.push(measure(0, metrics)?);
                }
                // A candidate's failure rejects it; the search goes on.
                let Ok(us) = measure(idx, metrics) else {
                    rows[idx].rejected = true;
                    break;
                };
                cand.push(us);
                if !incumbent_first {
                    inc.push(measure(0, metrics)?);
                }
            }
            incumbent_all.extend_from_slice(&inc);
            if !rows[idx].rejected {
                rows[idx].evidence = Some(evidence(candidates[idx], &cand, &inc, model_us));
            }
        }
        // No runnable candidate: the incumbent still runs its rounds, so
        // its guard and its time are on record.
        if incumbent_all.is_empty() {
            for _ in 0..ROUNDS {
                incumbent_all.push(measure(0, metrics)?);
            }
        }
        // The incumbent against itself: no wins, exactly 1.00×.
        let default = evidence(self.baseline, &incumbent_all, &incumbent_all, base_prior);
        rows[0].evidence = Some(default);
        let decision = rows
            .iter()
            .filter_map(|r| r.evidence)
            .filter(TuneDecision::significant)
            .min_by(|a, b| a.tuned_us.total_cmp(&b.tuned_us))
            .unwrap_or(default);

        cache.insert(key, decision);
        cache.save()?;
        metrics.add("tune.decisions", 1);
        Ok(TuneReport { key: key.clone(), cache_hit: false, trials_run, rows, decision })
    }
}
