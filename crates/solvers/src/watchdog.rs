//! Numerical-health monitoring for long solves.
//!
//! A production GCR-DD campaign runs for hours; the failure modes that
//! waste that time are rarely clean errors. A NaN from a corrupted ghost
//! zone circulates silently, a stagnating solve burns its whole iteration
//! budget making no progress, and a diverging one actively destroys the
//! solution it started from. The [`SolveWatchdog`] watches the residual
//! stream from inside the outer iteration and converts each of these into
//! a *structured* breakdown ([`BreakdownKind`]) so the caller — the
//! precision ladder or the [`SolveSupervisor`](../../lqcd_core) — can
//! choose the right remedy: escalate precision for stagnation, restore a
//! checkpoint for wall-clock overrun, rebuild the world for rank death.
//!
//! The hooks are expressed as a [`SolveMonitor`] trait so checkpointing
//! (which needs access to the solution vector at restart boundaries) rides
//! the same mechanism; [`gcr_monitored`](crate::gcr_monitored) calls
//! [`SolveMonitor::observe`] once per outer iteration and
//! [`SolveMonitor::at_restart`] after every high-precision restart.
//!
//! Lockstep caveat: `observe` sees *globally reduced* residuals, so the
//! stagnation/divergence/NaN trips fire on the same iteration on every
//! rank of a distributed solve. The wall-clock trip measures each rank's
//! own clock and can in principle fire unevenly; ranks that trip stop
//! communicating, so their peers unwind through the deadline/ARQ path
//! (`Error::Timeout`) — the supervisor treats both identically.

use crate::space::{SolveStats, SolverSpace};
use lqcd_util::{BreakdownKind, Error, Result};
use std::time::{Duration, Instant};

/// Observer hooks threaded through a solver's outer iteration.
///
/// Returning an error from either hook aborts the solve with that error —
/// this is how the watchdog stops a sick solve, and how a checkpointing
/// monitor can surface an unwritable checkpoint directory early.
pub trait SolveMonitor<S: SolverSpace> {
    /// Called once per outer iteration with the iterated relative
    /// residual `‖r̂‖/‖b‖` (and once before the first iteration with the
    /// initial true residual).
    fn observe(&mut self, iteration: usize, rel_residual: f64) -> Result<()> {
        let _ = (iteration, rel_residual);
        Ok(())
    }

    /// Called after each high-precision restart: the implicit solution
    /// update has been applied, so `x` is current and `rel_residual` is
    /// the freshly recomputed *true* relative residual.
    fn at_restart(
        &mut self,
        space: &mut S,
        x: &S::V,
        stats: &SolveStats,
        rel_residual: f64,
    ) -> Result<()> {
        let _ = (space, x, stats, rel_residual);
        Ok(())
    }
}

/// The do-nothing monitor (what plain [`crate::gcr()`] uses).
pub struct NullMonitor;

impl<S: SolverSpace> SolveMonitor<S> for NullMonitor {}

/// Tunables for [`SolveWatchdog`]. The defaults are deliberately loose —
/// a watchdog that trips healthy solves is worse than none.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchdogConfig {
    /// Trip [`BreakdownKind::Stagnation`] after this many consecutive
    /// observations without a new best residual (0 disables).
    pub stagnation_window: usize,
    /// Trip [`BreakdownKind::Divergence`] when the residual exceeds the
    /// best seen by this factor (`INFINITY` disables).
    pub divergence_factor: f64,
    /// Trip [`BreakdownKind::WallClock`] when the solve has run longer
    /// than this (`None` disables).
    pub wall_clock: Option<Duration>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { stagnation_window: 500, divergence_factor: 1e4, wall_clock: None }
    }
}

/// Residual-stream health monitor; see the module docs.
#[derive(Clone, Debug)]
pub struct SolveWatchdog {
    config: WatchdogConfig,
    solver: &'static str,
    started: Instant,
    /// Wall time consumed by earlier attempts of the same logical solve
    /// (supervised restarts); counted against the budget alongside this
    /// attempt's own clock.
    consumed: Duration,
    best: f64,
    since_best: usize,
}

impl SolveWatchdog {
    /// A watchdog for `solver` (the name lands in breakdown reports).
    pub fn new(solver: &'static str, config: WatchdogConfig) -> Self {
        Self::resumed(solver, config, Duration::ZERO)
    }

    /// A watchdog resuming a solve that already consumed
    /// `already_elapsed` of its wall-clock budget in earlier attempts —
    /// the budget covers the *logical* solve, not each attempt, so a
    /// supervised restart must not reset the clock.
    pub fn resumed(
        solver: &'static str,
        config: WatchdogConfig,
        already_elapsed: Duration,
    ) -> Self {
        Self {
            config,
            solver,
            started: Instant::now(),
            consumed: already_elapsed,
            best: f64::INFINITY,
            since_best: 0,
        }
    }

    /// Wall time attributed to the logical solve: earlier attempts'
    /// carry plus time since this watchdog's construction.
    pub fn elapsed(&self) -> Duration {
        self.consumed + self.started.elapsed()
    }

    /// Feed one relative residual; errors when a health check trips.
    pub fn check(&mut self, iteration: usize, rel_residual: f64) -> Result<()> {
        let breakdown = |kind: BreakdownKind, detail: String| {
            Err(Error::Breakdown { solver: self.solver, kind, detail })
        };
        if !rel_residual.is_finite() {
            return breakdown(
                BreakdownKind::NonFinite,
                format!("relative residual {rel_residual} at iteration {iteration}"),
            );
        }
        if let Some(budget) = self.config.wall_clock {
            let elapsed = self.elapsed();
            if elapsed > budget {
                return breakdown(
                    BreakdownKind::WallClock,
                    format!(
                        "solve ran {elapsed:?} against a budget of {budget:?} \
                         (iteration {iteration}, |r|/|b| = {rel_residual:.3e})"
                    ),
                );
            }
        }
        if rel_residual < self.best {
            self.best = rel_residual;
            self.since_best = 0;
            return Ok(());
        }
        if self.best.is_finite() && rel_residual > self.config.divergence_factor * self.best {
            return breakdown(
                BreakdownKind::Divergence,
                format!(
                    "|r|/|b| = {rel_residual:.3e} at iteration {iteration} is {:.1e}× the best \
                     {:.3e}",
                    rel_residual / self.best,
                    self.best
                ),
            );
        }
        self.since_best += 1;
        if self.config.stagnation_window > 0 && self.since_best >= self.config.stagnation_window {
            return breakdown(
                BreakdownKind::Stagnation,
                format!(
                    "no residual improvement in {} iterations (best {:.3e}, now {:.3e})",
                    self.since_best, self.best, rel_residual
                ),
            );
        }
        Ok(())
    }
}

impl<S: SolverSpace> SolveMonitor<S> for SolveWatchdog {
    fn observe(&mut self, iteration: usize, rel_residual: f64) -> Result<()> {
        self.check(iteration, rel_residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(r: Result<()>) -> BreakdownKind {
        match r {
            Err(Error::Breakdown { kind, .. }) => kind,
            other => panic!("expected a breakdown, got {other:?}"),
        }
    }

    #[test]
    fn healthy_convergence_never_trips() {
        let mut w = SolveWatchdog::new("test", WatchdogConfig::default());
        for i in 0..1000 {
            let rel = 0.99f64.powi(i as i32);
            w.check(i, rel).unwrap();
        }
        assert!(w.best < 1e-4);
    }

    #[test]
    fn nan_trips_nonfinite() {
        let mut w = SolveWatchdog::new("test", WatchdogConfig::default());
        w.check(0, 1.0).unwrap();
        assert_eq!(kind(w.check(1, f64::NAN)), BreakdownKind::NonFinite);
        let mut w = SolveWatchdog::new("test", WatchdogConfig::default());
        assert_eq!(kind(w.check(0, f64::INFINITY)), BreakdownKind::NonFinite);
    }

    #[test]
    fn plateau_trips_stagnation() {
        let cfg = WatchdogConfig { stagnation_window: 10, ..Default::default() };
        let mut w = SolveWatchdog::new("test", cfg);
        w.check(0, 1e-3).unwrap();
        for i in 1..10 {
            w.check(i, 1e-3).unwrap();
        }
        assert_eq!(kind(w.check(10, 1e-3)), BreakdownKind::Stagnation);
    }

    #[test]
    fn progress_resets_the_stagnation_counter() {
        let cfg = WatchdogConfig { stagnation_window: 5, ..Default::default() };
        let mut w = SolveWatchdog::new("test", cfg);
        let mut rel = 1.0;
        for i in 0..100 {
            // Improve every 4th observation: never 5 stale in a row.
            if i % 4 == 0 {
                rel *= 0.5;
            }
            w.check(i, rel).unwrap();
        }
    }

    #[test]
    fn blowup_trips_divergence() {
        let cfg = WatchdogConfig { divergence_factor: 100.0, ..Default::default() };
        let mut w = SolveWatchdog::new("test", cfg);
        w.check(0, 1e-6).unwrap();
        w.check(1, 1e-5).unwrap(); // 10× worse: tolerated
        assert_eq!(kind(w.check(2, 1e-3)), BreakdownKind::Divergence);
    }

    #[test]
    fn exhausted_budget_trips_wall_clock() {
        let cfg = WatchdogConfig { wall_clock: Some(Duration::ZERO), ..Default::default() };
        let mut w = SolveWatchdog::new("test", cfg);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(kind(w.check(0, 0.5)), BreakdownKind::WallClock);
    }

    #[test]
    fn resumed_watchdog_counts_prior_attempts_against_the_budget() {
        // Regression: the wall-clock budget covers the whole logical
        // solve. A watchdog resumed with carried elapsed time must trip
        // even though *this* attempt just started.
        let cfg = WatchdogConfig { wall_clock: Some(Duration::from_secs(1)), ..Default::default() };
        let mut w = SolveWatchdog::resumed("test", cfg, Duration::from_secs(2));
        assert_eq!(kind(w.check(0, 0.5)), BreakdownKind::WallClock);
        assert!(w.elapsed() >= Duration::from_secs(2));

        // Carry below the budget does not trip.
        let mut fresh = SolveWatchdog::resumed("test", cfg, Duration::from_millis(1));
        fresh.check(0, 0.5).unwrap();

        // `new` is the zero-carry special case.
        let mut zero = SolveWatchdog::new("test", cfg);
        zero.check(0, 0.5).unwrap();
    }

    #[test]
    fn disabled_checks_never_trip() {
        let cfg = WatchdogConfig {
            stagnation_window: 0,
            divergence_factor: f64::INFINITY,
            wall_clock: None,
        };
        let mut w = SolveWatchdog::new("test", cfg);
        for i in 0..10_000 {
            w.check(i, 1.0).unwrap();
        }
        w.check(10_000, 1e300).unwrap();
    }
}
