//! Supervised checkpoint/restart for long GCR-DD solves.
//!
//! A production propagator solve runs for hours across hundreds of ranks;
//! §9's scaling argument only pays off if a single rank death does not
//! discard the accumulated Krylov progress. This module holds the pieces
//! the shared launch body of [`solve_wilson`](crate::solve_wilson) and
//! [`solve_staggered`](crate::solve_staggered) threads through a request
//! that carries a [`SupervisorConfig`]:
//!
//! * [`CheckpointingMonitor`] rides the [`SolveMonitor`] hooks of
//!   [`gcr_monitored`](lqcd_solvers::gcr_monitored): at every
//!   high-precision restart boundary — the only points where the implicit
//!   solution update has been applied and the true residual recomputed,
//!   i.e. the only *consistent* states — it snapshots the current
//!   solution (always stored in double precision, whatever rung produced
//!   it) plus a [`SolveCheckpointMeta`] record into a per-rank
//!   [`CheckpointStore`]. The same monitor runs the [`SolveWatchdog`]
//!   health checks each outer iteration, and without a store it is
//!   watchdog-only.
//! * The supervisor loop in `core::drivers`, one for both operators:
//!   when any rank fails — watchdog trip, injected rank death, deadline
//!   timeout — it tears the world down (the panic-safe
//!   `run_world_fallible` path already guarantees every peer unwinds),
//!   waits out an exponential backoff, rebuilds the world, restores the
//!   newest checkpoint generation *common to all ranks*
//!   ([`common_generation`]), and resumes the solve from that guess.
//!   Restart attempts are bounded by [`SupervisorConfig::max_restarts`].
//!   Only GCR-DD writes checkpoints: multi-shift CG cannot restart
//!   (§8.2), so a supervised staggered relaunch finds no common
//!   generation and re-solves from zero.
//!
//! Consistency note: checkpoint generations align across ranks because
//! they are written at collective restart boundaries — every rank passes
//! generation *g*'s write before any rank can reach generation *g + 1*.
//! A death mid-write can still leave ranks one generation apart (or with
//! a torn file, which [`CheckpointStore::valid_generations`] rejects by
//! checksum), which is why resume uses the newest *common valid*
//! generation rather than each rank's own latest. Mathematically any
//! consistent guess resumes correctly — GCR converges to the unique
//! solution from any starting vector — so the common generation is a
//! convergence optimisation and a determinism aid, not a correctness
//! requirement.

use crate::drivers::LadderChoice;
use crate::problem::WilsonProblem;
use lqcd_comms::{Communicator, SharedComm};
use lqcd_dirac::wilson::SpinorField;
use lqcd_dirac::WilsonCloverOp;
use lqcd_field::snapshot::{decode_field_into, encode_field};
use lqcd_lattice::{Parity, ProcessGrid};
use lqcd_solvers::spaces::EoWilsonSpace;
use lqcd_solvers::{SolveMonitor, SolveStats, SolveWatchdog, WatchdogConfig};
use lqcd_util::checkpoint::{ByteReader, Checkpoint, CheckpointStore};
use lqcd_util::{trace, Error, Result};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Format version of the solve-checkpoint metadata record.
const META_VERSION: u8 = 1;

/// Everything needed to decide whether a checkpoint may seed a resume:
/// which run it belongs to (seed, volume, grid shape, rank) and where the
/// solve stood when it was written.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveCheckpointMeta {
    /// Monotonic checkpoint generation (1-based).
    pub generation: u64,
    /// Writing rank.
    pub rank: u32,
    /// Precision rung the solve was on (see [`rung_code`]).
    pub rung: u8,
    /// Outer iterations completed at the write.
    pub iterations: u64,
    /// High-precision restarts completed at the write.
    pub restarts: u64,
    /// True relative residual at the write.
    pub residual: f64,
    /// Problem master seed.
    pub seed: u64,
    /// Global lattice extents.
    pub global: [u32; 4],
    /// Process-grid shape.
    pub grid: [u32; 4],
}

/// Stable wire encoding of a precision rung.
pub fn rung_code(rung: LadderChoice) -> u8 {
    match rung {
        LadderChoice::Half => 2,
        LadderChoice::Single => 4,
        LadderChoice::Double => 8,
    }
}

impl SolveCheckpointMeta {
    /// The identity of `rank`'s part of a run, before any checkpoint:
    /// generation, progress and rung are filled in at each write.
    fn template(problem: &WilsonProblem, grid: &ProcessGrid, rank: usize) -> Self {
        SolveCheckpointMeta {
            generation: 0,
            rank: rank as u32,
            rung: 0,
            iterations: 0,
            restarts: 0,
            residual: f64::NAN,
            seed: problem.seed,
            global: problem.global.0.map(|d| d as u32),
            grid: grid.shape.0.map(|d| d as u32),
        }
    }

    /// Serialize to the little-endian wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 8 + 4 + 1 + 8 + 8 + 8 + 8 + 16 + 16);
        out.push(META_VERSION);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.push(self.rung);
        out.extend_from_slice(&self.iterations.to_le_bytes());
        out.extend_from_slice(&self.restarts.to_le_bytes());
        out.extend_from_slice(&self.residual.to_bits().to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        for d in self.global {
            out.extend_from_slice(&d.to_le_bytes());
        }
        for d in self.grid {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out
    }

    /// Decode from the wire format; `what` names the source in errors.
    pub fn decode(bytes: &[u8], what: &str) -> Result<Self> {
        let mut r = ByteReader::new(bytes, what);
        let version = r.take(1)?[0];
        if version != META_VERSION {
            return Err(Error::Corrupt {
                what: what.to_string(),
                detail: format!("unsupported meta version {version}"),
            });
        }
        let generation = r.take_u64()?;
        let rank = r.take_u32()?;
        let rung = r.take(1)?[0];
        let iterations = r.take_u64()?;
        let restarts = r.take_u64()?;
        let residual = r.take_f64()?;
        let seed = r.take_u64()?;
        let mut global = [0u32; 4];
        for d in &mut global {
            *d = r.take_u32()?;
        }
        let mut grid = [0u32; 4];
        for d in &mut grid {
            *d = r.take_u32()?;
        }
        if !r.is_empty() {
            return Err(Error::Corrupt {
                what: what.to_string(),
                detail: format!("{} trailing bytes after meta record", r.remaining()),
            });
        }
        Ok(SolveCheckpointMeta {
            generation,
            rank,
            rung,
            iterations,
            restarts,
            residual,
            seed,
            global,
            grid,
        })
    }

    /// Reject checkpoints written by a different run: wrong seed, volume,
    /// grid shape, or rank. A stale-but-matching checkpoint is fine (it
    /// is just a further-from-converged guess); a mismatched one would
    /// silently seed the wrong linear system.
    pub fn validate(
        &self,
        problem: &WilsonProblem,
        grid: &ProcessGrid,
        rank: u32,
        what: &str,
    ) -> Result<()> {
        let mismatch = |field: &str, got: String, want: String| {
            Err(Error::Corrupt {
                what: what.to_string(),
                detail: format!(
                    "checkpoint {field} mismatch: checkpoint has {got}, run has {want}"
                ),
            })
        };
        if self.seed != problem.seed {
            return mismatch("seed", self.seed.to_string(), problem.seed.to_string());
        }
        let global: Vec<u32> = problem.global.0.iter().map(|&d| d as u32).collect();
        if self.global.as_slice() != global.as_slice() {
            return mismatch("volume", format!("{:?}", self.global), format!("{global:?}"));
        }
        let shape: Vec<u32> = grid.shape.0.iter().map(|&d| d as u32).collect();
        if self.grid.as_slice() != shape.as_slice() {
            return mismatch("grid shape", format!("{:?}", self.grid), format!("{shape:?}"));
        }
        if self.rank != rank {
            return mismatch("rank", self.rank.to_string(), rank.to_string());
        }
        Ok(())
    }
}

/// Names of the sections a solve checkpoint carries.
pub const META_SECTION: &str = "meta";
/// Solution-vector section (always a double-precision field snapshot).
pub const SOLUTION_SECTION: &str = "solution";

/// The monitor every GCR-DD rung threads through `gcr_monitored`:
/// watchdog health checks every outer iteration, a checkpoint every
/// `every`-th high-precision restart. The solution is stored in double
/// precision regardless of the rung that produced it, so a resume can
/// seed any rung.
pub struct CheckpointingMonitor {
    config: WatchdogConfig,
    watchdog: SolveWatchdog,
    store: Option<CheckpointStore>,
    every: usize,
    template: SolveCheckpointMeta,
    next_generation: u64,
    written: usize,
    /// The current rung's last observed iteration and restart count: a
    /// failed rung's progress, which its error does not carry.
    iterations: usize,
    restarts: usize,
}

impl CheckpointingMonitor {
    /// The monitor of `rank`'s part of a solve, and the solution it
    /// resumes from. Checkpoints go to the supervisor's per-rank store
    /// (none without a supervisor); a `resumed` generation is restored
    /// from that store, and numbering continues after it.
    pub(crate) fn for_rank(
        problem: &WilsonProblem,
        grid: &ProcessGrid,
        op: &WilsonCloverOp<f64>,
        rank: usize,
        sup: Option<&SupervisorConfig>,
        resumed: Option<u64>,
    ) -> Result<(Self, Option<SpinorField<f64>>)> {
        let store = sup.map(|s| rank_store(&s.dir, rank, s.keep)).transpose()?;
        let resume = match (&store, resumed) {
            (Some(store), Some(generation)) => {
                Some(restore(store, generation, problem, grid, rank, op)?)
            }
            _ => None,
        };
        let monitor = CheckpointingMonitor {
            config: problem.watchdog,
            watchdog: SolveWatchdog::new("gcr-dd", problem.watchdog),
            store,
            every: sup.map_or(0, |s| s.checkpoint_every),
            template: SolveCheckpointMeta::template(problem, grid, rank),
            next_generation: resumed.map_or(1, |g| g + 1),
            written: 0,
            iterations: 0,
            restarts: 0,
        };
        Ok((monitor, resume))
    }

    /// Arm the monitor for one rung of the ladder: checkpoints record
    /// `rung`, and a fresh watchdog counts `prior` — wall time earlier
    /// rungs and world launches of the same logical solve consumed —
    /// against its wall-clock budget. Checkpoint numbering carries over,
    /// so a later rung never overwrites an earlier rung's generations.
    pub(crate) fn start_rung(&mut self, rung: LadderChoice, prior: Duration) {
        self.watchdog = SolveWatchdog::resumed("gcr-dd", self.config, prior);
        self.template.rung = rung_code(rung);
        self.iterations = 0;
        self.restarts = 0;
    }

    /// Outer iterations and restarts the current rung completed, as
    /// last reported to the monitor hooks.
    pub(crate) fn rung_progress(&self) -> (usize, usize) {
        (self.iterations, self.restarts)
    }

    /// Checkpoints written so far.
    pub(crate) fn written(&self) -> usize {
        self.written
    }

    /// Whether the restart boundary `stats` stands at cuts a checkpoint.
    fn due(&self, stats: &SolveStats) -> bool {
        self.store.is_some() && self.every != 0 && stats.restarts.is_multiple_of(self.every)
    }

    fn write_checkpoint(
        &mut self,
        x64: &SpinorField<f64>,
        stats: &SolveStats,
        rel_residual: f64,
    ) -> Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let _sp = trace::span_arg(
            trace::Track::Checkpoint,
            "checkpoint_write",
            self.next_generation as i64,
        );
        let meta = SolveCheckpointMeta {
            generation: self.next_generation,
            iterations: stats.iterations as u64,
            restarts: stats.restarts as u64,
            residual: rel_residual,
            ..self.template
        };
        let mut ckpt = Checkpoint::new();
        ckpt.insert(META_SECTION, meta.encode());
        ckpt.insert(SOLUTION_SECTION, encode_field(x64));
        store.save(self.next_generation, &ckpt)?;
        self.next_generation += 1;
        self.written += 1;
        Ok(())
    }
}

/// The monitor is precision-agnostic on the outside but must convert the
/// rung's solution vector to f64 for storage, so it is implemented per
/// concrete rung precision (the f64 and f32 operators of the ladder).
macro_rules! impl_checkpointing_monitor {
    ($real:ty) => {
        impl<C: Communicator> SolveMonitor<EoWilsonSpace<$real, SharedComm<C>>>
            for CheckpointingMonitor
        {
            fn observe(&mut self, iteration: usize, rel_residual: f64) -> Result<()> {
                self.iterations = iteration;
                self.watchdog.check(iteration, rel_residual)
            }

            fn at_restart(
                &mut self,
                _space: &mut EoWilsonSpace<$real, SharedComm<C>>,
                x: &SpinorField<$real>,
                stats: &SolveStats,
                rel_residual: f64,
            ) -> Result<()> {
                self.restarts = stats.restarts;
                if !self.due(stats) {
                    return Ok(());
                }
                self.write_checkpoint(&x.cast_body::<f64>(), stats, rel_residual)
            }
        }
    };
}

impl_checkpointing_monitor!(f64);
impl_checkpointing_monitor!(f32);

/// Supervisor policy: where checkpoints live, how often they are cut,
/// and how many restarts to attempt. The watchdog is the problem's own
/// ([`WilsonProblem::watchdog`]), supervised or not.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Checkpoint root; each rank writes under `dir/rankNNN/`.
    pub dir: PathBuf,
    /// World teardown/rebuild attempts after the first (0 = fail fast).
    pub max_restarts: usize,
    /// Base backoff before the first rebuild; doubles per restart.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Checkpoint every this-many high-precision restarts (0 disables).
    pub checkpoint_every: usize,
    /// Checkpoint generations retained per rank.
    pub keep: usize,
}

impl SupervisorConfig {
    /// Defaults suitable for tests: checkpoint every restart, keep 3
    /// generations, up to 3 supervised restarts, 50 ms base backoff.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SupervisorConfig {
            dir: dir.into(),
            max_restarts: 3,
            backoff: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            checkpoint_every: 1,
            keep: 3,
        }
    }
}

/// This rank's checkpoint store under the supervisor root.
fn rank_store(dir: &Path, rank: usize, keep: usize) -> Result<CheckpointStore> {
    CheckpointStore::new(dir.join(format!("rank{rank:03}")), keep)
}

/// The newest checkpoint generation that is valid (checksum-verified) on
/// *every* rank, or `None` when any rank lacks one. Runs on the
/// supervisor thread between world launches, so plain filesystem access —
/// no communicator needed.
pub fn common_generation(dir: &Path, num_ranks: usize, keep: usize) -> Option<u64> {
    let mut common: Option<Vec<u64>> = None;
    for rank in 0..num_ranks {
        let store = rank_store(dir, rank, keep).ok()?;
        let valid = store.valid_generations();
        common = Some(match common {
            None => valid,
            Some(prev) => prev.into_iter().filter(|g| valid.contains(g)).collect(),
        });
    }
    common.and_then(|gens| gens.into_iter().max())
}

/// Restore `rank`'s solution from checkpoint `generation` of `store`,
/// after checking the checkpoint belongs to this run.
fn restore(
    store: &CheckpointStore,
    generation: u64,
    problem: &WilsonProblem,
    grid: &ProcessGrid,
    rank: usize,
    op: &WilsonCloverOp<f64>,
) -> Result<SpinorField<f64>> {
    let what = store.path_for(generation).display().to_string();
    let ckpt = store.load(generation)?;
    let meta = SolveCheckpointMeta::decode(ckpt.require(META_SECTION)?, &what)?;
    meta.validate(problem, grid, rank as u32, &what)?;
    let mut x = op.alloc(Parity::Odd);
    decode_field_into(ckpt.require(SOLUTION_SECTION)?, &mut x, &what)?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::Dims;

    fn meta() -> SolveCheckpointMeta {
        SolveCheckpointMeta {
            generation: 7,
            rank: 3,
            rung: rung_code(LadderChoice::Single),
            iterations: 120,
            restarts: 4,
            residual: 3.25e-6,
            seed: 20260707,
            global: [8, 8, 8, 8],
            grid: [1, 1, 2, 2],
        }
    }

    #[test]
    fn meta_roundtrips() {
        let m = meta();
        let back = SolveCheckpointMeta::decode(&m.encode(), "test").unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn meta_rejects_truncation_and_trailing_garbage() {
        let bytes = meta().encode();
        for len in 0..bytes.len() {
            assert!(
                matches!(
                    SolveCheckpointMeta::decode(&bytes[..len], "test"),
                    Err(Error::Corrupt { .. })
                ),
                "truncation to {len} bytes must be a structured error"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(SolveCheckpointMeta::decode(&long, "test"), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn meta_validation_pins_the_run_identity() {
        let p = WilsonProblem::small();
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
        let m = meta();
        m.validate(&p, &grid, 3, "test").unwrap();
        // Each identity field is checked independently.
        let mut wrong = m;
        wrong.seed ^= 1;
        assert!(wrong.validate(&p, &grid, 3, "test").is_err());
        let mut wrong = m;
        wrong.global[0] = 16;
        assert!(wrong.validate(&p, &grid, 3, "test").is_err());
        let mut wrong = m;
        wrong.grid = [4, 1, 1, 1];
        assert!(wrong.validate(&p, &grid, 3, "test").is_err());
        assert!(m.validate(&p, &grid, 2, "test").is_err());
    }

    #[test]
    fn common_generation_is_the_intersection_maximum() {
        let dir = std::env::temp_dir().join("lqcd-supervise-common-gen");
        let _ = std::fs::remove_dir_all(&dir);
        // No stores yet: empty intersection.
        assert_eq!(common_generation(&dir, 2, 3), None);
        let mut ckpt = Checkpoint::new();
        ckpt.insert("x", vec![1, 2, 3]);
        let s0 = rank_store(&dir, 0, 3).unwrap();
        let s1 = rank_store(&dir, 1, 3).unwrap();
        // Rank 0 has generations 1 and 2; rank 1 only 1: common max = 1.
        s0.save(1, &ckpt).unwrap();
        s0.save(2, &ckpt).unwrap();
        s1.save(1, &ckpt).unwrap();
        assert_eq!(common_generation(&dir, 2, 3), Some(1));
        // Rank 1 catches up: common max advances.
        s1.save(2, &ckpt).unwrap();
        assert_eq!(common_generation(&dir, 2, 3), Some(2));
        // Corrupting rank 0's generation 2 drops it from the intersection.
        let path = s0.path_for(2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(common_generation(&dir, 2, 3), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
