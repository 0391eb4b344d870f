//! Benchmark-harness support: table rendering, JSON artifact output, and
//! the paper's reference numbers for side-by-side comparison.
//!
//! The `figures` binary regenerates Figs. 5–10 from the calibrated
//! performance model and prints paper-vs-model tables, then the paper's
//! in-text claims measured by real solves, each with a verdict; `fig4`
//! prints the Fig. 4 stream timeline; criterion benches (`benches/`)
//! measure the real Rust kernels and the ablations called out in
//! DESIGN.md.

use serde::Serialize;
use std::path::PathBuf;

/// Where figure artifacts (JSON series) are written.
pub fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

/// Serialize a figure series to `target/figures/<name>.json`.
pub fn write_artifact<T: Serialize>(name: &str, value: &T) {
    let path = artifact_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
    println!("[artifact] {}", path.display());
}

const USAGE: &str = "usage: <bin> [--trace] [--threads N] [--json PATH]
  --trace      record the flight recorder across the run (bins that
               measure real kernels export TRACE_*.json)
  --threads N  interior worker threads for measured sections
  --json PATH  write the primary JSON artifact to PATH instead of
               target/figures/<name>.json";

/// Command-line arguments every bench binary accepts, parsed one way.
///
/// All three flags parse in every bin; `--trace` and `--threads` only
/// change behaviour in bins with a measured (real-kernel) section —
/// model-only figure bins accept them as no-ops so invocations stay
/// interchangeable across binaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--trace`: enable the flight recorder.
    pub trace: bool,
    /// `--threads N`: interior worker threads for measured sections.
    pub threads: Option<usize>,
    /// `--json PATH`: redirect the primary artifact.
    pub json: Option<PathBuf>,
}

impl BenchArgs {
    /// Parse the process arguments; prints usage and exits on a flag it
    /// does not know.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list (testable core of
    /// [`BenchArgs::parse`]).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> std::result::Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trace" => out.trace = true,
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    let n: usize =
                        v.parse().map_err(|_| format!("--threads: '{v}' is not a number"))?;
                    if n == 0 {
                        return Err("--threads must be positive".into());
                    }
                    out.threads = Some(n);
                }
                "--json" => {
                    let v = it.next().ok_or("--json needs a path")?;
                    out.json = Some(PathBuf::from(v));
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(out)
    }

    /// The interior thread count: `--threads` if given, else `default`.
    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default)
    }

    /// Write the bin's primary artifact: to `--json PATH` when given,
    /// else to the standard `target/figures/<name>.json` location.
    pub fn write_primary<T: Serialize>(&self, name: &str, value: &T) {
        match &self.json {
            Some(path) => {
                let json = serde_json::to_string_pretty(value).expect("serialize artifact");
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir).expect("create artifact dir");
                    }
                }
                std::fs::write(path, json).expect("write artifact");
                println!("[artifact] {}", path.display());
            }
            None => write_artifact(name, value),
        }
    }
}

/// Paper reference points (digitized from the figures; approximate — the
/// axes are log-scale plots). Used for the paper-vs-model columns.
pub mod paper {
    /// Fig. 5, Wilson-clover SP Gflops/GPU at [8, 16, 32, 64, 128, 256].
    pub const FIG5_SP: [(usize, f64); 6] =
        [(8, 128.0), (16, 120.0), (32, 95.0), (64, 60.0), (128, 40.0), (256, 27.0)];
    /// Fig. 5, HP.
    pub const FIG5_HP: [(usize, f64); 6] =
        [(8, 210.0), (16, 195.0), (32, 130.0), (64, 75.0), (128, 47.0), (256, 30.0)];
    /// Fig. 8: (gpus, BiCGstab TTS s, GCR-DD TTS s). GCR-DD improvement
    /// factors 1.52/1.63/1.64 at 64/128/256 are quoted in the text.
    pub const FIG8: [(usize, f64, f64); 4] =
        [(32, 8.5, 9.5), (64, 7.0, 4.6), (128, 6.4, 3.9), (256, 6.2, 3.8)];
    /// Fig. 10 headline numbers: XYZT total Tflops at 64/256 GPUs; the
    /// text quotes 2.56× for 64→256 and 5.49 Tflops at 256.
    pub const FIG10_XYZT: [(usize, f64); 2] = [(64, 2.14), (256, 5.49)];
    /// §9.1: GCR-DD exceeds 10 Tflops at ≥128 GPUs.
    pub const GCR_TFLOPS_AT_128: f64 = 10.0;
    /// §9.2: MILC on Kraken, 942 Gflops at 4096 cores.
    pub const KRAKEN_GFLOPS: f64 = 942.0;
}

/// Render a uniform comparison row.
pub fn row(cols: &[String]) -> String {
    cols.iter().map(|c| format!("{c:>14}")).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_round_trip() {
        #[derive(Serialize)]
        struct Tiny {
            x: i32,
        }
        write_artifact("test_artifact", &Tiny { x: 7 });
        let back = std::fs::read_to_string(artifact_dir().join("test_artifact.json")).unwrap();
        assert!(back.contains("\"x\": 7"));
    }

    #[test]
    fn bench_args_parse_all_flags_and_reject_garbage() {
        let ok = |args: &[&str]| BenchArgs::try_parse(args.iter().map(|s| s.to_string()));
        assert_eq!(ok(&[]).unwrap(), BenchArgs::default());
        let a = ok(&["--trace", "--threads", "3", "--json", "/tmp/x.json"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("/tmp/x.json")));
        assert_eq!(a.threads_or(8), 3);
        assert_eq!(ok(&[]).unwrap().threads_or(8), 8);
        assert!(ok(&["--threads"]).is_err());
        assert!(ok(&["--threads", "zero"]).is_err());
        assert!(ok(&["--threads", "0"]).is_err());
        assert!(ok(&["--json"]).is_err());
        assert!(ok(&["--frobnicate"]).is_err());
    }

    #[test]
    fn paper_constants_sane() {
        assert_eq!(paper::FIG5_SP.len(), 6);
        // The quoted improvement factors hold in the digitized table.
        for (gpus, b, g) in &paper::FIG8[1..] {
            let ratio = b / g;
            assert!((1.4..1.8).contains(&ratio), "{gpus}: {ratio}");
        }
    }
}
