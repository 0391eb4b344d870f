//! Tune-cache persistence contract: write → reload → identical
//! decisions, and every corruption mode (truncation, bit flips, bad
//! magic, stale version) is a structured outcome — never a panic,
//! never a silent stale hit.

use lqcd_lattice::{Dims, PartitionScheme};
use lqcd_tune::cache::VERSION;
use lqcd_tune::{TuneCache, TuneDecision, TuneKey, TuneParam};
use lqcd_util::Error;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lqcd-tune-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn sample_key(ranks: usize) -> TuneKey {
    TuneKey::new("wilson_clover/dslash", Dims([8, 8, 8, 8]), ranks)
}

fn sample_decision(scheme: PartitionScheme, tuned_us: f64) -> TuneDecision {
    TuneDecision {
        param: TuneParam { scheme, interior_threads: 2 },
        wins: 9,
        rounds: 10,
        tuned_us,
        default_us: tuned_us * 1.25,
        default_iqr_us: tuned_us * 0.1,
        model_us: tuned_us * 0.9,
    }
}

#[test]
fn round_trip_reloads_identical_decisions() {
    let path = tmpdir("roundtrip").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    cache.insert(&sample_key(4), sample_decision(PartitionScheme::XYZT, 12.5));
    cache.insert(&sample_key(8), sample_decision(PartitionScheme::ZT, 9.75));
    cache.save().unwrap();

    let back = TuneCache::open(&path).unwrap();
    assert_eq!(back.len(), 2);
    for ranks in [4, 8] {
        let key = sample_key(ranks);
        assert_eq!(back.lookup(&key), cache.lookup(&key), "ranks {ranks}");
    }
    // Full float fidelity survives the JSON round trip.
    let d = back.lookup(&sample_key(4)).unwrap();
    assert_eq!(d.tuned_us.to_bits(), 12.5f64.to_bits());
    assert_eq!(d.param.interior_threads, 2);
}

#[test]
fn missing_file_reads_as_empty() {
    let path = tmpdir("missing").join("nope.json");
    let cache = TuneCache::open(&path).unwrap();
    assert!(cache.is_empty());
    assert!(cache.lookup(&sample_key(4)).is_none());
}

#[test]
fn truncated_file_is_structured_corruption() {
    let path = tmpdir("truncate").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    cache.insert(&sample_key(4), sample_decision(PartitionScheme::XYZT, 12.5));
    cache.save().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    for keep in [0, 1, text.len() / 2, text.len() - 1] {
        std::fs::write(&path, &text[..keep]).unwrap();
        match TuneCache::open(&path) {
            Err(Error::Corrupt { .. }) => {}
            other => panic!("truncation at {keep} gave {other:?}"),
        }
    }
}

#[test]
fn bit_flips_never_produce_a_stale_hit() {
    let path = tmpdir("bitflip").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    cache.insert(&sample_key(4), sample_decision(PartitionScheme::XYZT, 12.5));
    cache.save().unwrap();
    let original = std::fs::read(&path).unwrap();
    let reference = TuneCache::open(&path).unwrap();
    let key = sample_key(4);

    // Flip one bit at a spread of positions. Every outcome must be
    // either Corrupt or a cache whose decision for the key is exactly
    // the original (flips in whitespace / unparsed regions) — never a
    // panic, never a changed decision accepted as valid.
    let step = (original.len() / 97).max(1);
    for pos in (0..original.len()).step_by(step) {
        let mut bytes = original.clone();
        bytes[pos] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match TuneCache::open(&path) {
            Err(Error::Corrupt { .. }) | Err(Error::Io { .. }) => {}
            Ok(c) => {
                let got = c.lookup(&key);
                assert!(
                    got.is_none() || got == reference.lookup(&key),
                    "flip at {pos} silently changed the decision: {got:?}"
                );
            }
            Err(e) => panic!("flip at {pos} gave unexpected error {e:?}"),
        }
    }
}

#[test]
fn bad_magic_is_corrupt_but_stale_version_retunes() {
    let path = tmpdir("version").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    cache.insert(&sample_key(4), sample_decision(PartitionScheme::XYZT, 12.5));
    cache.save().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    std::fs::write(&path, text.replace("LQTUNE01", "LQTUNE??")).unwrap();
    assert!(matches!(TuneCache::open(&path), Err(Error::Corrupt { .. })));

    // A *valid* file of a different version is the documented
    // invalidation rule: reads as empty (forcing a retune), not corrupt.
    let version = format!("\"version\": {VERSION}");
    assert!(text.contains(&version), "the file names its version");
    std::fs::write(&path, text.replace(&version, "\"version\": 999")).unwrap();
    let stale = TuneCache::open(&path).unwrap();
    assert!(stale.is_empty());
}

#[test]
fn a_version_2_file_reads_as_empty() {
    // A file of the five-axis version-2 schema is the documented
    // invalidation path, not corruption: it reads as empty before its
    // entries or its CRC are looked at.
    let path = tmpdir("v2").join("cache.json");
    let v2 = r#"{
  "magic": "LQTUNE01",
  "version": 2,
  "payload_crc64": "0000000000000000",
  "entries": [
    {
      "key": "wilson_clover/gcr_dd@8x8x8x8/r4/x86_64-linux-2c",
      "decision": {
        "param": {"scheme": "T", "interior_threads": 1, "mr_steps": 4, "n_kv": 24, "ladder": "Double"},
        "tuned_us": 40100.0,
        "default_us": 71800.0,
        "model_us": 541.4,
        "trials": 10
      }
    }
  ]
}"#;
    std::fs::write(&path, v2).unwrap();
    let cache = TuneCache::open(&path).unwrap();
    assert!(cache.is_empty());
}

#[test]
fn zero_interior_threads_is_structured_corruption() {
    // The thread count enters from the file here, so this is where a 0
    // is refused: a CRC-valid file that names 0 threads is corrupt.
    let path = tmpdir("zero-threads").join("cache.json");
    let mut cache = TuneCache::empty(&path);
    let mut zero = sample_decision(PartitionScheme::ZT, 12.5);
    zero.param.interior_threads = 0;
    cache.insert(&sample_key(4), zero);
    match cache.save() {
        Err(Error::Corrupt { detail, .. }) => {
            assert!(detail.contains("interior_threads"), "{detail}")
        }
        other => panic!("saving a 0-thread decision gave {other:?}"),
    }
    assert!(matches!(TuneCache::open(&path), Ok(c) if c.is_empty()), "nothing was written");
}

#[test]
fn save_is_atomic_no_tmp_residue() {
    let dir = tmpdir("atomic");
    let path = dir.join("cache.json");
    let mut cache = TuneCache::empty(&path);
    cache.insert(&sample_key(4), sample_decision(PartitionScheme::T, 20.0));
    cache.save().unwrap();
    cache.insert(&sample_key(8), sample_decision(PartitionScheme::ZT, 10.0));
    cache.save().unwrap();
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, vec!["cache.json"], "tmp sibling must not survive a save");
    assert_eq!(TuneCache::open(&path).unwrap().len(), 2);
}
