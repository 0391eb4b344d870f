//! The metric vocabulary, and its check against `BENCHMARK.json`.

use crate::workloads::ALL;
use serde_json::Value;

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of the untraced run.
pub const END_TO_END: [Metric; 6] = [
    m("tts_s", "s", "lower"),
    m("tts_tail_s", "s", "lower"),
    m("core_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("verified_frac", "frac", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Metrics of the traced run. Per-solve values unless the name says
/// otherwise; see `NOTES.md` for which end-to-end metric each moves.
pub const PER_LAYER: [Metric; 42] = [
    m("su3.hop_ns", "ns", "lower"),
    m("dirac.dslash_full_s", "s", "lower"),
    m("dirac.dslash_dirichlet_s", "s", "lower"),
    m("dirac.dslash_seq_s", "s", "lower"),
    m("dirac.gflops", "Gflop/s", "higher"),
    m("dirac.gbs_computed", "GB/s", "higher"),
    m("dirac.model_ratio", "ratio", "lower"),
    m("dirac.interior_s", "s", "lower"),
    m("dirac.exposed_comm_s", "s", "lower"),
    m("dirac.overlap_eff", "frac", "higher"),
    m("dirac.t_inverse_s", "s", "lower"),
    m("comms.exchanges", "count", "lower"),
    m("comms.exchange_mb", "MB", "lower"),
    m("comms.exchange_wait_s", "s", "lower"),
    m("comms.allreduces", "count", "lower"),
    m("comms.allreduce_s", "s", "lower"),
    m("comms.allreduce_lat_s", "s", "lower"),
    m("comms.halo_lat_s", "s", "lower"),
    m("solvers.iterations", "count", "lower"),
    m("solvers.matvecs", "count", "lower"),
    m("solvers.dirichlet_matvecs", "count", "lower"),
    m("solvers.restarts", "count", "lower"),
    m("solvers.solve_s", "s", "lower"),
    m("solvers.matvec_s", "s", "lower"),
    m("solvers.dirichlet_s", "s", "lower"),
    m("solvers.precond_s", "s", "lower"),
    m("solvers.dot_s", "s", "lower"),
    m("solvers.blas_s", "s", "lower"),
    m("solvers.quantize_s", "s", "lower"),
    m("solvers.other_s", "s", "lower"),
    m("solvers.busy_frac", "frac", "higher"),
    m("solvers.cast_s", "s", "lower"),
    m("field.half_encode_s", "s", "lower"),
    m("field.half_decode_s", "s", "lower"),
    m("field.axpy_gbs", "GB/s", "higher"),
    m("gauge.generate_s", "s", "lower"),
    m("gauge.ghost_exchange_s", "s", "lower"),
    m("gauge.clover_s", "s", "lower"),
    m("gauge.asqtad_s", "s", "lower"),
    m("host.steal_frac", "frac", "lower"),
    m("bench.trace_overhead", "ratio", "lower"),
    m("bench.tts_untraced_s", "s", "lower"),
];

/// Whether `s` is a valid metric or workload name.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The metric list of `key` in a parsed `BENCHMARK.json`.
fn listed(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    let arr = doc.get(key).and_then(Value::as_array).ok_or(format!("{key}: missing"))?;
    let field = |e: &Value, f: &str| -> Result<String, String> {
        e.get(f)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("{key}: entry without {f}"))
    };
    let mut out = Vec::new();
    for e in arr {
        let (name, unit, better) = (field(e, "name")?, field(e, "unit")?, field(e, "better")?);
        let ours = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|m| m.name == name)
            .ok_or(format!("{key}: {name} is not a metric this benchmark reports"))?;
        if ours.unit != unit || ours.better != better {
            return Err(format!(
                "{key}: {name} is listed as {unit}/{better} but reported as {}/{}",
                ours.unit, ours.better
            ));
        }
        out.push(*ours);
    }
    Ok(out)
}

/// Check `BENCHMARK.json` text against what this benchmark reports:
/// the same workloads, the same end-to-end and per-layer metrics with the
/// same units and directions, and only valid names.
pub fn check(text: &str) -> Result<(), String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let text_of =
        |w: &Value, key: &str| w.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("workloads: missing")?
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let ours: Vec<(String, String)> =
        ALL.iter().map(|w| (w.name().into(), w.why().into())).collect();
    if workloads != ours {
        return Err(format!("workloads {workloads:?} differ from the benchmark's {ours:?}"));
    }
    if listed(&doc, "end_to_end")? != END_TO_END {
        return Err("end_to_end differs from the metrics the untraced run prints".into());
    }
    if listed(&doc, "per_layer")? != PER_LAYER {
        return Err("per_layer differs from the metrics the traced run prints".into());
    }
    let names =
        ALL.iter().map(|w| w.name()).chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    match names.into_iter().find(|n| !valid_name(n)) {
        Some(bad) => Err(format!("invalid name {bad:?}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_report() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        check(&text).unwrap();
    }

    #[test]
    fn names_are_unique_and_valid() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        assert!(all.iter().all(|n| valid_name(n) && n.len() <= 64));
        all.sort();
        all.dedup();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(!valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn a_mismatch_is_reported() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap()
                .replace("\"tts_tail_s\"", "\"tts_p99_s\"");
        assert!(check(&text).is_err());
    }
}
