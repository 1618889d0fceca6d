//! The metric catalogue: every name the binary prints, with its unit,
//! its better-direction and how `compare` gates it. `BENCHMARK.json`
//! lists a subset of these names (checked by a unit test); later issues
//! cite them, so names are never reused for something else.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// How `compare` judges a metric between two result sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// May worsen by this share of the base value before it is `worse`.
    Bound(f64),
    /// A deterministic count: any difference is an `exact-mismatch`.
    Exact,
    /// Reported with its delta, never judged (per-layer timings are
    /// diagnostic: the end-to-end metrics carry the bounds).
    Info,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
    /// Listed under `end_to_end` in `BENCHMARK.json` (reported by every
    /// workload and never 0); everything else is listed under
    /// `per_layer` and comes from the traced run.
    pub contract_e2e: bool,
}

use Better::{Higher, Lower};
use Gate::{Bound, Exact, Info};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate: Bound(bound),
        contract_e2e: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, gate: Gate) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate,
        contract_e2e: false,
    }
}

pub const CATALOGUE: &[MetricDef] = &[
    // ---- end to end, on every workload -------------------------------
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_p95", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    // ---- end to end, on the workloads they are defined for (0 elsewhere,
    //      which is why the contract lists them with the layers) --------
    layer("op_ms_p99", "ms", Lower, Bound(0.25)),
    layer("fail_share", "ratio", Lower, Exact),
    layer("sim_minst_per_s", "Minst/s", Higher, Bound(0.25)),
    layer("modelled_cycles", "cycles", Lower, Exact),
    layer("kernel_insts", "count", Lower, Exact),
    layer("unattributed_share", "ratio", Lower, Info),
    // ---- accparse ----------------------------------------------------
    layer("accparse.parse_us", "us", Lower, Info),
    layer("accparse.sema_us", "us", Lower, Info),
    layer("accparse.lint_us", "us", Lower, Info),
    layer("accparse.redflow_us", "us", Lower, Info),
    layer("accparse.src_mb_per_s", "MB/s", Higher, Info),
    layer("accparse.hir_loops", "count", Lower, Exact),
    layer("accparse.diags", "count", Lower, Exact),
    // ---- uhacc_core --------------------------------------------------
    layer("core.codegen_us", "us", Lower, Info),
    layer("core.program_key_us", "us", Lower, Info),
    layer("core.kernel_insts", "count", Lower, Exact),
    layer("core.kernel_regs", "count", Lower, Exact),
    layer("core.shared_bytes", "count", Lower, Exact),
    layer("core.finalize_passes", "count", Lower, Exact),
    // ---- gpsim, execution ---------------------------------------------
    layer("gpsim.launch_us", "us", Lower, Info),
    layer("gpsim.launch_share", "ratio", Lower, Info),
    layer("gpsim.decode_us", "us", Lower, Info),
    layer("gpsim.lane_insts", "count", Lower, Exact),
    layer("gpsim.warp_insts", "count", Lower, Exact),
    layer("gpsim.avg_active_lanes", "count", Higher, Exact),
    layer("gpsim.kernel_cycles", "cycles", Lower, Exact),
    layer("gpsim.global_tx", "count", Lower, Exact),
    layer("gpsim.tx_per_access", "ratio", Lower, Exact),
    layer("gpsim.bank_ways_per_access", "ratio", Lower, Exact),
    layer("gpsim.barriers", "count", Lower, Exact),
    layer("gpsim.atomics", "count", Lower, Exact),
    layer("gpsim.interp_minst_per_s", "Minst/s", Higher, Info),
    layer("gpsim.tier_ratio", "ratio", Higher, Info),
    layer("gpsim.par2_ratio", "ratio", Higher, Info),
    // ---- gpsim, checkers ----------------------------------------------
    layer("gpsim.verify_us", "us", Lower, Info),
    layer("gpsim.verify_findings", "count", Lower, Exact),
    layer("gpsim.cert_us", "us", Lower, Info),
    layer("gpsim.cert_observables", "count", Lower, Exact),
    layer("gpsim.sanitize_us", "us", Lower, Info),
    layer("gpsim.sanitize_ratio", "ratio", Lower, Info),
    layer("gpsim.hazards", "count", Lower, Exact),
    layer("gpsim.disasm_us", "us", Lower, Info),
    // ---- accrt ----------------------------------------------------------
    layer("accrt.session_us", "us", Lower, Info),
    layer("accrt.bind_us", "us", Lower, Info),
    layer("accrt.h2d_us", "us", Lower, Info),
    layer("accrt.d2h_us", "us", Lower, Info),
    layer("accrt.codegen_us", "us", Lower, Info),
    layer("accrt.run_self_us", "us", Lower, Info),
    layer("accrt.launches", "count", Lower, Exact),
    layer("accrt.bytes_h2d", "count", Lower, Exact),
    layer("accrt.bytes_d2h", "count", Lower, Exact),
    layer("accrt.transfer_cycles", "cycles", Lower, Exact),
    layer("accrt.region_cache_hit_ratio", "ratio", Higher, Exact),
    // ---- driver ---------------------------------------------------------
    layer("driver.compile_text_us", "us", Lower, Info),
    layer("driver.results_json_us", "us", Lower, Info),
    layer("driver.profile_json_us", "us", Lower, Info),
    layer("driver.render_bytes", "count", Lower, Exact),
    // ---- uhaccd ---------------------------------------------------------
    layer("uhaccd.lint_ms_p50", "ms", Lower, Info),
    layer("uhaccd.analyze_ms_p50", "ms", Lower, Info),
    layer("uhaccd.compile_ms_p50", "ms", Lower, Info),
    layer("uhaccd.verify_ms_p50", "ms", Lower, Info),
    layer("uhaccd.run_ms_p50", "ms", Lower, Info),
    layer("uhaccd.profile_ms_p50", "ms", Lower, Info),
    layer("uhaccd.certify_ms_p50", "ms", Lower, Info),
    layer("uhaccd.handle_us", "us", Lower, Info),
    layer("uhaccd.wire_overhead_us", "us", Lower, Info),
    layer("uhaccd.http_parse_us", "us", Lower, Info),
    layer("uhaccd.json_parse_us", "us", Lower, Info),
    layer("uhaccd.queue_wait_ms_p50", "ms", Lower, Info),
    layer("uhaccd.queue_wait_ms_p99", "ms", Lower, Info),
    layer("uhaccd.pool_peak_depth", "count", Lower, Info),
    layer("uhaccd.program_cache_hit_ratio", "ratio", Higher, Info),
    layer("uhaccd.region_cache_hit_ratio", "ratio", Higher, Info),
    layer("uhaccd.program_evictions", "count", Lower, Info),
    layer("uhaccd.metrics_render_us", "us", Lower, Info),
    layer("uhaccd.status_4xx", "count", Lower, Exact),
    layer("uhaccd.status_5xx", "count", Lower, Exact),
    // ---- uhobs ----------------------------------------------------------
    layer("uhobs.trace_overhead_share", "ratio", Lower, Info),
    layer("uhobs.spans", "count", Lower, Exact),
    layer("uhobs.spans_dropped", "count", Lower, Info),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    CATALOGUE.iter().find(|d| d.name == name)
}

/// A measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

/// Values by catalogue name. Setting a name the catalogue does not list
/// is a bug in the benchmark and panics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let d = def(name).unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        assert!(value.is_finite(), "metric `{name}` is not finite");
        self.0.insert(d.name, Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }

    /// Every catalogue metric of one kind, in catalogue order; a metric
    /// the workload has no value for reads 0 with 0 samples.
    pub fn listed(&self, contract_e2e: bool) -> Vec<(&'static MetricDef, Measured)> {
        CATALOGUE
            .iter()
            .filter(|d| d.contract_e2e == contract_e2e)
            .map(|d| {
                let m = self.get(d.name).unwrap_or(Measured {
                    value: 0.0,
                    samples: 0,
                });
                (d, m)
            })
            .collect()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, Measured)> + '_ {
        CATALOGUE
            .iter()
            .filter_map(|d| self.get(d.name).map(|m| (d, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in CATALOGUE {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(name_ok(d.name, 64, "_.-"), "bad name {}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(d.unit, 16, "_/%.-"), "bad unit {}", d.unit);
        }
    }

    /// `BENCHMARK.json` may only name metrics the binary prints, with the
    /// unit, direction and bound the catalogue gives them — and must name
    /// every one of them, since each run prints the full list.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        for (section, contract_e2e) in [("end_to_end", true), ("per_layer", false)] {
            let listed = doc.get(section).and_then(Json::as_arr).expect(section);
            let want: Vec<_> = CATALOGUE
                .iter()
                .filter(|d| d.contract_e2e == contract_e2e)
                .collect();
            assert_eq!(listed.len(), want.len(), "{section}: count");
            for (j, d) in listed.iter().zip(want) {
                let name = j.get("name").and_then(Json::as_str).expect("name");
                assert_eq!(name, d.name, "{section}: order/name");
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit), "{name}");
                let better = match d.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(better),
                    "{name}"
                );
                if contract_e2e {
                    let Bound(b) = d.gate else {
                        panic!("{name}: end-to-end metrics carry a bound")
                    };
                    assert_eq!(j.get("bound").and_then(Json::as_f64), Some(b), "{name}");
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_refused() {
        Metrics::default().set("made.up", 1.0, 1);
    }
}
