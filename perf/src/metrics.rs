//! Every metric the benchmark prints, with its unit. `BENCHMARK.json` at
//! the repository root names the same metrics (a test keeps the two in
//! step).

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("minstr_per_s", "Minstr/s"),
    ("kcycles_per_s", "kcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.ipc", "instr/cycle"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_instr", "ns"),
    ("sim.window_occ_mean", "uops"),
    ("sim.squashed_per_retired", "ratio"),
    ("sim.loop_share", "fraction"),
    ("sim.new_ms", "ms"),
    ("sim.report_ms", "ms"),
    ("isa.asm_ms", "ms"),
    ("isa.interp_ns_per_instr", "ns"),
    ("isa.interp_share", "fraction"),
    ("workloads.source_ms", "ms"),
    ("core.fill.ns_per_instr", "ns"),
    ("core.fill.segments", "count"),
    ("core.fill.share", "fraction"),
    ("core.opt.moves.ns_per_seg", "ns"),
    ("core.opt.reassoc.ns_per_seg", "ns"),
    ("core.opt.scadd.ns_per_seg", "ns"),
    ("core.opt.placement.ns_per_seg", "ns"),
    ("core.opt.transformed_frac", "fraction"),
    ("core.opt.share", "fraction"),
    ("core.verify.ns_per_seg", "ns"),
    ("core.verify.share", "fraction"),
    ("core.tcache.lookup_ns", "ns"),
    ("core.tcache.insert_ns", "ns"),
    ("core.tcache.hit_rate", "fraction"),
    ("core.tcache.full_path_frac", "fraction"),
    ("core.tcache.evictions", "count"),
    ("core.tcache.share", "fraction"),
    ("uarch.pht.ns_per_branch", "ns"),
    ("uarch.pht.mispredict_rate", "fraction"),
    ("uarch.pht.share", "fraction"),
    ("uarch.hier.ns_per_access", "ns"),
    ("uarch.icache.hit_rate", "fraction"),
    ("uarch.dcache.hit_rate", "fraction"),
    ("uarch.l2.hit_rate", "fraction"),
    ("uarch.hier.share", "fraction"),
    ("core.ledger.ns_per_event", "ns"),
    ("core.ledger.segments", "count"),
    ("core.ledger.share", "fraction"),
    ("util.metrics.observe_ns", "ns"),
    ("util.metrics.share", "fraction"),
    ("harness.overhead_share", "fraction"),
    ("harness.store_append_us", "us"),
    ("harness.store_load_ms", "ms"),
    ("harness.store_bytes_per_run", "bytes"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The unit of a metric named in either table.
///
/// # Panics
///
/// Panics on a name in neither table (a bug in this program).
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the metric tables"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracefill_util::Json;

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string member")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_name_has_one_unit() {
        for (name, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert_eq!(unit(name), *u);
        }
    }
}
