//! The metric lists, the result line, and the statistics behind them.

use std::fmt::Write as _;

/// End-to-end metrics of an untraced run, with units — the
/// `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("campaign_ms_p50", "ms"),
    ("req_ms_p95", "ms"),
    ("fault_vectors_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics of a traced run, with units — the `per_layer`
/// list of `BENCHMARK.json`. A layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("filters.build_ms", "ms"),
    ("core.session_new_ms", "ms"),
    ("core.session_self_ms", "ms"),
    ("faultsim.sim_ms", "ms"),
    ("faultsim.stage_ms", "ms"),
    ("faultsim.merge_ms", "ms"),
    ("faultsim.tape_compile_ms", "ms"),
    ("faultsim.good_response_ms", "ms"),
    ("faultsim.expand_ms", "ms"),
    ("faultsim.self_ms", "ms"),
    ("faultsim.fault_cycles", "count"),
    ("faultsim.mcycles_per_s", "Mcycles/s"),
    ("faultsim.lane_fill", "ratio"),
    ("faultsim.groups", "count"),
    ("faultsim.shards", "count"),
    ("faultsim.stages", "count"),
    ("structure.analyze_ms", "ms"),
    ("atpg.screen_ms", "ms"),
    ("atpg.top_off_ms", "ms"),
    ("atpg.residue", "count"),
    ("sat.prove_ms", "ms"),
    ("sat.equiv_ms", "ms"),
    ("sat.candidates", "count"),
    ("sat.conflicts", "count"),
    ("sat.redundant", "count"),
    ("lint.admission_ms", "ms"),
    ("bistd.submit_ms", "ms"),
    ("bistd.fetch_ms", "ms"),
    ("bistd.job_ms", "ms"),
    ("bistd.queue_wait_ms", "ms"),
    ("bistd.reply_bytes", "B"),
    ("bistd.cache_hit_ratio", "ratio"),
    ("bistd.hit_ms_p50", "ms"),
    ("bistd.miss_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
];

/// One run's outcome: operation counts and named metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (campaigns, requests, traced replays).
    pub attempted: u64,
    /// Operations that failed or produced a wrong verdict.
    pub failed: u64,
    values: Vec<(&'static str, f64, Option<usize>)>,
}

impl Report {
    /// Records one failed operation and says why on stderr.
    pub fn fail(&mut self, why: &str) {
        eprintln!("perfbench: {why}");
        self.failed += 1;
    }

    /// Sets a metric; `samples` is the sample count behind a median or
    /// percentile, shown next to it in the human-readable table.
    pub fn set(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, samples));
    }

    /// Sets several metrics without sample counts.
    pub fn set_all(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.set(name, value, None);
        }
    }

    /// Whether every attempted operation succeeded with the right
    /// verdict.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Prints the human-readable table and then, as the last line, the
    /// JSON result with every metric of the run's list.
    ///
    /// # Panics
    ///
    /// Panics if the run never set a metric of its list — a bug in the
    /// benchmark, not in the program it measures.
    pub fn print(&self, traced: bool) {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let (_, value, samples) = self
                .values
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was never set"));
            let value = if value.is_finite() { *value } else { f64::MAX };
            let samples = samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("{name:<28} {value:>16.4} {unit}{samples}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Milliseconds elapsed since `started`.
pub fn ms_since(started: std::time::Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolated linearly
/// between order statistics; NaN for no values. An infinite sample (a
/// failed request) sorts above every finite one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (sorted[pos.floor() as usize], sorted[pos.ceil() as usize]);
    if lo == hi || !hi.is_finite() {
        return hi;
    }
    lo + (hi - lo) * pos.fract()
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::JsonValue;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(manifest: &JsonValue, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let ours: Vec<(String, String)> =
                list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed(&manifest, key), ours, "{key}");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "names are unique");
    }

    #[test]
    fn quantiles_interpolate_and_rank_failures_last() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.9), f64::INFINITY);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn a_run_with_a_failure_is_not_correct() {
        let mut report = Report { attempted: 2, ..Report::default() };
        assert!(report.correct());
        report.fail("synthetic");
        assert!(!report.correct());
        assert!(!Report::default().correct(), "nothing attempted");
    }
}
