//! Perf-regression comparison over `BENCH_*.json` tracker files — the
//! engine behind the `perf_diff` binary.
//!
//! A tracker file is an arbitrary JSON document; [`flatten`] turns it
//! into a flat `metric-path -> number` map (array elements are keyed by
//! their identifying fields — `name`, `method`, `algo`, `scenario`,
//! `scale`, `k`, `threads`, `p` — so a row keeps its identity when the
//! sweep order changes), and
//! [`compare`] diffs the intersection of two such maps under a tolerance.
//!
//! What counts as a regression depends on the metric's *direction*,
//! classified from its key ([`direction_of`]):
//!
//! * `median_ns` / `wall_ns` / `sim_time` / `p50` / `p99` —
//!   wall-clock-like, **higher is worse**;
//! * `plan_bytes` / `workspace_bytes` / `resident_bytes` — footprints,
//!   **higher is worse**: pure functions of the compiled plan, of the
//!   reserved workspace buffers and of what a built matrix holds, so they
//!   repeat to the byte on any machine;
//! * `speedup` / `ratio` — relative metrics, **lower is worse**;
//! * everything else is informational (compared for the report, never a
//!   failure);
//! * `meta.*` (provenance) and `phases_*` (attribution of a single
//!   representative run, inherently noisy) are excluded outright.
//!
//! Two escape hatches keep the gate honest on weak hosts: speedup checks
//! are skipped loudly when the current run's `meta.host_cpus < 2` (one
//! core cannot demonstrate parallel speedup), and `relative_only` demotes
//! the machine-absolute, wall-clock-like metrics to informational. That
//! is the right setting when baseline and current ran on different
//! machines; dimensionless `speedup`/`ratio` metrics and footprints keep
//! gating there, which is exactly why deterministic ratios (cache-hit
//! rate) are reported as `*_ratio`.
//!
//! `peak_live_bytes` (the allocator's high-water mark over a FillComplete
//! and a product) stays informational: it counts every allocation the
//! process makes meanwhile, the thread pool's included, and does not
//! repeat to the byte — two runs of the CI scale sweep on a 2-core host
//! differed by up to 336 B on the 2D rows at p = 64, and `SF2D_THREADS`
//! 1 against 2 by 2 B on every row.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

/// Which way a metric gets worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Wall-clock-like: a rise beyond tolerance is a regression.
    HigherIsWorse,
    /// Speedup-like: a drop beyond tolerance is a regression.
    LowerIsWorse,
    /// A deterministic footprint: a rise beyond tolerance is a regression,
    /// on any machine (`relative_only` keeps it gating).
    FootprintHigherIsWorse,
    /// Compared and reported, never a failure.
    Info,
}

/// Classifies `key` (a flattened metric path); `None` = excluded from
/// comparison entirely.
pub fn direction_of(key: &str) -> Option<Direction> {
    if key.starts_with("meta.") || key.contains(".meta.") || key.contains("phases_") {
        return None;
    }
    if key.contains("median_ns")
        || key.contains("wall_ns")
        || key.contains("sim_time")
        || key.contains("p50")
        || key.contains("p99")
    {
        return Some(Direction::HigherIsWorse);
    }
    if key.contains("speedup") || key.contains("ratio") {
        return Some(Direction::LowerIsWorse);
    }
    if ["plan_bytes", "workspace_bytes", "resident_bytes"]
        .iter()
        .any(|k| key.contains(k))
    {
        return Some(Direction::FootprintHigherIsWorse);
    }
    Some(Direction::Info)
}

/// Flattens a JSON document into `metric-path -> number`. Objects join
/// with `.`; array elements are keyed `[name=gp,scale=12,...]` from
/// their identifying fields when present, by index otherwise. Strings
/// are dropped; booleans flatten to 0/1.
pub fn flatten(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(doc, String::new(), &mut out);
    out
}

fn walk(v: &Value, prefix: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::U64(n) => {
            out.insert(prefix, *n as f64);
        }
        Value::I64(n) => {
            out.insert(prefix, *n as f64);
        }
        Value::F64(f) => {
            out.insert(prefix, *f);
        }
        Value::Bool(b) => {
            out.insert(prefix, if *b { 1.0 } else { 0.0 });
        }
        Value::Map(entries) => {
            for (k, val) in entries {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(val, key, out);
            }
        }
        Value::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                let seg = item
                    .as_map()
                    .and_then(|m| identity_of(m))
                    .unwrap_or_else(|| i.to_string());
                walk(item, format!("{prefix}[{seg}]"), out);
            }
        }
        Value::Null | Value::Str(_) => {}
    }
}

/// Builds a stable identity for an array-of-rows element from its
/// identifying fields, e.g. `name=gp,scale=12,threads=4`.
fn identity_of(row: &[(String, Value)]) -> Option<String> {
    const ID_FIELDS: [&str; 8] = [
        "name", "method", "algo", "scenario", "scale", "k", "threads", "p",
    ];
    let parts: Vec<String> = ID_FIELDS
        .iter()
        .filter_map(|f| {
            row.iter().find(|(k, _)| k == f).map(|(_, v)| match v {
                Value::Str(s) => format!("{f}={s}"),
                Value::U64(n) => format!("{f}={n}"),
                Value::I64(n) => format!("{f}={n}"),
                Value::F64(x) => format!("{f}={x}"),
                other => format!("{f}={other:?}"),
            })
        })
        .collect();
    (!parts.is_empty()).then(|| parts.join(","))
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Flattened metric path.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed percent change, `(current - baseline) / baseline * 100`.
    pub delta_pct: f64,
    /// The metric's direction class.
    pub direction: Direction,
    /// Whether the change exceeds tolerance in the worse direction.
    pub regressed: bool,
}

/// The outcome of one baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct PerfDiff {
    /// Every intersecting metric, in key order.
    pub deltas: Vec<MetricDelta>,
    /// Loud notes about checks that were skipped and keys present on
    /// only one side.
    pub notes: Vec<String>,
    /// Tolerance used, in percent.
    pub tolerance_pct: f64,
}

impl PerfDiff {
    /// The metrics that regressed beyond tolerance.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Whether the comparison passes (no regression).
    pub fn passed(&self) -> bool {
        self.deltas.iter().all(|d| !d.regressed)
    }
}

/// Compares two tracker documents under `tolerance_pct`. With
/// `relative_only`, absolute wall-clock metrics are demoted to
/// informational (use when the two files come from different machines;
/// footprints still gate);
/// speedup checks are skipped automatically when the current run reports
/// `meta.host_cpus < 2`.
pub fn compare(
    baseline: &Value,
    current: &Value,
    tolerance_pct: f64,
    relative_only: bool,
) -> PerfDiff {
    let base = flatten(baseline);
    let cur = flatten(current);
    let mut notes = Vec::new();

    let host_cpus = cur
        .get("meta.host_cpus")
        .or_else(|| cur.get("host_cpus"))
        .copied()
        .unwrap_or(f64::INFINITY);
    let skip_speedups = host_cpus < 2.0;
    if skip_speedups {
        notes.push(format!(
            "speedup/ratio checks SKIPPED: current run reports host_cpus = {host_cpus}; \
             one core cannot demonstrate parallel speedup"
        ));
    }
    if relative_only {
        notes.push(
            "absolute wall-clock metrics demoted to informational (--relative-only)".to_string(),
        );
    }

    let only_base = base.keys().filter(|k| !cur.contains_key(*k)).count();
    let only_cur = cur.keys().filter(|k| !base.contains_key(*k)).count();
    if only_base > 0 {
        notes.push(format!("{only_base} metric(s) present only in baseline"));
    }
    if only_cur > 0 {
        notes.push(format!("{only_cur} metric(s) present only in current"));
    }

    let mut deltas = Vec::new();
    for (key, &b) in &base {
        let Some(&c) = cur.get(key) else { continue };
        let Some(mut dir) = direction_of(key) else {
            continue;
        };
        if relative_only && dir == Direction::HigherIsWorse {
            dir = Direction::Info;
        }
        if skip_speedups && dir == Direction::LowerIsWorse {
            dir = Direction::Info;
        }
        let delta_pct = if b.abs() < 1e-12 {
            0.0
        } else {
            (c - b) / b * 100.0
        };
        let regressed = match dir {
            Direction::HigherIsWorse | Direction::FootprintHigherIsWorse => {
                delta_pct > tolerance_pct
            }
            Direction::LowerIsWorse => -delta_pct > tolerance_pct,
            Direction::Info => false,
        };
        deltas.push(MetricDelta {
            key: key.clone(),
            baseline: b,
            current: c,
            delta_pct,
            direction: dir,
            regressed,
        });
    }
    PerfDiff {
        deltas,
        notes,
        tolerance_pct,
    }
}

/// Renders the comparison as a markdown report: verdict, notes,
/// regressions first, then every compared metric.
pub fn markdown(diff: &PerfDiff, baseline_name: &str, current_name: &str) -> String {
    let mut out = String::new();
    let regs = diff.regressions();
    let _ = writeln!(out, "# Perf comparison\n");
    let _ = writeln!(out, "- baseline: `{baseline_name}`");
    let _ = writeln!(out, "- current: `{current_name}`");
    let _ = writeln!(out, "- tolerance: {:.1}%", diff.tolerance_pct);
    let _ = writeln!(
        out,
        "- verdict: **{}** ({} compared, {} regressed)\n",
        if regs.is_empty() { "PASS" } else { "FAIL" },
        diff.deltas.len(),
        regs.len()
    );
    for n in &diff.notes {
        let _ = writeln!(out, "> {n}");
    }
    if !diff.notes.is_empty() {
        out.push('\n');
    }
    if !regs.is_empty() {
        let _ = writeln!(out, "## Regressions\n");
        let _ = writeln!(out, "| metric | baseline | current | change |");
        let _ = writeln!(out, "|---|---:|---:|---:|");
        for d in &regs {
            let _ = writeln!(
                out,
                "| {} | {:.4} | {:.4} | {:+.1}% |",
                d.key, d.baseline, d.current, d.delta_pct
            );
        }
        out.push('\n');
    }
    let _ = writeln!(out, "## All compared metrics\n");
    let _ = writeln!(out, "| metric | baseline | current | change | status |");
    let _ = writeln!(out, "|---|---:|---:|---:|---|");
    for d in &diff.deltas {
        let status = match (d.direction, d.regressed) {
            (_, true) => "REGRESSED",
            (Direction::Info, false) => "info",
            (_, false) => "ok",
        };
        let _ = writeln!(
            out,
            "| {} | {:.4} | {:.4} | {:+.1}% | {status} |",
            d.key, d.baseline, d.current, d.delta_pct
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(par_ns: u64, speedup: f64, host_cpus: u64) -> Value {
        let text = format!(
            r#"{{
              "meta": {{ "schema_version": 1, "bin": "bench_partition",
                         "host_cpus": {host_cpus}, "threads": 8,
                         "git_rev": "abc1234", "timestamp_unix": 1700000000 }},
              "description": "test",
              "host_cpus": {host_cpus},
              "cases": [
                {{ "name": "gp", "scale": 12, "k": 16, "threads": 8,
                   "median_ns_seq": 1000000, "median_ns_par": {par_ns},
                   "speedup": {speedup}, "identical": true,
                   "phases_par": {{ "matching": 123456 }} }},
                {{ "name": "mondriaan", "scale": 12, "k": 16, "threads": 8,
                   "median_ns_seq": 2000000, "median_ns_par": 900000,
                   "speedup": 2.2, "identical": true }}
              ]
            }}"#
        );
        serde_json::from_str(&text).expect("sample parses")
    }

    #[test]
    fn flatten_keys_rows_by_identity_not_index() {
        let m = flatten(&sample(500_000, 2.0, 8));
        assert!(m.contains_key("cases[name=gp,scale=12,k=16,threads=8].median_ns_par"));
        assert!(m.contains_key("cases[name=mondriaan,scale=12,k=16,threads=8].speedup"));
        assert_eq!(
            m["cases[name=gp,scale=12,k=16,threads=8].identical"], 1.0,
            "bools flatten to 0/1"
        );
    }

    #[test]
    fn meta_and_phases_are_excluded_from_comparison() {
        assert_eq!(direction_of("meta.host_cpus"), None);
        assert_eq!(direction_of("cases[name=gp].phases_par.matching"), None);
        assert_eq!(
            direction_of("cases[name=gp].median_ns_par"),
            Some(Direction::HigherIsWorse)
        );
        assert_eq!(
            direction_of("cases[name=gp].speedup"),
            Some(Direction::LowerIsWorse)
        );
        assert_eq!(
            direction_of("ratio_1d_gp_over_2d_gp"),
            Some(Direction::LowerIsWorse)
        );
        assert_eq!(
            direction_of("cases[name=gp].samples"),
            Some(Direction::Info)
        );
    }

    #[test]
    fn percentile_keys_classify_as_wall_clock() {
        for key in ["service_ns_p50", "service_ns_p99"] {
            assert_eq!(
                direction_of(&format!("cases[name=gp,threads=2].pool.{key}")),
                Some(Direction::HigherIsWorse)
            );
        }
    }

    fn serve_sample(p50: u64, p99: u64, hit_ratio: f64) -> Value {
        let text = format!(
            r#"{{
              "meta": {{ "schema_version": 1, "bin": "bench_serve",
                         "host_cpus": 8, "threads": 8,
                         "git_rev": "abc1234", "timestamp_unix": 1700000000 }},
              "serve": [
                {{ "name": "steady", "p": 16,
                   "service_ns_p50": {p50}, "service_ns_p99": {p99},
                   "cache_hit_ratio": {hit_ratio},
                   "gather_amortization_ratio": 4.0 }}
              ]
            }}"#
        );
        serde_json::from_str(&text).expect("serve sample parses")
    }

    #[test]
    fn deterministic_serving_ratios_gate_even_under_relative_only() {
        let base = serve_sample(1000, 5000, 0.9);
        // The cache-hit ratio collapsing is a real behavior change, not a
        // machine artifact: it must fail even with --relative-only.
        let cur = serve_sample(9000, 50000, 0.4);
        let diff = compare(&base, &cur, 15.0, true);
        assert!(!diff.passed());
        assert!(diff
            .regressions()
            .iter()
            .all(|d| d.key.contains("cache_hit_ratio")));
    }

    #[test]
    fn self_compare_is_clean() {
        let doc = sample(500_000, 2.0, 8);
        let diff = compare(&doc, &doc, 15.0, false);
        assert!(diff.passed());
        assert!(!diff.deltas.is_empty());
        assert!(diff.deltas.iter().all(|d| d.delta_pct == 0.0));
    }

    #[test]
    fn injected_slowdown_beyond_tolerance_fails() {
        let base = sample(500_000, 2.0, 8);
        let cur = sample(750_000, 2.0, 8); // +50% parallel time
        let diff = compare(&base, &cur, 15.0, false);
        assert!(!diff.passed());
        let regs = diff.regressions();
        assert!(regs
            .iter()
            .any(|d| d.key.contains("median_ns_par") && d.key.contains("name=gp")));
        // Within-tolerance change passes.
        let diff_ok = compare(&base, &sample(550_000, 2.0, 8), 15.0, false);
        assert!(diff_ok.passed(), "{:?}", diff_ok.regressions());
    }

    #[test]
    fn speedup_drop_fails_but_is_skipped_on_one_core_hosts() {
        let base = sample(500_000, 2.0, 8);
        let cur = sample(500_000, 1.0, 8); // speedup halved
        let diff = compare(&base, &cur, 15.0, false);
        assert!(!diff.passed());
        assert!(diff.regressions().iter().all(|d| d.key.contains("speedup")));

        // Same drop, but the current host has one core: skipped loudly.
        let one_core = sample(500_000, 1.0, 1);
        let diff = compare(&base, &one_core, 15.0, false);
        assert!(diff.passed());
        assert!(diff.notes.iter().any(|n| n.contains("SKIPPED")));
    }

    #[test]
    fn relative_only_ignores_wall_clock_shifts() {
        let base = sample(500_000, 2.0, 8);
        let cur = sample(5_000_000, 2.0, 8); // 10x slower machine, same speedup
        assert!(!compare(&base, &cur, 15.0, false).passed());
        assert!(compare(&base, &cur, 15.0, true).passed());
        // ...but a speedup drop still fails under --relative-only.
        assert!(!compare(&base, &sample(5_000_000, 1.0, 8), 15.0, true).passed());
    }

    fn scale_sample(plan_bytes: u64, compile_wall_ns: u64, peak: u64) -> Value {
        let text = format!(
            r#"{{ "rows": [ {{ "name": "1D-Random", "p": 64,
                   "plan_bytes": {plan_bytes}, "compile_wall_ns": {compile_wall_ns},
                   "peak_live_bytes": {peak} }} ] }}"#
        );
        serde_json::from_str(&text).expect("scale sample parses")
    }

    #[test]
    fn plan_bytes_gate_as_a_footprint_and_peak_stays_informational() {
        assert_eq!(
            direction_of("rows[name=1D-Random,p=64].plan_bytes"),
            Some(Direction::FootprintHigherIsWorse)
        );
        assert_eq!(
            direction_of("rows[name=1D-Random,p=64].peak_live_bytes"),
            Some(Direction::Info)
        );
        let base = scale_sample(1_000_000, 20_000_000, 9_000_000);
        // A plan 30 % larger fails with and without --relative-only...
        let grown = scale_sample(1_300_000, 20_000_000, 9_000_000);
        for relative_only in [false, true] {
            let diff = compare(&base, &grown, 15.0, relative_only);
            let regs = diff.regressions();
            assert_eq!(regs.len(), 1, "relative_only {relative_only}");
            assert!(regs[0].key.ends_with("plan_bytes"));
        }
        // ...one inside tolerance passes, and a smaller plan is no
        // regression.
        for plan_bytes in [1_100_000, 500_000] {
            let cur = scale_sample(plan_bytes, 20_000_000, 9_000_000);
            assert!(compare(&base, &cur, 15.0, true).passed(), "{plan_bytes}");
        }
    }

    #[test]
    fn resident_bytes_gate_as_a_footprint() {
        assert_eq!(
            direction_of("rows[name=1D-Random,p=64].resident_bytes"),
            Some(Direction::FootprintHigherIsWorse)
        );
        let row = |resident: u64| -> Value {
            let text = format!(
                r#"{{ "rows": [ {{ "name": "1D-Random", "p": 64,
                       "resident_bytes": {resident}, "compile_wall_ns": 20000000 }} ] }}"#
            );
            serde_json::from_str(&text).expect("resident sample parses")
        };
        // A matrix holding 30 % more fails even with --relative-only; a
        // leaner one passes.
        let diff = compare(&row(1_000_000), &row(1_300_000), 15.0, true);
        let regs = diff.regressions();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].key.ends_with("resident_bytes"));
        assert!(compare(&row(1_000_000), &row(400_000), 15.0, true).passed());
    }

    #[test]
    fn workspace_bytes_gate_as_a_footprint_beside_wall_clock() {
        assert_eq!(
            direction_of("workspace_bytes_2d_gp_summa"),
            Some(Direction::FootprintHigherIsWorse)
        );
        let spgemm = |wall_ns: u64, bytes: u64| -> Value {
            let text =
                format!(r#"{{ "wall_ns_2d_gp": {wall_ns}, "workspace_bytes_2d_gp": {bytes} }}"#);
            serde_json::from_str(&text).expect("spgemm sample parses")
        };
        let base = spgemm(17_000_000, 200_000_000);
        // A workspace 30 % larger fails even where wall clock is ignored...
        let diff = compare(&base, &spgemm(17_000_000, 260_000_000), 15.0, true);
        let regs = diff.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "workspace_bytes_2d_gp");
        // ...while a smaller one on a slower machine passes.
        assert!(compare(&base, &spgemm(40_000_000, 120_000_000), 15.0, true).passed());
    }

    #[test]
    fn relative_only_still_ignores_wall_clock_and_peak_beside_plan_bytes() {
        let base = scale_sample(1_000_000, 20_000_000, 9_000_000);
        // A slower machine with a fatter allocator, same plan.
        let cur = scale_sample(1_000_000, 90_000_000, 30_000_000);
        assert!(!compare(&base, &cur, 15.0, false).passed());
        assert!(compare(&base, &cur, 15.0, true).passed());
    }

    #[test]
    fn markdown_report_names_the_verdict_and_regressions() {
        let base = sample(500_000, 2.0, 8);
        let diff = compare(&base, &sample(750_000, 2.0, 8), 15.0, false);
        let md = markdown(&diff, "base.json", "cur.json");
        assert!(md.contains("**FAIL**"));
        assert!(md.contains("## Regressions"));
        assert!(md.contains("median_ns_par"));
        let clean = markdown(
            &compare(&base, &base, 15.0, false),
            "base.json",
            "base.json",
        );
        assert!(clean.contains("**PASS**"));
        assert!(!clean.contains("## Regressions"));
    }
}
