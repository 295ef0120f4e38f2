//! # pc-bench — the simulate-layer microbench and its CI gate
//!
//! One bench target, `simcore`, times the simulator hot loop over every
//! benchmark × machine mode and writes `BENCH_simcore.json` at the
//! workspace root; the `bench_gate` binary compares two such documents
//! for regressions and throughput floors. The paper's tables print with
//! `pcsim tables <name>`, and end-to-end cell throughput is measured by
//! `perfbench/`.
//!
//! ```sh
//! cargo bench -p pc-bench --bench simcore
//! ```

/// Criterion sample count used by all benches (whole-program simulations
/// are long; statistical precision beyond ~10 samples buys nothing).
pub const SAMPLES: usize = 10;

/// True when `PC_BENCH_QUICK` is set (CI smoke mode): benches shrink
/// their sample counts and measurement budgets so the whole target runs
/// in seconds instead of minutes.
pub fn quick_mode() -> bool {
    std::env::var_os("PC_BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// One case of a `BENCH_simcore.json` baseline: the identifier plus the
/// throughput number the perf gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCase {
    /// `simcore/<Bench>/<Mode>` identifier.
    pub id: String,
    /// Issue engine that produced the case (`decoded` / `scan`).
    pub engine: String,
    /// Mean wall time per full pipeline run, nanoseconds.
    pub mean_ns: u64,
    /// Simulated machine cycles per run.
    pub cycles_per_run: u64,
    /// The gated metric: simulated cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
}

/// Scans the given field out of one JSON object body. The baseline files
/// are written by `benches/simcore.rs` in a fixed shape, so a string scan
/// (no serde in the offline build) is sufficient and is unit-tested
/// against the writer's format.
fn scan_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &obj[obj.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn scan_string<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let raw = scan_field(obj, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// Parses the `cases` array of a `BENCH_simcore.json` document.
///
/// # Errors
/// Returns a description of the first malformed case, or of a missing
/// `cases` array.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineCase>, String> {
    let start = json
        .find("\"cases\":")
        .ok_or_else(|| "no \"cases\" array".to_string())?;
    let body = &json[start..];
    let open = body.find('[').ok_or("cases is not an array")?;
    let close = body.find(']').ok_or("unterminated cases array")?;
    let mut cases = Vec::new();
    let mut rest = &body[open + 1..close];
    while let Some(obj_start) = rest.find('{') {
        let obj_end = rest[obj_start..]
            .find('}')
            .ok_or("unterminated case object")?;
        let obj = &rest[obj_start..obj_start + obj_end + 1];
        let id = scan_string(obj, "id")
            .ok_or_else(|| format!("case without id: {obj}"))?
            .to_string();
        let num = |key: &str| -> Result<f64, String> {
            scan_field(obj, key)
                .ok_or_else(|| format!("{id}: missing {key}"))?
                .parse::<f64>()
                .map_err(|e| format!("{id}: bad {key}: {e}"))
        };
        cases.push(BaselineCase {
            sim_cycles_per_sec: num("sim_cycles_per_sec")?,
            mean_ns: num("mean_ns")? as u64,
            cycles_per_run: num("cycles_per_run")? as u64,
            engine: scan_string(obj, "engine")
                .ok_or_else(|| format!("{id}: missing engine"))?
                .to_string(),
            id,
        });
        rest = &rest[obj_start + obj_end + 1..];
    }
    if cases.is_empty() {
        return Err("cases array is empty".to_string());
    }
    Ok(cases)
}

/// Compares `current` against `baseline`: one failure line per case whose
/// `sim_cycles_per_sec` dropped by more than `max_regress_pct` percent.
/// Cases present on only one side are reported as informational skips by
/// the caller, not failures — hardware and case sets drift.
pub fn regressions(
    baseline: &[BaselineCase],
    current: &[BaselineCase],
    max_regress_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.id == b.id) else {
            continue;
        };
        if b.sim_cycles_per_sec <= 0.0 {
            continue;
        }
        let drop_pct = 100.0 * (1.0 - c.sim_cycles_per_sec / b.sim_cycles_per_sec);
        if drop_pct > max_regress_pct {
            failures.push(format!(
                "{}: sim_cycles_per_sec {:.0} -> {:.0} ({drop_pct:.1}% regression, limit {max_regress_pct:.0}%)",
                b.id, b.sim_cycles_per_sec, c.sim_cycles_per_sec
            ));
        }
    }
    failures
}

/// Checks absolute throughput floors: every case whose id **ends with**
/// `pattern` must clear `min` simulated cycles per second. Suffix
/// matching lets `/Coupled` cover all plain Coupled cases without
/// catching derived ids like `.../Coupled/profiled`. A pattern matching
/// no case at all is itself a failure — a silent typo would gate
/// nothing.
pub fn floor_violations(current: &[BaselineCase], floors: &[(String, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (pattern, min) in floors {
        let mut matched = false;
        for c in current {
            if !c.id.ends_with(pattern.as_str()) {
                continue;
            }
            matched = true;
            if c.sim_cycles_per_sec < *min {
                failures.push(format!(
                    "{}: sim_cycles_per_sec {:.0} below floor {min:.0}",
                    c.id, c.sim_cycles_per_sec
                ));
            }
        }
        if !matched {
            failures.push(format!("floor {pattern}={min:.0}: no case matches"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "simcore-baseline-v5",
  "host_cpus": 4,
  "cases": [
    {"id": "simcore/Matrix/STS", "engine": "decoded", "mean_ns": 1609547, "iterations": 1400, "cycles_per_run": 1598, "sim_cycles_per_sec": 992826},
    {"id": "simcore/Matrix/Coupled", "engine": "decoded", "mean_ns": 4714083, "iterations": 380, "cycles_per_run": 580, "sim_cycles_per_sec": 123036},
    {"id": "simcore/Matrix/Coupled/scan", "engine": "scan", "mean_ns": 9428166, "iterations": 190, "cycles_per_run": 580, "sim_cycles_per_sec": 61518}
  ]
}"#;

    #[test]
    fn parses_the_writer_format() {
        let cases = parse_baseline(SAMPLE).unwrap();
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].id, "simcore/Matrix/STS");
        assert_eq!(cases[0].engine, "decoded");
        assert_eq!(cases[0].mean_ns, 1609547);
        assert_eq!(cases[0].cycles_per_run, 1598);
        assert_eq!(cases[0].sim_cycles_per_sec, 992826.0);
        assert_eq!(cases[1].id, "simcore/Matrix/Coupled");
        assert_eq!(cases[2].engine, "scan");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"cases": []}"#).is_err());
        assert!(parse_baseline(r#"{"cases": [{"mean_ns": 1}]}"#).is_err());
        let no_engine = SAMPLE.replace("\"engine\": \"decoded\", ", "");
        assert!(parse_baseline(&no_engine)
            .unwrap_err()
            .contains("missing engine"));
    }

    #[test]
    fn flags_only_regressions_beyond_the_limit() {
        let base = parse_baseline(SAMPLE).unwrap();
        let mut cur = base.clone();
        cur[0].sim_cycles_per_sec *= 0.80; // -20%: inside a 25% limit
        cur[1].sim_cycles_per_sec *= 0.50; // -50%: out
        let fails = regressions(&base, &cur, 25.0);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("Matrix/Coupled"), "{}", fails[0]);
        assert!(fails[0].contains("50.0% regression"), "{}", fails[0]);
    }

    #[test]
    fn floors_flag_cases_below_the_minimum() {
        let cases = parse_baseline(SAMPLE).unwrap();
        // Matrix/Coupled sits at 123036 in the fixture.
        let floors = vec![("/Coupled".to_string(), 200_000.0)];
        let fails = floor_violations(&cases, &floors);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("Matrix/Coupled"), "{}", fails[0]);
        assert!(fails[0].contains("below floor 200000"), "{}", fails[0]);
        let ok = floor_violations(&cases, &[("/Coupled".to_string(), 100_000.0)]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn floors_match_by_suffix_and_reject_unmatched_patterns() {
        let mut cases = parse_baseline(SAMPLE).unwrap();
        cases.push(BaselineCase {
            id: "simcore/Matrix/Coupled/profiled".to_string(),
            engine: "decoded".to_string(),
            mean_ns: 1,
            cycles_per_run: 1,
            sim_cycles_per_sec: 1.0, // far below any floor
        });
        // `/Coupled` must not catch the `/profiled` derived id.
        let fails = floor_violations(&cases, &[("/Coupled".to_string(), 100_000.0)]);
        assert!(fails.is_empty(), "{fails:?}");
        // An unmatched pattern is an error, not a silent pass.
        let fails = floor_violations(&cases, &[("/NoSuchMode".to_string(), 1.0)]);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("no case matches"), "{}", fails[0]);
    }

    #[test]
    fn improvements_and_missing_cases_pass() {
        let base = parse_baseline(SAMPLE).unwrap();
        let mut cur = base.clone();
        cur[0].sim_cycles_per_sec *= 3.0; // faster is never a failure
        cur.remove(1); // case missing from current: skipped
        assert!(regressions(&base, &cur, 25.0).is_empty());
    }
}
