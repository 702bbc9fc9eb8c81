//! `selfstab registry <show|tab|diff> <registry.jsonl> [OPTIONS]` —
//! query the persistent results registry.
//!
//! The registry is the append-only JSONL log that `serve --registry`,
//! `sweep --registry`, and the scaling bench (under `SELFSTAB_REGISTRY`)
//! accumulate: one canonical row per measured result (see
//! [`selfstab_core::registry_row`]). This subcommand is the consumer
//! side:
//!
//! * `show FILE [--source S] [--kind K] [--spec SUBSTR] [--limit N]`
//!   filters rows (newest last) and prints them; `--json` emits the
//!   canonical lines unchanged.
//! * `tab FILE --kpi PATH [--by source|kind|k|spec]` cross-tabs one KPI
//!   (dotted path into the `kpis` object, e.g.
//!   `counters.states_visited`) over a grouping column: count, min,
//!   max, and the latest value per group.
//! * `diff FILE --baseline FILE [--kpi a,b,…] [--tolerance-pct P]
//!   [--higher-is-better a,b,…]` joins rows on their identity
//!   (source:spec:kind:k:knobs, latest row wins per side) and compares
//!   KPIs numerically *in each KPI's own direction*. The default is
//!   cost-like (lower is better: counters, byte sizes, durations), and
//!   the `_us`/`_bytes`/`_wait` name suffixes mark that explicitly; a
//!   KPI listed in `--higher-is-better` (throughput, cache hits,
//!   solutions found) regresses when it *drops* beyond the tolerance
//!   instead — an improvement in either direction is never flagged. Any
//!   regression exits 2, the CI gate. Gate on deterministic KPIs
//!   (`--kpi` selects them); wall-clock rows exist to be reported, not
//!   gated on.

use std::collections::BTreeMap;
use std::path::Path;

use selfstab_core::registry_row::{read_rows, RegistryRow};
use serde_json::{json, Value};

use crate::args::Args;

const USAGE: &str = "usage: selfstab registry <show|tab|diff> <registry.jsonl> [OPTIONS]";

/// Default regression tolerance for `diff`, percent.
const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

/// `registry` options that take a value.
const OPTIONS: &str = "source kind spec limit kpi by baseline tolerance-pct higher-is-better";

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "json", OPTIONS)?;
    let action = args.positional(0).ok_or(USAGE)?;
    let path: &Path = args.positional(1).ok_or(USAGE)?.as_ref();
    let rows = read_rows(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    match action {
        "show" => show(&args, &rows),
        "tab" => tab(&args, &rows),
        "diff" => diff(&args, &rows),
        other => Err(format!("unknown registry action `{other}`\n{USAGE}").into()),
    }
}

fn show(args: &Args, rows: &[RegistryRow]) -> Result<bool, Box<dyn std::error::Error>> {
    let spec_filter = args.get("spec");
    let filtered: Vec<&RegistryRow> = rows
        .iter()
        .filter(|r| args.get("source").is_none_or(|s| r.source == s))
        .filter(|r| args.get("kind").is_none_or(|k| r.kind == k))
        .filter(|r| spec_filter.is_none_or(|s| r.spec.contains(s)))
        .collect();
    let limit = args.get_usize("limit", filtered.len())?;
    let shown = &filtered[filtered.len().saturating_sub(limit)..];
    if args.flag("json") {
        for row in shown {
            println!("{}", row.to_canonical_json());
        }
        return Ok(true);
    }
    for row in shown {
        println!(
            "{:<6} {:<10} {:<6} {:<12} kpis {}  meta {}",
            row.source,
            row.kind,
            row.k,
            ellipsize(&row.spec, 12),
            row.kpis,
            row.meta,
        );
    }
    println!(
        "{} row(s) shown of {} matching ({} total)",
        shown.len(),
        filtered.len(),
        rows.len()
    );
    Ok(true)
}

fn tab(args: &Args, rows: &[RegistryRow]) -> Result<bool, Box<dyn std::error::Error>> {
    let kpi = args
        .get("kpi")
        .ok_or("registry tab needs --kpi PATH (a dotted path into `kpis`)")?;
    let by = args.get("by").unwrap_or("kind");
    let column = |r: &RegistryRow| -> String {
        match by {
            "source" => r.source.clone(),
            "kind" => r.kind.clone(),
            "k" => r.k.clone(),
            "spec" => r.spec.clone(),
            other => format!("?{other}"),
        }
    };
    if !matches!(by, "source" | "kind" | "k" | "spec") {
        return Err(format!("option --by expects source|kind|k|spec, got `{by}`").into());
    }
    // Group → (count, min, max, last), in appended order so `last` is
    // the most recent measurement.
    let mut groups: BTreeMap<String, (u64, f64, f64, f64)> = BTreeMap::new();
    for row in rows {
        let Some(value) = lookup(&row.kpis, kpi) else {
            continue;
        };
        let entry = groups
            .entry(column(row))
            .or_insert((0, f64::INFINITY, f64::NEG_INFINITY, 0.0));
        entry.0 += 1;
        entry.1 = entry.1.min(value);
        entry.2 = entry.2.max(value);
        entry.3 = value;
    }
    if args.flag("json") {
        let mut doc = BTreeMap::new();
        for (group, (n, min, max, last)) in &groups {
            doc.insert(
                group.clone(),
                json!({"rows": *n, "min": *min, "max": *max, "last": *last}),
            );
        }
        println!(
            "{}",
            serde_json::to_string_pretty(
                &json!({"kpi": kpi, "by": by, "groups": Value::Object(doc)})
            )?
        );
        return Ok(true);
    }
    println!(
        "{by:<16} {:>6} {:>14} {:>14} {:>14}   kpi {kpi}",
        "rows", "min", "max", "last"
    );
    for (group, (n, min, max, last)) in &groups {
        println!(
            "{group:<16} {n:>6} {:>14} {:>14} {:>14}",
            fmt_num(*min),
            fmt_num(*max),
            fmt_num(*last)
        );
    }
    if groups.is_empty() {
        println!("(no row carries kpi `{kpi}`)");
    }
    Ok(true)
}

fn diff(args: &Args, rows: &[RegistryRow]) -> Result<bool, Box<dyn std::error::Error>> {
    let baseline_path: &Path = args
        .get("baseline")
        .ok_or("registry diff needs --baseline FILE")?
        .as_ref();
    let baseline = read_rows(baseline_path)
        .map_err(|e| format!("cannot read `{}`: {e}", baseline_path.display()))?;
    let tolerance = match args.get("tolerance-pct") {
        None => DEFAULT_TOLERANCE_PCT,
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("option --tolerance-pct expects a number, got `{v}`"))?,
    };
    let selected: Option<Vec<&str>> = args.get("kpi").map(|list| list.split(',').collect());
    let higher_is_better: Vec<String> = args
        .get("higher-is-better")
        .map(|list| list.split(',').map(str::to_owned).collect())
        .unwrap_or_default();

    let base_by_id = latest_by_identity(&baseline);
    let new_by_id = latest_by_identity(rows);
    let mut comparisons = Vec::new();
    let mut regressions = 0usize;
    let mut missing = 0usize;
    for (identity, base_row) in &base_by_id {
        let Some(new_row) = new_by_id.get(identity) else {
            missing += 1;
            continue;
        };
        // Compare the baseline's numeric KPI paths (or the selected
        // subset): a KPI the new run dropped is skipped, not a failure —
        // schema growth must not brick old baselines.
        let mut paths = Vec::new();
        flatten(&base_row.kpis, String::new(), &mut paths);
        for (path, base_value) in paths {
            if selected
                .as_ref()
                .is_some_and(|wanted| !wanted.iter().any(|w| *w == path))
            {
                continue;
            }
            let Some(new_value) = lookup(&new_row.kpis, &path) else {
                continue;
            };
            let change_pct = if base_value == 0.0 {
                if new_value == 0.0 {
                    0.0
                } else {
                    100.0
                }
            } else {
                (new_value - base_value) / base_value * 100.0
            };
            let direction = direction_for(&path, &higher_is_better)?;
            let regressed = is_regression(change_pct, tolerance, direction);
            if regressed {
                regressions += 1;
            }
            comparisons.push(json!({
                "identity": identity.clone(),
                "kpi": path,
                "baseline": base_value,
                "current": new_value,
                "change_pct": change_pct,
                "direction": direction.name(),
                "regressed": regressed,
            }));
        }
    }

    // A gate that matched nothing compared nothing: passing it would hide
    // any regression behind an identity change (a renamed knob, a new
    // source), so it is a usage error, not a success.
    if missing > 0 && missing == base_by_id.len() {
        return Err(format!(
            "no baseline identity matches a current row ({missing} baseline \
             identit(ies) unmatched, e.g. `{}`): nothing was compared",
            base_by_id.keys().next().map_or("", String::as_str)
        )
        .into());
    }

    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "tolerance_pct": tolerance,
                "comparisons": Value::Array(comparisons.clone()),
                "regressions": regressions,
                "baseline_only": missing,
            }))?
        );
    } else {
        for c in &comparisons {
            let marker = if c["regressed"] == true {
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{:<9} {} {}: {} -> {} ({:+.1}%)",
                marker,
                c["identity"].as_str().unwrap_or("?"),
                c["kpi"].as_str().unwrap_or("?"),
                fmt_num(c["baseline"].as_f64().unwrap_or(0.0)),
                fmt_num(c["current"].as_f64().unwrap_or(0.0)),
                c["change_pct"].as_f64().unwrap_or(0.0),
            );
        }
        println!(
            "{} KPI(s) compared, {} regression(s) beyond {tolerance}% \
             ({} baseline identit(ies) unmatched)",
            comparisons.len(),
            regressions,
            missing
        );
    }
    Ok(regressions == 0)
}

/// Which direction of change is *bad* for a KPI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Cost-like (the default): a rise beyond the tolerance regresses.
    LowerIsBetter,
    /// Throughput-like: a *drop* beyond the tolerance regresses.
    HigherIsBetter,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower_is_better",
            Direction::HigherIsBetter => "higher_is_better",
        }
    }
}

/// Leaf-name suffixes that mark a KPI as cost-like by naming convention
/// (microsecond durations, byte sizes, queue waits).
const LOWER_SUFFIXES: &[&str] = &["_us", "_bytes", "_wait"];

/// The comparison direction of one dotted KPI path: cost-like unless the
/// path is listed in `--higher-is-better`. Listing a suffix-conventioned
/// cost KPI there is a contradiction worth refusing loudly — a silently
/// inverted gate is exactly the bug this exists to fix.
fn direction_for(path: &str, higher_is_better: &[String]) -> Result<Direction, String> {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let cost_suffixed = LOWER_SUFFIXES.iter().any(|s| leaf.ends_with(s));
    let listed = higher_is_better.iter().any(|h| h == path);
    if listed && cost_suffixed {
        return Err(format!(
            "KPI `{path}` is cost-like by naming convention \
             (`_us`/`_bytes`/`_wait`) but was listed in --higher-is-better"
        ));
    }
    Ok(if listed {
        Direction::HigherIsBetter
    } else {
        Direction::LowerIsBetter
    })
}

/// `true` iff `change_pct` moved beyond `tolerance` in the KPI's bad
/// direction. Improvements are never regressions, whatever their size.
fn is_regression(change_pct: f64, tolerance: f64, direction: Direction) -> bool {
    match direction {
        Direction::LowerIsBetter => change_pct > tolerance,
        Direction::HigherIsBetter => change_pct < -tolerance,
    }
}

/// The most recent row per identity — the registry is append-only, so
/// later rows supersede earlier measurements of the same workload.
fn latest_by_identity(rows: &[RegistryRow]) -> BTreeMap<String, &RegistryRow> {
    let mut map = BTreeMap::new();
    for row in rows {
        map.insert(row.identity(), row);
    }
    map
}

/// Resolves a dotted path (`counters.states_visited`) into a numeric
/// leaf of a KPI object.
fn lookup(kpis: &Value, path: &str) -> Option<f64> {
    let mut value = kpis;
    for segment in path.split('.') {
        value = match value {
            Value::Object(map) => map.get(segment)?,
            _ => return None,
        };
    }
    value.as_f64()
}

/// Collects every numeric leaf of a KPI object as (dotted path, value).
fn flatten(value: &Value, prefix: String, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten(child, path, out);
            }
        }
        _ => {
            if let Some(n) = value.as_f64() {
                out.push((prefix, n));
            }
        }
    }
}

fn ellipsize(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_owned()
    } else {
        format!("{}…", &s[..max.saturating_sub(1)])
    }
}

fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(states: u64) -> RegistryRow {
        RegistryRow {
            source: "serve".into(),
            spec: "abc".into(),
            kind: "verify".into(),
            k: "4..4".into(),
            knobs: json!({"max_states": 100}),
            kpis: json!({"exit_code": 0, "counters": {"states_visited": states}}),
            meta: json!({"commit": "x"}),
        }
    }

    #[test]
    fn lookup_resolves_dotted_paths() {
        let r = row(42);
        assert_eq!(lookup(&r.kpis, "counters.states_visited"), Some(42.0));
        assert_eq!(lookup(&r.kpis, "exit_code"), Some(0.0));
        assert_eq!(lookup(&r.kpis, "counters.missing"), None);
        assert_eq!(lookup(&r.kpis, "counters"), None, "objects are not leaves");
    }

    #[test]
    fn flatten_emits_every_numeric_leaf() {
        let mut out = Vec::new();
        flatten(&row(7).kpis, String::new(), &mut out);
        assert_eq!(
            out,
            vec![
                ("counters.states_visited".to_owned(), 7.0),
                ("exit_code".to_owned(), 0.0),
            ]
        );
    }

    #[test]
    fn direction_defaults_suffixes_and_overrides() {
        let none: Vec<String> = Vec::new();
        let throughput = vec!["counters.cache_hits".to_owned()];
        // Default: cost-like.
        assert_eq!(
            direction_for("counters.states_visited", &none).unwrap(),
            Direction::LowerIsBetter
        );
        // Suffix convention stays cost-like even with overrides around.
        for cost in ["phases.fused_scan_us", "cache.resident_bytes", "queue_wait"] {
            assert_eq!(
                direction_for(cost, &throughput).unwrap(),
                Direction::LowerIsBetter,
                "{cost}"
            );
        }
        // Listed KPIs flip.
        assert_eq!(
            direction_for("counters.cache_hits", &throughput).unwrap(),
            Direction::HigherIsBetter
        );
        // A cost-suffixed KPI in --higher-is-better is a contradiction.
        let err = direction_for("phases.fused_scan_us", &["phases.fused_scan_us".to_owned()])
            .unwrap_err();
        assert!(err.contains("higher-is-better"), "{err}");
    }

    #[test]
    fn regression_is_judged_in_the_kpi_direction() {
        // The original bug: a higher-is-better KPI that *improved* by 50%
        // was flagged REGRESSED. Improvements never regress.
        assert!(!is_regression(50.0, 10.0, Direction::HigherIsBetter));
        assert!(is_regression(50.0, 10.0, Direction::LowerIsBetter));
        // A genuine drop in a higher-is-better KPI regresses.
        assert!(is_regression(-50.0, 10.0, Direction::HigherIsBetter));
        assert!(!is_regression(-50.0, 10.0, Direction::LowerIsBetter));
        // Within tolerance: quiet in both directions.
        assert!(!is_regression(5.0, 10.0, Direction::LowerIsBetter));
        assert!(!is_regression(-5.0, 10.0, Direction::HigherIsBetter));
    }

    #[test]
    fn diff_that_matches_no_baseline_identity_is_an_error() {
        let dir = std::env::temp_dir().join(format!("selfstab-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.jsonl");
        std::fs::remove_file(&baseline).ok();
        selfstab_core::registry_row::append_row(&baseline, &row(1)).unwrap();
        let argv: Vec<String> = ["diff", "current.jsonl", "--baseline"]
            .iter()
            .map(|s| s.to_string())
            .chain([baseline.display().to_string()])
            .collect();
        let args = Args::parse(&argv, "json", OPTIONS).unwrap();
        // Same identity: compared, and a 100x rise regresses.
        assert!(!diff(&args, &[row(100)]).unwrap());
        // A changed knob: every baseline identity is unmatched, so the
        // 100x rise was never compared — that must not pass.
        let mut renamed = row(100);
        renamed.knobs = json!({"max_states": 200});
        let err = diff(&args, &[renamed]).unwrap_err().to_string();
        assert!(err.contains("nothing was compared"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_row_wins_per_identity() {
        let rows = vec![row(10), row(20)];
        let map = latest_by_identity(&rows);
        assert_eq!(map.len(), 1);
        assert_eq!(
            lookup(
                &map.values().next().unwrap().kpis,
                "counters.states_visited"
            ),
            Some(20.0)
        );
    }
}
