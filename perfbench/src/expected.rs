//! The recorded default-seed values a run's outputs must equal.
//!
//! `perfbench/expected.json` holds, per workload and size, either the
//! engine counters and trace seal recorded at the default seed, or a
//! pointer to the row of an engine-bench artifact (`results/BENCH_engine*.json`)
//! whose counters the run must reproduce; the row is read from that file.

use gcs_scenarios::bench::read_bench;
use gcs_scenarios::json::{self, JsonValue};

use crate::report::Outcome;
use crate::RunArgs;

/// The seed the recorded values belong to (the seed of the checked-in
/// engine-bench artifacts).
pub const DEFAULT_SEED: u64 = 0;

/// Named integer outputs of one run (engine counters, trace seal).
pub type Counters = Vec<(&'static str, u64)>;

fn recorded(args: &RunArgs, workload: &str) -> Result<Vec<(String, u64)>, String> {
    let size = if args.tiny { "tiny" } else { "default" };
    let path = args.root.join("perfbench/expected.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entry = json::arr_field(&doc, "entries", "expected values")?
        .iter()
        .find(|e| {
            e.get("workload").and_then(JsonValue::as_str) == Some(workload)
                && e.get("size").and_then(JsonValue::as_str) == Some(size)
        })
        .ok_or_else(|| format!("no recorded values for {workload} at size {size}"))?;
    if let Some(artifact) = entry.get("bench_artifact").and_then(JsonValue::as_str) {
        let scenario = json::str_field(entry, "scenario", "expected entry")?;
        let path = args.root.join(artifact);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let bench = read_bench(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let row = bench
            .entries
            .iter()
            .find(|r| r.scenario == scenario && r.seed == DEFAULT_SEED)
            .ok_or_else(|| format!("{artifact} has no {scenario} row at seed {DEFAULT_SEED}"))?;
        return Ok(vec![
            ("events".to_string(), row.events),
            ("ticks".to_string(), row.ticks),
            ("mode_evaluations".to_string(), row.mode_evaluations),
            ("messages_delivered".to_string(), row.messages_delivered),
        ]);
    }
    match entry.get("values") {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| format!("{workload}: value {k} is not an integer"))
            })
            .collect(),
        _ => Err(format!(
            "{workload}: entry has neither values nor bench_artifact"
        )),
    }
}

/// At the default seed, checks `have` against the recorded values; with
/// `--forge-expected` the first recorded value is off by one, which must
/// make the run fail (the negative control).
pub fn compare(
    args: &RunArgs,
    workload: &str,
    have: &Counters,
    out: &mut Outcome,
) -> Result<(), String> {
    if args.seed != DEFAULT_SEED {
        return Ok(());
    }
    let mut want = recorded(args, workload)?;
    if args.forge {
        if let Some((_, v)) = want.first_mut() {
            *v = v.wrapping_add(1);
        }
    }
    out.check(!want.is_empty(), || {
        format!("{workload}: no values recorded")
    });
    for (name, value) in &want {
        let got = have.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
        out.check(got == Some(*value), || {
            format!("{workload}: {name} is {got:?}, recorded {value}")
        });
    }
    Ok(())
}
