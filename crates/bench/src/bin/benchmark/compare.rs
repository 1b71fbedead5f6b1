//! `benchmark compare`: parent runs against change runs, by the rule the
//! benchmark's bounds are fixed for.
//!
//! Each `--parent`/`--change` file is a `benchmark run --out` result;
//! the i-th parent and i-th change form a pair. For every (workload,
//! end-to-end metric) the verdict is:
//!
//! - **improved**: at least ten pairs, the change wins at least 9 of every
//!   10 (ties count for neither), and the medians differ, in the better
//!   direction, by more than the parent's interquartile range;
//! - **unresolved**: an apparent gain rests on fewer than ten pairs, or
//!   the parent's own spread (IQR over median) is wider than the bound,
//!   so a difference of the bound's size is within its noise, unless
//!   every run of one side beats every run of the other;
//! - **regressed**: the change's median is worse than the parent's by
//!   more than the metric's bound in BENCHMARK.json;
//! - **unchanged** otherwise.
//!
//! A rise in failed operations on any workload is flagged, and so is any
//! change in a deterministic output (`block_err_pct`,
//! `search_speedup_geomean`) between runs of the same seed.

use crate::stats;
use presage_machine::json::Json;

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

struct Bound {
    name: String,
    better_lower: bool,
    bound: f64,
}

struct RunFile {
    seed: f64,
    workloads: Vec<Json>,
}

fn load(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let seed = json
        .get("meta")
        .and_then(|m| m.get("seed"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: no meta.seed"))?;
    let workloads = json
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no workloads"))?
        .to_vec();
    Ok(RunFile { seed, workloads })
}

fn workload<'a>(run: &'a RunFile, name: &str) -> Option<&'a Json> {
    run.workloads
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn metric(w: &Json, name: &str) -> Option<f64> {
    w.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The spec's workloads and end-to-end bounds.
fn spec(path: &str) -> Result<(Vec<String>, Vec<Bound>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let names = |key: &str| -> Vec<&Json> {
        json.get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().collect())
            .unwrap_or_default()
    };
    let workloads = names("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let bounds = names("end_to_end")
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                better_lower: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect();
    Ok((workloads, bounds))
}

fn verdict(parent: &[f64], change: &[f64], b: &Bound) -> (&'static str, usize) {
    // `beats(x, y)`: x is better than y in the metric's direction.
    let beats = |x: f64, y: f64| if b.better_lower { x < y } else { x > y };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(**c, **p))
        .count();
    let pairs = parent.len().min(change.len());
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let [q1, _, q3] = stats::quartiles(parent);
    let worse_by = if b.better_lower { mc - mp } else { mp - mc } / mp.abs().max(f64::MIN_POSITIVE);
    let every = |a: &[f64], over: &[f64]| a.iter().all(|&x| over.iter().all(|&y| beats(x, y)));
    let separated = every(change, parent) || every(parent, change);
    let v = if beats(mc, mp) && wins * 10 >= pairs * 9 && (mc - mp).abs() > q3 - q1 {
        if pairs >= MIN_PAIRS {
            "improved"
        } else {
            "unresolved"
        }
    } else if stats::spread(parent) > b.bound && !separated {
        "unresolved"
    } else if worse_by > b.bound {
        "regressed"
    } else {
        "unchanged"
    };
    (v, wins)
}

pub fn main(args: &[String]) -> i32 {
    let (mut parents, mut changes, mut spec_path) =
        (Vec::new(), Vec::new(), "BENCHMARK.json".to_string());
    let mut side = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => side = Some(true),
            "--change" => side = Some(false),
            "--spec" => match it.next() {
                Some(p) => spec_path = p.clone(),
                None => return usage("--spec needs a path"),
            },
            path => match side {
                Some(true) => parents.push(path.to_string()),
                Some(false) => changes.push(path.to_string()),
                None => return usage(&format!("unexpected argument `{path}`")),
            },
        }
    }
    if parents.is_empty() || changes.is_empty() {
        return usage("need at least one --parent and one --change file");
    }
    let loaded = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (parents, changes, (workloads, bounds)) =
        match (loaded(&parents), loaded(&changes), spec(&spec_path)) {
            (Ok(p), Ok(c), Ok(s)) => (p, c, s),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                eprintln!("benchmark compare: {e}");
                return 2;
            }
        };
    let mut bad = false;
    println!(
        "{:<15} {:<16} {:>40} {:>40} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in &workloads {
        let values = |runs: &[RunFile], m: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| workload(r, w).and_then(|j| metric(j, m)))
                .collect()
        };
        for b in &bounds {
            let (p, c) = (values(&parents, &b.name), values(&changes, &b.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (v, wins) = verdict(&p, &c, b);
            bad |= v == "regressed";
            let fmt = |x: &[f64]| {
                let [q1, _, q3] = stats::quartiles(x);
                format!("{:.4} [{:.4}, {:.4}]", stats::median(x), q1, q3)
            };
            println!(
                "{:<15} {:<16} {:>40} {:>40} {:>3}/{:<2}  {v}",
                w,
                b.name,
                fmt(&p),
                fmt(&c),
                wins,
                p.len().min(c.len())
            );
        }
        let failed = |runs: &[RunFile]| {
            runs.iter()
                .filter_map(|r| workload(r, w)?.get("failed")?.as_f64())
                .fold(0.0, f64::max)
        };
        if failed(&changes) > failed(&parents) {
            bad = true;
            println!(
                "{w:<15} FAILED OPERATIONS ROSE: {} -> {}",
                failed(&parents),
                failed(&changes)
            );
        }
        for key in ["block_err_pct", "search_speedup_geomean"] {
            for p in &parents {
                for c in changes.iter().filter(|c| c.seed == p.seed) {
                    let get = |r: &RunFile| workload(r, w)?.get("detail")?.get(key)?.as_f64();
                    if let (Some(a), Some(b)) = (get(p), get(c)) {
                        if a != b {
                            bad = true;
                            println!("{w:<15} {key} CHANGED at seed {}: {a} -> {b}", p.seed);
                        }
                    }
                }
            }
        }
    }
    i32::from(bad)
}

fn usage(msg: &str) -> i32 {
    eprintln!("benchmark compare: {msg}");
    eprintln!("usage: benchmark compare --parent A1.json ... --change B1.json ... [--spec BENCHMARK.json]");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency".into(),
            better_lower: true,
            bound,
        }
    }

    #[test]
    fn noisy_same_distribution_sets_are_unresolved_not_regressed() {
        // Both sets draw from one wide distribution; the change's median
        // happens to sit 30% above the parent's, past the 25% bound.
        let parent = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 95.0,
        ];
        let change = [
            90.0, 150.0, 135.0, 70.0, 140.0, 125.0, 100.0, 160.0, 130.0, 80.0,
        ];
        assert!(stats::spread(&parent) > 0.25);
        assert!(stats::median(&change) > stats::median(&parent) * 1.25);
        assert_eq!(verdict(&parent, &change, &lower(0.25)).0, "unresolved");
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.4).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let b = lower(0.25);
        assert_eq!(verdict(&parent, &slower, &b), ("regressed", 0));
        assert_eq!(verdict(&parent, &faster, &b), ("improved", 10));
        assert_eq!(verdict(&parent[..5], &faster[..5], &b).0, "unresolved");
        assert_eq!(verdict(&parent, &parent, &b), ("unchanged", 0));
        // Separated sets are judged even when the parent is noisy.
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 95.0, 105.0,
        ];
        let worse: Vec<f64> = vec![200.0; 10];
        assert_eq!(verdict(&noisy, &worse, &b).0, "regressed");
    }
}
