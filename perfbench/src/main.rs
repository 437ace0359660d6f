//! perfbench: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           --root DIR --perilsd PATH
//! ```
//!
//! `perfbench/run.py` builds this binary and `perilsd` and calls it; see
//! `perfbench/README.md`. The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`
//! holding every end-to-end metric of `BENCHMARK.json` (`--trace 0`) or
//! every per-layer metric (`--trace 1`).

mod figures;
mod gen;
mod sampler;
mod serve;
mod stats;
mod trace;

use perils_util::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// What a workload run needs to know.
pub struct Context {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub perilsd: PathBuf,
    /// Where fixtures, figure output and span files go.
    pub work_dir: PathBuf,
}

impl Context {
    /// Writes the span file and the self-time table of a traced run.
    pub fn write_trace(&self, tracer: &trace::Tracer) -> Result<(), String> {
        let stem = format!("{}-{}", self.workload, self.seed);
        let spans = self.work_dir.join(format!("spans-{stem}.jsonl"));
        let table = self.work_dir.join(format!("selftime-{stem}.txt"));
        tracer
            .write_spans(&spans)
            .and_then(|()| tracer.write_self_times(&table))
            .map_err(|e| format!("writing trace files: {e}"))?;
        eprintln!(
            "perfbench: spans in {}, self times in {}",
            spans.display(),
            table.display()
        );
        Ok(())
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed answer checks, one line each.
    pub failures: Vec<String>,
}

/// User plus system CPU seconds a process has used, over all its
/// threads (`/proc/<pid>/stat`, in the kernel's 100 Hz clock ticks).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // utime and stime are the 14th and 15th fields; the command name
    // before them is parenthesised and may hold spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err(format!("{path} has no CPU times")),
    }
}

/// The benchmark definition: workload names and metric units.
struct Definition {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn metric_list(doc: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let unit = m.get("unit").and_then(Value::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("a {key} entry lacks a name or unit")),
            }
        })
        .collect()
}

fn load_definition(root: &Path) -> Result<Definition, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    Ok(Definition {
        workloads,
        end_to_end: metric_list(&doc, "end_to_end")?,
        per_layer: metric_list(&doc, "per_layer")?,
    })
}

/// Per per-layer metric, the workloads whose traced run measures it
/// (`perfbench/layers.json`); the others report 0 for it.
fn measured_on(root: &Path) -> Result<BTreeMap<String, Vec<String>>, String> {
    let path = root.join("perfbench").join("layers.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let strings = |v: Option<&Value>| -> Vec<String> {
        v.and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.as_str().map(str::to_string))
            .collect()
    };
    Ok(doc
        .get("layers")
        .and_then(Value::as_array)
        .ok_or("layers.json has no layers list")?
        .iter()
        .filter_map(|e| {
            let metric = e.get("metric").and_then(Value::as_str)?;
            Some((metric.to_string(), strings(e.get("measured_on"))))
        })
        .collect())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    root: PathBuf,
    perilsd: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing {k}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|_| "--seed needs an integer")?,
        seconds: take("--seconds")?
            .parse()
            .ok()
            .filter(|&s| s >= 1)
            .ok_or("--seconds needs an integer >= 1")?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace is 0 or 1".to_string()),
        },
        root: take("--root")?.into(),
        perilsd: take("--perilsd")?.into(),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag {k}"));
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let def = load_definition(&args.root)?;
    if !def.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload {:?} (have {:?})",
            args.workload, def.workloads
        ));
    }
    let work_dir = args.root.join(".perfbench");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let ctx = Context {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        perilsd: args.perilsd,
        work_dir,
    };
    let outcome = match ctx.workload.as_str() {
        "figures-default" => figures::run(&ctx)?,
        "serve-uniform-paged" => serve::run(&ctx, &serve::UNIFORM_PAGED)?,
        "serve-zipf-reload" => serve::run(&ctx, &serve::ZIPF_RELOAD)?,
        other => return Err(format!("workload {other:?} has no runner")),
    };
    let (wanted, measured_on) = if ctx.trace {
        (&def.per_layer, measured_on(&args.root)?)
    } else {
        (&def.end_to_end, BTreeMap::new())
    };
    let mut body = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let exercised = !ctx.trace
            || measured_on
                .get(name)
                .is_some_and(|on| on.contains(&ctx.workload));
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if !exercised => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for (name, value) in &outcome.metrics {
        eprintln!("perfbench: {name:<34} {value}");
    }
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = outcome.failures.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    #[test]
    fn layer_map_names_only_defined_metrics_and_workloads() {
        let def = load_definition(&root()).expect("BENCHMARK.json parses");
        let e2e: Vec<&str> = def.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
        let layers: Vec<&str> = def.per_layer.iter().map(|(n, _)| n.as_str()).collect();
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("layers.json");
        let text = std::fs::read_to_string(&path).expect("layers.json");
        let map = json::parse(&text).expect("layers.json parses");
        let entries = map
            .get("layers")
            .and_then(Value::as_array)
            .expect("a layers list");
        let mut mapped = Vec::new();
        for entry in entries {
            let metric = entry
                .get("metric")
                .and_then(Value::as_str)
                .expect("metric name");
            assert!(
                layers.contains(&metric),
                "{metric} is not a per-layer metric"
            );
            mapped.push(metric.to_string());
            for w in entry
                .get("measured_on")
                .and_then(Value::as_array)
                .expect("measured_on")
            {
                let w = w.as_str().expect("workload name");
                assert!(
                    def.workloads.iter().any(|d| d == w),
                    "{metric} is measured on unknown workload {w}"
                );
            }
            let predictions = ["moves", "unchanged"]
                .iter()
                .filter_map(|k| entry.get(k).and_then(Value::as_array))
                .flatten();
            for m in predictions {
                let target = m.get("e2e").and_then(Value::as_str).expect("e2e name");
                assert!(e2e.contains(&target), "{metric} moves unknown {target}");
                for w in m
                    .get("workloads")
                    .and_then(Value::as_array)
                    .expect("workloads")
                {
                    let w = w.as_str().expect("workload name");
                    assert!(
                        def.workloads.iter().any(|d| d == w),
                        "{metric} names unknown workload {w}"
                    );
                }
            }
        }
        for layer in layers {
            assert!(
                mapped.iter().any(|m| m == layer),
                "{layer} has no entry in layers.json"
            );
        }
    }

    #[test]
    fn every_workload_has_a_runner() {
        let def = load_definition(&root()).expect("BENCHMARK.json parses");
        for w in &def.workloads {
            assert!(
                [
                    "figures-default",
                    "serve-uniform-paged",
                    "serve-zipf-reload"
                ]
                .contains(&w.as_str()),
                "{w} has no runner"
            );
        }
    }
}
