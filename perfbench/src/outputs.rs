//! Modelled outputs and the golden files they are checked against.
//!
//! The simulator is deterministic: for one scenario every modelled
//! output repeats exactly, so the check is equality, not a tolerance.
//! A golden file holds, per workload, the outputs of each committed
//! `(size, seed)`; `model_drift` counts the outputs that differ.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cg_sim::{Histogram, Json};

use crate::workload::{Scenario, Size, Workload};

/// The modelled outputs of one pass: `(name, unit, value)` in a fixed
/// order. Histograms appear as one `<name>.<bucket>` count per bucket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs(pub Vec<(String, &'static str, f64)>);

impl Outputs {
    /// Appends one output. Non-finite values would not survive a JSON
    /// round trip, so they are a bug here.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "output {name} is {value}");
        self.0.push((name.to_owned(), unit, value));
    }

    /// Appends a histogram's non-empty buckets.
    pub fn push_hist(&mut self, name: &str, hist: &Histogram) {
        for (idx, count) in hist.nonzero_buckets() {
            self.push(&format!("{name}.{idx}"), "count", count as f64);
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, _, v)| v)
    }

    /// The outputs that are not histogram buckets.
    pub fn scalars(&self) -> impl Iterator<Item = &(String, &'static str, f64)> {
        self.0.iter().filter(|(n, ..)| !is_bucket(n))
    }

    /// The values by name.
    pub fn values(&self) -> BTreeMap<String, f64> {
        self.0.iter().map(|(n, _, v)| (n.clone(), *v)).collect()
    }

    /// The values as a JSON object, in output order.
    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(n, _, v)| (n.clone(), Json::from(*v))))
    }
}

/// Whether an output is a histogram bucket (`<name>_hist.<bucket>`).
pub fn is_bucket(name: &str) -> bool {
    name.contains("_hist.")
}

/// Names whose values differ between `expected` and `got`, including
/// names present on one side only.
pub fn drift(expected: &BTreeMap<String, f64>, got: &BTreeMap<String, f64>) -> Vec<String> {
    let mut names: Vec<&String> = expected.keys().chain(got.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter(|n| expected.get(*n) != got.get(*n))
        .cloned()
        .collect()
}

/// The directory holding the committed golden files.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"))
}

fn golden_path(dir: &Path, workload: Workload) -> PathBuf {
    dir.join(format!("{}.json", workload.name()))
}

/// The committed outputs of one workload, keyed by `(size, seed)`.
#[derive(Debug, Default)]
pub struct Goldens(BTreeMap<(String, u64), BTreeMap<String, f64>>);

impl Goldens {
    /// Reads a workload's golden file from `dir`. A missing file is an
    /// error: a run without it would check no output exactly.
    pub fn load(dir: &Path, workload: Workload) -> Result<Goldens, String> {
        let path = golden_path(dir, workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("golden file {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = BTreeMap::new();
        for size in [Size::Full, Size::Smoke] {
            let Some(Json::Obj(seeds)) = doc.get(size.name()) else {
                continue;
            };
            for (seed, values) in seeds {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("{}: bad seed {seed}", path.display()))?;
                let Json::Obj(pairs) = values else {
                    return Err(format!("{}: seed {seed} is not an object", path.display()));
                };
                let values = pairs
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or(format!("{k} not a number"))?)))
                    .collect::<Result<_, String>>()?;
                out.insert((size.name().to_owned(), seed), values);
            }
        }
        Ok(Goldens(out))
    }

    /// The committed outputs of a scenario, if any.
    pub fn get(&self, scn: &Scenario) -> Option<&BTreeMap<String, f64>> {
        self.0.get(&(scn.size.name().to_owned(), scn.seed))
    }

    /// Records a scenario's outputs.
    pub fn insert(&mut self, scn: &Scenario, outputs: &Outputs) {
        self.0
            .insert((scn.size.name().to_owned(), scn.seed), outputs.values());
    }

    /// Writes the golden file into `dir`: one line per seed so that a
    /// diff shows which seeds moved.
    pub fn write(&self, dir: &Path, workload: Workload) -> Result<(), String> {
        let mut text = format!("{{\"workload\":\"{}\"", workload.name());
        for size in [Size::Full, Size::Smoke] {
            let entries: Vec<String> = self
                .0
                .iter()
                .filter(|((s, _), _)| s == size.name())
                .map(|((_, seed), values)| {
                    let obj = Json::obj(values.iter().map(|(k, v)| (k.clone(), Json::from(*v))));
                    format!("\"{seed}\":{}", obj.render())
                })
                .collect();
            text.push_str(&format!(
                ",\n\"{}\":{{\n{}\n}}",
                size.name(),
                entries.join(",\n")
            ));
        }
        text.push_str("}\n");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = golden_path(dir, workload);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}
