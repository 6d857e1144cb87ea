//! What the harness prints. Every line on standard output is one JSON
//! object rendered by simbench's recorder (the workspace's one JSON writer);
//! the last line of a single-workload run is the result object.

use ofscil_simbench::record::Json;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measurement, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let body = Json::Obj(vec![
                ("value".into(), Json::Float(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), body)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Where the numbers came from: cores, compiler, commit.
pub fn provenance() -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        );
    vec![
        ("nproc".into(), Json::Int(nproc as i64)),
        ("rustc".into(), Json::Str(rustc)),
        (
            "commit".into(),
            Json::Str(commit(&repo_root()).unwrap_or_else(|| "unknown".into())),
        ),
    ]
}

/// The repository (or checkout) this package was built in.
pub fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `HEAD` of the enclosing git repository, read from its files; `None` in a
/// checkout that is not one.
fn commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .map(|hash| hash.trim().to_string()),
        None => Some(head.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_simbench::record::parse;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let metrics = [
            Metric {
                name: "infer_rps",
                value: 8123.456789012345,
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            },
        ];
        let text = result_line(1000, 0, &metrics).render();
        assert!(!text.contains('\n'));
        let parsed = parse(&text).unwrap();
        let Json::Obj(fields) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let rps = parsed
            .get("metrics")
            .and_then(|m| m.get("infer_rps"))
            .unwrap();
        assert_eq!(
            rps.get("value").and_then(Json::as_f64),
            Some(8123.456789012345)
        );
        assert_eq!(rps.get("unit"), Some(&Json::Str("1/s".into())));
        let failing = result_line(10, 1, &metrics);
        assert_eq!(failing.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn provenance_lines_parse() {
        let text = Json::Obj(provenance()).render();
        let parsed = parse(&text).unwrap();
        assert!(parsed.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(parsed.get("rustc").is_some() && parsed.get("commit").is_some());
    }
}
