//! The scenario engine: the registry of adversarial workload scenarios, the
//! per-scenario report type, and the glue that turns a run into one
//! trajectory line for [`crate::record`].

use std::fmt;

use crate::record::{Gate, Json};

/// Simbench's error type: a stage description plus the underlying failure.
/// Scenarios cross four crates' error types (serve, wire, router, core), so
/// everything funnels into one displayable wrapper via `Ctx::ctx`.
#[derive(Debug)]
pub struct SimError(pub String);

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SimError {}

/// Result alias used throughout the crate.
pub(crate) type SimResult<T> = Result<T, SimError>;

/// Attaches a stage description while converting any displayable error.
pub(crate) trait Ctx<T> {
    /// Maps the error into a [`SimError`] prefixed with `what`.
    fn ctx(self, what: &str) -> SimResult<T>;
}

impl<T, E: fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> SimResult<T> {
        self.map_err(|e| SimError(format!("{what}: {e}")))
    }
}

/// Builds a [`SimError`] directly from a condition description.
pub(crate) fn sim_err(what: impl Into<String>) -> SimError {
    SimError(what.into())
}

/// One recorded metric: key, value, and how the regression gate treats it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name within the scenario's JSON object.
    pub key: &'static str,
    /// Recorded value.
    pub value: Json,
    /// Gate policy for `--check`.
    pub gate: Gate,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (the key in the trajectory line's `scenarios` object).
    pub name: &'static str,
    /// Recorded metrics in emission order.
    pub metrics: Vec<Metric>,
}

impl ScenarioReport {
    /// Starts an empty report.
    pub fn new(name: &'static str) -> Self {
        ScenarioReport {
            name,
            metrics: Vec::new(),
        }
    }

    /// Records an integer metric.
    pub(crate) fn int(&mut self, key: &'static str, value: i64, gate: Gate) {
        self.metrics.push(Metric {
            key,
            value: Json::Int(value),
            gate,
        });
    }

    /// Records a float metric.
    pub(crate) fn float(&mut self, key: &'static str, value: f64, gate: Gate) {
        self.metrics.push(Metric {
            key,
            value: Json::Float(value),
            gate,
        });
    }

    /// Records an arbitrary JSON metric.
    pub fn value(&mut self, key: &'static str, value: Json, gate: Gate) {
        self.metrics.push(Metric { key, value, gate });
    }

    /// The scenario's JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| (m.key.to_string(), m.value.clone()))
                .collect(),
        )
    }
}

/// Per-scenario run context: the seed a scenario derives its streams from.
pub struct ScenarioCtx {
    /// Base seed of the whole run (scenarios derive their own streams via
    /// `ScenarioCtx::rng_seed`, so adding a scenario never perturbs the
    /// others' traces).
    pub seed: u64,
    scenario: &'static str,
}

impl ScenarioCtx {
    fn new(seed: u64, scenario: &'static str) -> Self {
        ScenarioCtx { seed, scenario }
    }

    /// A scenario-specific RNG seed: the run seed folded with the scenario
    /// name (FNV-1a), so every scenario replays its own independent stream.
    pub(crate) fn rng_seed(&self) -> u64 {
        ofscil::tensor::bytes::fnv1a64(self.scenario.as_bytes()) ^ self.seed
    }
}

/// A registered scenario.
pub struct Scenario {
    /// Name used in `--scenario` selectors and the trajectory line.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub summary: &'static str,
    /// Whether the scenario is part of the CI `smoke` subset.
    pub smoke: bool,
    /// The implementation.
    pub run: fn(&ScenarioCtx) -> SimResult<ScenarioReport>,
}

/// Every scenario, in trajectory emission order.
pub fn scenarios() -> &'static [Scenario] {
    &[
        Scenario {
            name: "zipf_mixed",
            summary: "Zipfian tenant popularity over mixed infer/learn traffic (in-process)",
            smoke: true,
            run: crate::scenarios::zipf_mixed,
        },
        Scenario {
            name: "diurnal",
            summary: "raised-cosine daily load curve against a wire server",
            smoke: false,
            run: crate::scenarios::diurnal,
        },
        Scenario {
            name: "learn_storm",
            summary: "bursty learn storms with snapshot/replication consistency checks",
            smoke: false,
            run: crate::scenarios::learn_storm,
        },
        Scenario {
            name: "drift",
            summary: "class-distribution drift: phased onboarding with recency-hot queries",
            smoke: false,
            run: crate::scenarios::drift,
        },
        Scenario {
            name: "byzantine_frames",
            summary: "malformed/truncated frames against a router + 2-shard topology",
            smoke: true,
            run: crate::scenarios::byzantine_frames,
        },
        Scenario {
            name: "budget_exhaustion",
            summary: "admission-control exhaustion attack; accepted/rejected conservation",
            smoke: false,
            run: crate::scenarios::budget_exhaustion,
        },
        Scenario {
            name: "stale_replay",
            summary: "stale repl-seq import replay; sequence monotonicity defense",
            smoke: false,
            run: crate::scenarios::stale_replay,
        },
        Scenario {
            name: "chaos_recovery",
            summary: "kill 1 of 3 shards mid-burst; the control plane auto-heals, zero manual calls",
            smoke: false,
            run: crate::scenarios::chaos_recovery,
        },
        Scenario {
            name: "obs_soak",
            summary: "durable-obs soak: spill GC, rollup contract, torn-tail kill + rehydrate",
            smoke: false,
            run: crate::scenarios::obs_soak,
        },
        Scenario {
            name: "stream_soak",
            summary: "live-tail soak: drop-and-count shed, cursor resume splice, cluster stream convergence",
            smoke: false,
            run: crate::scenarios::stream_soak,
        },
        Scenario {
            name: "audit",
            summary: "FSCIL learning-quality audit through the serve path vs NCM/ETF baselines",
            smoke: true,
            run: crate::audit::audit,
        },
    ]
}

/// Resolves a `--scenario` selector (`all`, `smoke`, or one scenario name).
///
/// # Errors
///
/// Returns a [`SimError`] naming the valid selectors for unknown names.
pub fn select(selector: &str) -> SimResult<Vec<&'static Scenario>> {
    let all = scenarios();
    match selector {
        "all" => Ok(all.iter().collect()),
        "smoke" => Ok(all.iter().filter(|s| s.smoke).collect()),
        name => all
            .iter()
            .find(|s| s.name == name)
            .map(|s| vec![s])
            .ok_or_else(|| {
                let names: Vec<&str> = all.iter().map(|s| s.name).collect();
                sim_err(format!(
                    "unknown scenario {name:?}; valid selectors: all, smoke, {}",
                    names.join(", ")
                ))
            }),
    }
}

/// The outcome of a full run: the trajectory line plus the gates collected
/// from every scenario report (what `--check` compares against the committed
/// line).
pub struct RunOutcome {
    /// The JSON line to append to the trajectory file.
    pub line: Json,
    /// `(scenario, metric, gate)` triples for [`crate::record::compare_runs`].
    pub gates: Vec<(String, String, Gate)>,
}

/// Runs the selected scenarios and assembles the trajectory line. `progress`
/// is invoked before each scenario with its name (the CLI prints it; tests
/// pass a no-op).
///
/// # Errors
///
/// Fails on the first scenario error — a scenario that cannot uphold its own
/// invariants (e.g. a hostile frame that got accepted) is a bug, not a data
/// point.
pub fn run(
    selected: &[&'static Scenario],
    seed: u64,
    mut progress: impl FnMut(&str),
) -> SimResult<RunOutcome> {
    let mut scenario_objects = Vec::new();
    let mut gates = Vec::new();
    for scenario in selected {
        progress(scenario.name);
        let report = (scenario.run)(&ScenarioCtx::new(seed, scenario.name))?;
        for metric in &report.metrics {
            if metric.gate != Gate::None {
                gates.push((
                    scenario.name.to_string(),
                    metric.key.to_string(),
                    metric.gate,
                ));
            }
        }
        scenario_objects.push((scenario.name.to_string(), report.to_json()));
    }
    let line = Json::Obj(vec![
        ("bench".to_string(), Json::Str("simbench".to_string())),
        ("seed".to_string(), Json::Int(seed as i64)),
        ("scenarios".to_string(), Json::Obj(scenario_objects)),
    ]);
    Ok(RunOutcome { line, gates })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_resolve_and_reject() {
        assert_eq!(select("all").unwrap().len(), scenarios().len());
        let smoke = select("smoke").unwrap();
        let names: Vec<&str> = smoke.iter().map(|s| s.name).collect();
        // The CI smoke subset must include one byzantine scenario and the
        // learning-quality audit.
        assert!(names.contains(&"byzantine_frames"));
        assert!(names.contains(&"audit"));
        assert_eq!(select("drift").unwrap()[0].name, "drift");
        assert!(select("nope").is_err());
    }

    #[test]
    fn scenario_rng_seeds_are_distinct_per_scenario_and_seed() {
        let a = ScenarioCtx::new(7, "zipf_mixed").rng_seed();
        let b = ScenarioCtx::new(7, "diurnal").rng_seed();
        let c = ScenarioCtx::new(8, "zipf_mixed").rng_seed();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And stable: same inputs, same stream.
        assert_eq!(a, ScenarioCtx::new(7, "zipf_mixed").rng_seed());
    }

    #[test]
    fn reports_collect_gates_and_render_in_order() {
        let mut report = ScenarioReport::new("demo");
        report.int("count", 3, Gate::Exact);
        report.float("accuracy", 0.5, Gate::AtLeast { slack: 0.02 });
        report.value("sessions", Json::Arr(vec![Json::Float(0.25)]), Gate::None);
        assert_eq!(
            report.to_json().render(),
            "{\"count\":3,\"accuracy\":0.5,\"sessions\":[0.25]}"
        );
    }
}
