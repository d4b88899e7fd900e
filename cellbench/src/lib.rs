//! The cellscope benchmark's workloads, checks and probes; the
//! `cellbench` binary (src/main.rs) runs one workload per process.

pub mod checks;
pub mod layers;
pub mod replay;
pub mod study;
pub mod sys;

use cellscope_scenario::ScenarioConfig;
use std::time::Instant;

/// Worker threads of every executor and replay pipeline, fixed so runs
/// compare across machines with a different core count.
pub const THREADS: usize = 2;

/// Seed of the fixture every run shares: the country, the radio network
/// and the subscriber base. A run's `--seed` draws what happens on it:
/// every trajectory and every signaling event. Fixing the fixture keeps
/// the amount of work alike across seeds, so run-to-run spread measures
/// the program rather than the size of the draw.
pub const FIXTURE_SEED: u64 = 2020;

/// `fixture` with the trajectory and event seeds of `draws`.
pub fn draw(fixture: ScenarioConfig, draws: &ScenarioConfig) -> ScenarioConfig {
    ScenarioConfig {
        seed: draws.seed,
        events: draws.events,
        ..fixture
    }
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["study", "sharded", "replay"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What a run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; empty means correct.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a check's verdict.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(problem) = result {
            eprintln!("CHECK FAILED: {problem}");
            self.problems.push(problem);
        }
    }

    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Call `round` until `seconds` are used up: a further round starts
/// while the time left exceeds half a round, so a run makes the nearest
/// whole number of rounds (at least one).
pub fn for_rounds(seconds: f64, mut round: impl FnMut()) {
    let t0 = Instant::now();
    let mut rounds = 0u32;
    loop {
        round();
        rounds += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds as f64 / 2.0 >= seconds {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload replay --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("replay", 42, 20.0, true)
        );
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse("--workload nosuch --seed 1 --seconds 5").is_err());
        assert!(parse("--workload study --seed 1 --seconds 5 --bogus 3").is_err());
        assert!(parse("--workload study --seconds 5").is_err());
        assert!(parse("--workload study --seed 1").is_err());
        assert!(parse("--workload study --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload study --seed 1 --seconds 0").is_err());
    }

    #[test]
    fn result_line_has_the_result_schema() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("run_s", 1.25, "s");
        assert_eq!(
            o.result_line(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"run_s": {"value": 1.25, "unit": "s"}}}"#
        );
        o.check(Err("wrong".into()));
        assert!(o.result_line().starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
