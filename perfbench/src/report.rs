//! The result a run prints: metrics by name with their unit, operation
//! counts and the correctness verdict.

use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    failed_checks: Vec<String>,
    /// Falsify one observed output before its check (gate self-test).
    pub corrupt: bool,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Record a correctness check; a failed check counts as one failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        if !ok {
            self.failed += 1;
            self.failed_checks.push(format!("{name}: {detail}"));
            eprintln!("CHECK FAILED {name}: {detail}");
        }
    }

    /// Fold in the counts and failed checks of a sub-run.
    pub fn absorb(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failed_checks.extend(other.failed_checks.iter().cloned());
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    /// Keep only the named metrics (in the given order of precedence);
    /// a name with no value is an error in the benchmark itself.
    pub fn select(&self, names: &[String]) -> Result<Report, String> {
        let mut out = Report {
            attempted: self.attempted,
            failed: self.failed,
            failed_checks: self.failed_checks.clone(),
            ..Report::default()
        };
        for n in names {
            let (v, u) =
                self.metrics.get(n).ok_or_else(|| format!("metric {n} was not measured"))?;
            out.metrics.insert(n.clone(), (*v, u));
        }
        Ok(out)
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, (v, u))| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines, one metric each (for stderr).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (n, (v, u)) in &self.metrics {
            s.push_str(&format!("  {n:<44} {v:>16.4} {u}\n"));
        }
        s.push_str(&format!("  attempted {} failed {}\n", self.attempted, self.failed));
        for c in &self.failed_checks {
            s.push_str(&format!("  failed check: {c}\n"));
        }
        s
    }
}
