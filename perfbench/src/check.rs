//! Output checks run on every returned query: it must parse, validate
//! against the schema, carry the measure an independently built estimator
//! gives it, and report a satisfied flag that agrees with the constraint.

use crate::stats::Digest;
use sqlgen_core::Constraint;
use sqlgen_engine::{parse, validate, Estimator};
use sqlgen_storage::Database;

pub struct Checker<'a> {
    /// Any database with the workload's schema: validation is schema-level.
    pub schema_db: &'a Database,
    /// Built separately from the generator's own estimator.
    pub estimator: Estimator,
    pub constraint: Constraint,
}

/// Counts of checked outputs plus the digest of everything checked.
#[derive(Debug, Default)]
pub struct Tally {
    pub checked: u64,
    pub failed: u64,
    /// The first few failure messages, for the detail line.
    pub errors: Vec<String>,
    pub digest: Digest,
}

impl Tally {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.checked += other.checked;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

impl Checker<'_> {
    /// Checks one query and folds it into `tally` and its digest.
    pub fn check(&self, tally: &mut Tally, sql: &str, measured: f64, satisfied: bool) {
        tally.checked += 1;
        tally.digest.update(sql.as_bytes());
        tally.digest.update(&measured.to_bits().to_le_bytes());
        tally.digest.update(&[satisfied as u8]);
        if let Err(msg) = self.verdict(sql, measured, satisfied) {
            tally.fail(format!("{msg}: {sql}"));
        }
    }

    fn verdict(&self, sql: &str, measured: f64, satisfied: bool) -> Result<(), String> {
        let stmt = parse(sql).map_err(|e| format!("parse: {e}"))?;
        validate(self.schema_db, &stmt).map_err(|e| format!("validate: {e}"))?;
        let expected = self.estimator.cardinality(&stmt);
        if (expected - measured).abs() > 1e-9 * expected.abs().max(1.0) {
            return Err(format!("measure {measured} but estimator gives {expected}"));
        }
        if self.constraint.satisfied(measured) != satisfied {
            return Err(format!(
                "satisfied={satisfied} disagrees with {}",
                self.constraint
            ));
        }
        Ok(())
    }
}
