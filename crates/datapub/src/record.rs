//! Published data records.
//!
//! "For each run, the data created includes the colors produced, the timing
//! of each step, the scoring results from the solver, and the raw plate
//! images for quality control" (paper §2.3). These types are the schema of
//! those publications; they serialize to the `sdl-conf` value tree and then
//! to JSON.

use sdl_conf::{Value, ValueExt};

/// One measured sample (one well of one run).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// Experiment identifier (one per application invocation).
    pub experiment_id: String,
    /// Run number within the experiment (1-based; one run per plate batch).
    pub run: u32,
    /// Global sample sequence number within the experiment (1-based).
    pub sample: u32,
    /// Well label ("A1").
    pub well: String,
    /// Solver ratios proposed for this sample.
    pub ratios: Vec<f64>,
    /// Volumes dispensed, µL.
    pub volumes_ul: Vec<f64>,
    /// Measured color (sRGB bytes).
    pub measured: [u8; 3],
    /// Target color (sRGB bytes).
    pub target: [u8; 3],
    /// Score (delta-e distance to target).
    pub score: f64,
    /// Best score seen so far in the experiment.
    pub best_so_far: f64,
    /// Elapsed experiment time at measurement, seconds.
    pub elapsed_s: f64,
    /// Wall-clock duration of the batch that produced this sample, on the
    /// lab's clock (`None` on records published before this telemetry
    /// existed). Lets replayed runs reconstruct real per-batch durations
    /// instead of zeroed placeholders.
    pub batch_wall_s: Option<f64>,
    /// Blob reference of the plate image this sample was read from.
    pub image_ref: Option<String>,
}

impl SampleRecord {
    /// Serialize to a value tree.
    pub fn to_value(&self) -> Value {
        let mut v = Value::map();
        v.set("kind", "sample");
        v.set("experiment_id", self.experiment_id.as_str());
        v.set("run", self.run as i64);
        v.set("sample", self.sample as i64);
        v.set("well", self.well.as_str());
        v.set("ratios", Value::Seq(self.ratios.iter().map(|r| Value::Float(*r)).collect()));
        v.set("volumes_ul", Value::Seq(self.volumes_ul.iter().map(|r| Value::Float(*r)).collect()));
        v.set(
            "measured",
            Value::Seq(self.measured.iter().map(|c| Value::Int(*c as i64)).collect()),
        );
        v.set("target", Value::Seq(self.target.iter().map(|c| Value::Int(*c as i64)).collect()));
        v.set("score", self.score);
        v.set("best_so_far", self.best_so_far);
        v.set("elapsed_s", self.elapsed_s);
        if let Some(wall) = self.batch_wall_s {
            v.set("batch_wall_s", wall);
        }
        match &self.image_ref {
            Some(r) => v.set("image_ref", r.as_str()),
            None => v.set("image_ref", Value::Null),
        };
        v
    }

    /// Parse back from a value tree.
    pub fn from_value(v: &Value) -> Option<SampleRecord> {
        if v.opt_str("kind") != Some("sample") {
            return None;
        }
        let bytes3 = |path: &str| -> Option<[u8; 3]> {
            let seq = v.req(path).ok()?.as_seq()?;
            if seq.len() != 3 {
                return None;
            }
            let mut out = [0u8; 3];
            for (o, s) in out.iter_mut().zip(seq) {
                *o = s.as_i64()?.clamp(0, 255) as u8;
            }
            Some(out)
        };
        let floats = |path: &str| -> Option<Vec<f64>> {
            v.req(path).ok()?.as_seq()?.iter().map(Value::as_f64).collect()
        };
        Some(SampleRecord {
            experiment_id: v.opt_str("experiment_id")?.to_string(),
            run: u32::try_from(v.opt_i64("run")?).ok()?,
            sample: u32::try_from(v.opt_i64("sample")?).ok()?,
            well: v.opt_str("well")?.to_string(),
            ratios: floats("ratios")?,
            volumes_ul: floats("volumes_ul")?,
            measured: bytes3("measured")?,
            target: bytes3("target")?,
            score: v.opt_f64("score")?,
            best_so_far: v.opt_f64("best_so_far")?,
            elapsed_s: v.opt_f64("elapsed_s")?,
            batch_wall_s: v.opt_f64("batch_wall_s"),
            image_ref: v.opt_str("image_ref").map(str::to_string),
        })
    }
}

/// Experiment-level metadata (the portal's top card, Figure 3 left).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment identifier.
    pub experiment_id: String,
    /// Human-readable name ("ColorPickerRPL").
    pub name: String,
    /// ISO-ish date string.
    pub date: String,
    /// Target color.
    pub target: [u8; 3],
    /// Solver name.
    pub solver: String,
    /// Batch size.
    pub batch: u32,
    /// Total sample budget.
    pub sample_budget: u32,
}

impl ExperimentRecord {
    /// Serialize to a value tree.
    pub fn to_value(&self) -> Value {
        let mut v = Value::map();
        v.set("kind", "experiment");
        v.set("experiment_id", self.experiment_id.as_str());
        v.set("name", self.name.as_str());
        v.set("date", self.date.as_str());
        v.set("target", Value::Seq(self.target.iter().map(|c| Value::Int(*c as i64)).collect()));
        v.set("solver", self.solver.as_str());
        v.set("batch", self.batch as i64);
        v.set("sample_budget", self.sample_budget as i64);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_conf::{from_json, to_json};

    fn sample() -> SampleRecord {
        SampleRecord {
            experiment_id: "exp-0816".into(),
            run: 12,
            sample: 173,
            well: "C5".into(),
            ratios: vec![0.2, 0.15, 0.16, 0.62],
            volumes_ul: vec![8.0, 6.0, 6.4, 24.8],
            measured: [119, 121, 118],
            target: [120, 120, 120],
            score: 2.45,
            best_so_far: 2.45,
            elapsed_s: 28_375.5,
            batch_wall_s: None,
            image_ref: Some("blob:ab12cd".into()),
        }
    }

    #[test]
    fn sample_roundtrips_through_json() {
        let rec = sample();
        let text = to_json(&rec.to_value());
        let back = SampleRecord::from_value(&from_json(&text).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn sample_without_image() {
        let mut rec = sample();
        rec.image_ref = None;
        let back = SampleRecord::from_value(&rec.to_value()).unwrap();
        assert_eq!(back.image_ref, None);
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let exp = ExperimentRecord {
            experiment_id: "e".into(),
            name: "ColorPickerRPL".into(),
            date: "2023-08-16".into(),
            target: [120, 120, 120],
            solver: "genetic".into(),
            batch: 1,
            sample_budget: 128,
        };
        assert!(SampleRecord::from_value(&exp.to_value()).is_none());
    }

    #[test]
    fn malformed_values_return_none() {
        let mut v = sample().to_value();
        v.set("measured", Value::Seq(vec![Value::Int(1)])); // wrong arity
        assert!(SampleRecord::from_value(&v).is_none());
        let mut v = sample().to_value();
        v.set("score", "not a number");
        assert!(SampleRecord::from_value(&v).is_none());
    }

    #[test]
    fn out_of_range_run_and_sample_are_not_samples() {
        let mut v = sample().to_value();
        v.set("run", 4_294_967_297i64);
        assert!(SampleRecord::from_value(&v).is_none(), "run 2^32 + 1 wrapped to 1");
        let mut v = sample().to_value();
        v.set("sample", -1i64);
        assert!(SampleRecord::from_value(&v).is_none(), "sample -1 wrapped to 2^32 - 1");
        let mut v = sample().to_value();
        v.set("run", u32::MAX as i64);
        v.set("sample", 0i64);
        assert_eq!(SampleRecord::from_value(&v).map(|s| (s.run, s.sample)), Some((u32::MAX, 0)));
    }
}
