//! Wire codecs for the `POST /v1/*` batch-execution protocol.
//!
//! Both ends of [`RemoteBackend`](crate::RemoteBackend) — the client in
//! this crate and the host inside `sdl-portal-server` — encode through
//! these functions, so the protocol has exactly one definition. Everything
//! that must survive the trip bit-exactly does: ratios ride as JSON floats
//! (shortest-round-trip formatting), colors as integers, times as integer
//! microseconds. Plate frames ride as raw bytes after the `/v1/batch`
//! response's JSON head ([`encode_result`]), never inside JSON.

use crate::backend::{BackendCaps, BackendClose, Batch, BatchResult, WellMeasurement};
use crate::config::{need_u32, parse_rgb_triple, ConfigError};
use crate::metrics::SdlMetrics;
use bytes::Bytes;
use sdl_conf::{from_json, to_json, Value, ValueExt};
use sdl_desim::{SimDuration, SimTime};
use sdl_instruments::WellIndex;
use sdl_wei::Counters;

fn bad(what: impl Into<String>) -> ConfigError {
    ConfigError(what.into())
}

fn need_u64(v: &Value, key: &str) -> Result<u64, ConfigError> {
    v.opt_i64(key)
        .filter(|n| *n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| bad(format!("missing or negative '{key}'")))
}

/// Encode capabilities (rides in the `/v1/experiments` response).
pub fn caps_to_value(caps: &BackendCaps) -> Value {
    let mut v = Value::map();
    v.set("plate_capacity", caps.plate_capacity as i64);
    v.set("dye_channels", caps.dye_channels as i64);
    v.set("provides_images", caps.provides_images);
    v.set("real_telemetry", caps.real_telemetry);
    v
}

/// Decode capabilities.
pub fn caps_from_value(v: &Value) -> Result<BackendCaps, ConfigError> {
    Ok(BackendCaps {
        plate_capacity: need_u32(v.get("plate_capacity"), "plate_capacity").map_err(bad)?,
        dye_channels: need_u32(v.get("dye_channels"), "dye_channels").map_err(bad)?,
        provides_images: v.opt_bool("provides_images").unwrap_or(false),
        real_telemetry: v.opt_bool("real_telemetry").unwrap_or(false),
    })
}

/// Encode one batch (the `/v1/batch` request body).
pub fn batch_to_value(batch: &Batch) -> Value {
    let mut ratios = Value::seq();
    for point in &batch.ratios {
        let mut row = Value::seq();
        for r in point {
            row.push(*r);
        }
        ratios.push(row);
    }
    let mut v = Value::map();
    v.set("run", batch.run as i64);
    v.set("ratios", ratios);
    v
}

/// Decode one batch.
pub fn batch_from_value(v: &Value) -> Result<Batch, ConfigError> {
    let run = need_u32(v.get("run"), "run").map_err(bad)?;
    let rows =
        v.get("ratios").and_then(Value::as_seq).ok_or_else(|| bad("missing 'ratios' sequence"))?;
    let mut ratios = Vec::with_capacity(rows.len());
    for row in rows {
        let point = row.as_seq().ok_or_else(|| bad("ratios rows must be sequences"))?;
        let mut out = Vec::with_capacity(point.len());
        for r in point {
            out.push(r.as_f64().ok_or_else(|| bad("ratios entries must be numbers"))?);
        }
        ratios.push(out);
    }
    Ok(Batch { run, ratios })
}

/// Encode a batch result's JSON head: measurements, times, the timing log,
/// and `image_len` when a frame follows. The frame itself is not part of
/// the head; [`encode_result`] appends it.
pub fn result_to_value(result: &BatchResult) -> Value {
    let mut measurements = Value::seq();
    for m in &result.measurements {
        let mut row = Value::map();
        row.set("well", m.well.to_string().as_str());
        let mut rgb = Value::seq();
        for c in m.color.channels() {
            rgb.push(c as i64);
        }
        row.set("rgb", rgb);
        measurements.push(row);
    }
    let mut v = Value::map();
    v.set("measurements", measurements);
    v.set("elapsed_us", result.elapsed.as_micros() as i64);
    v.set("batch_wall_us", result.batch_wall.as_micros() as i64);
    if let Some(timing) = &result.timing {
        v.set("timing", timing.clone());
    }
    if let Some(image) = &result.image {
        v.set("image_len", image.len() as i64);
    }
    v
}

/// The fields a batch-result head may carry. Anything else — say the hex
/// frame field of a peer that still ships frames inside the JSON — is
/// refused, so a mismatched peer fails loudly instead of losing its frames.
const RESULT_FIELDS: [&str; 5] =
    ["measurements", "elapsed_us", "batch_wall_us", "timing", "image_len"];

/// Decode a batch result's JSON head. The result carries no frame;
/// [`decode_result`] attaches the one that follows the head.
pub fn result_from_value(v: &Value) -> Result<BatchResult, ConfigError> {
    let fields = v.as_map().ok_or_else(|| bad("batch result must be a map"))?;
    if let Some((key, _)) = fields.iter().find(|(k, _)| !RESULT_FIELDS.contains(&k.as_str())) {
        return Err(bad(format!("unknown batch result field '{key}'")));
    }
    let rows = v
        .get("measurements")
        .and_then(Value::as_seq)
        .ok_or_else(|| bad("missing 'measurements' sequence"))?;
    let mut measurements = Vec::with_capacity(rows.len());
    for row in rows {
        let well = row
            .opt_str("well")
            .and_then(WellIndex::parse)
            .ok_or_else(|| bad("measurement rows need a parsable 'well'"))?;
        let rgb = row.get("rgb").ok_or_else(|| bad("missing 'rgb'"))?;
        measurements.push(WellMeasurement { well, color: parse_rgb_triple(rgb, "rgb")? });
    }
    Ok(BatchResult {
        measurements,
        elapsed: SimTime::from_micros(need_u64(v, "elapsed_us")?),
        // Absent on pre-telemetry workers: a zero wall is the recorded
        // "unknown" value, matching the old zeroed-telemetry behavior. A
        // present wall must be a non-negative integer like every other time.
        batch_wall: SimDuration::from_micros(match v.get("batch_wall_us") {
            Some(wall) if !wall.is_null() => need_u64(v, "batch_wall_us")?,
            _ => 0,
        }),
        timing: v.get("timing").cloned(),
        image: None,
    })
}

/// A decoded `/v1/batch` response body.
#[derive(Debug)]
pub enum BatchReply {
    /// The batch ran: its result, with the frame when one followed.
    Done(BatchResult),
    /// The sciclops ran dry before the batch could be mixed. The worker
    /// tunnels this termination criterion as a frameless
    /// `{"error_kind": "out_of_plates", "error": …}` head.
    OutOfPlates,
}

/// Encode a batch result as the `/v1/batch` response body: the compact
/// JSON head ([`result_to_value`]) and, when the result carries a plate
/// frame, one `\n` followed by the frame's raw bytes.
///
/// Compact JSON never holds a raw newline (strings escape it), so the first
/// `\n` of a body always ends the head, whatever bytes the frame holds.
pub fn encode_result(result: &BatchResult) -> Vec<u8> {
    let head = to_json(&result_to_value(result));
    let frame = result.image.as_deref();
    let mut body = Vec::with_capacity(head.len() + 1 + frame.map_or(0, <[u8]>::len));
    body.extend_from_slice(head.as_bytes());
    if let Some(frame) = frame {
        body.push(b'\n');
        body.extend_from_slice(frame);
    }
    body
}

/// Decode a `/v1/batch` response body ([`encode_result`]'s output, or the
/// out-of-plates head). The head must be UTF-8 JSON; `image_len` must be
/// present exactly when a frame follows the head, and equal its length.
/// Any other body is an error, never a panic.
pub fn decode_result(body: &[u8]) -> Result<BatchReply, ConfigError> {
    let (head, frame) = match body.iter().position(|&b| b == b'\n') {
        Some(at) => (&body[..at], Some(&body[at + 1..])),
        None => (body, None),
    };
    let head = std::str::from_utf8(head).map_err(|e| bad(format!("head is not UTF-8: {e}")))?;
    let head = from_json(head).map_err(|e| bad(format!("bad head JSON: {e}")))?;
    if let Some(kind) = head.opt_str("error_kind") {
        return match (kind, frame) {
            ("out_of_plates", None) => Ok(BatchReply::OutOfPlates),
            _ => Err(bad(format!("unexpected lab error '{kind}'"))),
        };
    }
    let image_len = match head.get("image_len") {
        None => None,
        Some(n) => Some(
            n.as_i64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| bad("'image_len' must be a non-negative integer"))?,
        ),
    };
    let image = match (image_len, frame) {
        (None, None) => None,
        (Some(len), Some(frame)) if len == frame.len() => Some(Bytes::copy_from_slice(frame)),
        (Some(len), Some(frame)) => {
            return Err(bad(format!("'image_len' is {len} but {} frame bytes follow", frame.len())))
        }
        (Some(_), None) => return Err(bad("'image_len' is set but no frame follows the head")),
        (None, Some(_)) => return Err(bad("bytes follow a head without 'image_len'")),
    };
    let mut result = result_from_value(&head)?;
    result.image = image;
    Ok(BatchReply::Done(result))
}

/// Encode the final accounting (the `/v1/close` response body).
pub fn close_to_value(close: &BackendClose) -> Value {
    let mut counters = Value::map();
    counters.set("attempts", close.counters.attempts as i64);
    counters.set("completed", close.counters.completed as i64);
    counters.set("robotic_completed", close.counters.robotic_completed as i64);
    counters.set("reception_faults", close.counters.reception_faults as i64);
    counters.set("action_faults", close.counters.action_faults as i64);
    counters.set("human_interventions", close.counters.human_interventions as i64);

    let m = &close.metrics;
    let mut metrics = Value::map();
    metrics.set("twh_us", m.twh.as_micros() as i64);
    metrics.set("ccwh", m.ccwh as i64);
    metrics.set("synthesis_us", m.synthesis.as_micros() as i64);
    metrics.set("transfer_us", m.transfer.as_micros() as i64);
    metrics.set("logistics_us", m.logistics.as_micros() as i64);
    metrics.set("total_us", m.total.as_micros() as i64);
    metrics.set("colors_mixed", m.colors_mixed as i64);
    metrics.set("time_per_color_us", m.time_per_color.as_micros() as i64);
    metrics.set("robotic_commands", m.robotic_commands as i64);
    metrics.set("total_commands", m.total_commands as i64);
    metrics.set("human_interventions", m.human_interventions as i64);

    let mut v = Value::map();
    v.set("duration_us", close.duration.as_micros() as i64);
    v.set("plates_used", close.plates_used as i64);
    v.set("counters", counters);
    v.set("metrics", metrics);
    v
}

/// Decode the final accounting.
pub fn close_from_value(v: &Value) -> Result<BackendClose, ConfigError> {
    let c = v.get("counters").ok_or_else(|| bad("missing 'counters'"))?;
    let counters = Counters {
        attempts: need_u64(c, "attempts")?,
        completed: need_u64(c, "completed")?,
        robotic_completed: need_u64(c, "robotic_completed")?,
        reception_faults: need_u64(c, "reception_faults")?,
        action_faults: need_u64(c, "action_faults")?,
        human_interventions: need_u64(c, "human_interventions")?,
    };
    let m = v.get("metrics").ok_or_else(|| bad("missing 'metrics'"))?;
    let dur = |key: &str| -> Result<SimDuration, ConfigError> {
        Ok(SimDuration::from_micros(need_u64(m, key)?))
    };
    let metrics = SdlMetrics {
        twh: dur("twh_us")?,
        ccwh: need_u64(m, "ccwh")?,
        synthesis: dur("synthesis_us")?,
        transfer: dur("transfer_us")?,
        logistics: dur("logistics_us")?,
        total: dur("total_us")?,
        colors_mixed: need_u32(m.get("colors_mixed"), "colors_mixed").map_err(bad)?,
        time_per_color: dur("time_per_color_us")?,
        robotic_commands: need_u64(m, "robotic_commands")?,
        total_commands: need_u64(m, "total_commands")?,
        human_interventions: need_u64(m, "human_interventions")?,
    };
    Ok(BackendClose {
        duration: SimDuration::from_micros(need_u64(v, "duration_us")?),
        metrics,
        counters,
        plates_used: need_u32(v.get("plates_used"), "plates_used").map_err(bad)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdl_color::Rgb8;
    use sdl_wei::Reliability;

    #[test]
    fn batch_roundtrips_bit_exactly_through_json() {
        let batch = Batch {
            run: 7,
            ratios: vec![
                vec![0.123_456_789_012_345_68, 1.0 / 3.0, 0.0, 1.0],
                vec![f64::MIN_POSITIVE, 0.9999999999999999, 2e-308, 0.5],
            ],
        };
        let json = to_json(&batch_to_value(&batch));
        let back = batch_from_value(&from_json(&json).unwrap()).unwrap();
        assert_eq!(back.run, 7);
        for (a, b) in batch.ratios.iter().flatten().zip(back.ratios.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} drifted to {b}");
        }
    }

    fn done(body: &[u8]) -> BatchResult {
        match decode_result(body).unwrap() {
            BatchReply::Done(result) => result,
            BatchReply::OutOfPlates => panic!("a result body decoded as out-of-plates"),
        }
    }

    #[test]
    fn result_roundtrips_through_the_framed_body() {
        let result = BatchResult {
            measurements: vec![
                WellMeasurement { well: WellIndex::new(0, 0), color: Rgb8::new(1, 2, 3) },
                WellMeasurement { well: WellIndex::new(7, 11), color: Rgb8::new(255, 0, 128) },
            ],
            elapsed: SimTime::from_micros(123_456_789),
            batch_wall: sdl_desim::SimDuration::from_micros(7_654_321),
            timing: Some({
                let mut t = Value::map();
                t.set("workflow", "cp_wf_mixcolor");
                t
            }),
            image: Some(Bytes::from_static(b"BM\x00\x01\xfe\xff")),
        };
        let back = done(&encode_result(&result));
        assert_eq!(back.measurements, result.measurements);
        assert_eq!(back.elapsed, result.elapsed);
        assert_eq!(back.batch_wall, result.batch_wall);
        assert_eq!(back.timing.unwrap().opt_str("workflow"), Some("cp_wf_mixcolor"));
        assert_eq!(back.image.unwrap().as_ref(), b"BM\x00\x01\xfe\xff");
        // Pre-telemetry workers omit the wall; decode falls back to zero.
        let mut v = result_to_value(&result);
        v.set("batch_wall_us", Value::Null);
        assert_eq!(result_from_value(&v).unwrap().batch_wall, sdl_desim::SimDuration::ZERO);
    }

    #[test]
    fn out_of_plates_head_decodes_and_malformed_bodies_do_not() {
        let oop = br#"{"error_kind":"out_of_plates","error":"sciclops: out of plates"}"#;
        assert!(matches!(decode_result(oop), Ok(BatchReply::OutOfPlates)));
        let framed = [&oop[..], b"\nBM"].concat();
        assert!(decode_result(&framed).is_err(), "an error head carries no frame");
        assert!(decode_result(br#"{"error_kind":"on_fire"}"#).is_err());

        let head = r#"{"measurements":[],"elapsed_us":1,"batch_wall_us":2"#;
        let with = |tail: &str| format!("{head}{tail}").into_bytes();
        assert!(decode_result(&with("}")).is_ok());
        // A head field the decoder does not know — such as a frame shipped
        // inside the JSON by a mismatched peer — is refused, not dropped.
        assert!(decode_result(&with(r#","frame":"424d"}"#)).is_err());
        // `image_len` without a separator, negative, oversized, or short.
        assert!(decode_result(&with(r#","image_len":2}"#)).is_err());
        assert!(decode_result(&with(",\"image_len\":-1}\n")).is_err());
        assert!(decode_result(&with(",\"image_len\":9223372036854775807}\nBM")).is_err());
        assert!(decode_result(&with(",\"image_len\":3}\nBM")).is_err());
        assert!(decode_result(&with(",\"image_len\":\"2\"}\nBM")).is_err());
        // Bytes after a head that announced no frame.
        assert!(decode_result(&with("}\n")).is_err());
        assert!(decode_result(&with("}\nBM")).is_err());
        // The head must be UTF-8.
        let mut bad_utf8 = with(r#","timing":"x"}"#);
        let at = bad_utf8.iter().position(|&b| b == b'x').unwrap();
        bad_utf8[at] = 0xff;
        assert!(decode_result(&bad_utf8).is_err());
        assert!(decode_result(b"").is_err());
    }

    fn sample_close() -> BackendClose {
        let counters = Counters {
            attempts: 10,
            completed: 9,
            robotic_completed: 7,
            reception_faults: 1,
            action_faults: 0,
            human_interventions: 2,
        };
        let metrics = SdlMetrics::compute(
            &[],
            &counters,
            &Reliability::default(),
            SimTime::ZERO,
            SimTime::from_micros(5_000_000),
            3,
        );
        BackendClose {
            duration: SimDuration::from_micros(5_000_000),
            metrics,
            counters,
            plates_used: 2,
        }
    }

    #[test]
    fn close_roundtrips_through_json() {
        let close = sample_close();
        let json = to_json(&close_to_value(&close));
        let back = close_from_value(&from_json(&json).unwrap()).unwrap();
        assert_eq!(back.duration, close.duration);
        assert_eq!(back.counters, close.counters);
        assert_eq!(back.metrics, close.metrics);
        assert_eq!(back.plates_used, 2);
    }

    #[test]
    fn counts_outside_u32_are_refused_not_wrapped() {
        let batch = |run: &str| from_json(&format!(r#"{{"run": {run}, "ratios": []}}"#)).unwrap();
        assert_eq!(batch_from_value(&batch("4294967295")).unwrap().run, u32::MAX);
        for run in ["4294967296", "4294967297", "-1", "1.5", "\"1\""] {
            assert!(batch_from_value(&batch(run)).is_err(), "run {run}");
        }

        let caps = caps_to_value(&BackendCaps {
            plate_capacity: 96,
            dye_channels: 4,
            provides_images: true,
            real_telemetry: true,
        });
        for key in ["plate_capacity", "dye_channels"] {
            let mut v = caps.clone();
            v.set(key, 1i64 << 32);
            assert!(caps_from_value(&v).is_err(), "{key}");
        }

        let close = close_to_value(&sample_close());
        let mut v = close.clone();
        v.set("plates_used", (1i64 << 32) + 2);
        assert!(close_from_value(&v).is_err(), "plates_used");
        let mut metrics = close.get("metrics").unwrap().clone();
        metrics.set("colors_mixed", (1i64 << 32) + 3);
        let mut v = close;
        v.set("metrics", metrics);
        assert!(close_from_value(&v).is_err(), "colors_mixed");

        // A batch wall, when present, is a non-negative integer too.
        for wall in ["-5", "1.5", "\"7\""] {
            let head = format!(r#"{{"measurements":[],"elapsed_us":1,"batch_wall_us":{wall}}}"#);
            assert!(result_from_value(&from_json(&head).unwrap()).is_err(), "batch_wall_us {wall}");
        }

        // An rgb entry must be exactly three 0-255 integers.
        for rgb in ["[1, 2, 3, \"x\"]", "[1, 2, 256]", "[-1, 2, 3]", "[1, 2]"] {
            let head =
                format!(r#"{{"measurements":[{{"well":"A1","rgb":{rgb}}}],"elapsed_us":1}}"#);
            assert!(result_from_value(&from_json(&head).unwrap()).is_err(), "rgb {rgb}");
        }
    }

    /// Results with every field populated at random: timing strings hold
    /// `\n`, quotes and control characters, and frames hold `\n` bytes.
    fn arb_result() -> impl Strategy<Value = BatchResult> {
        let well = (0..8usize, 0..12usize, any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(row, col, r, g, b)| WellMeasurement {
                well: WellIndex::new(row, col),
                color: Rgb8::new(r, g, b),
            },
        );
        let frame = proptest::collection::vec(prop_oneof![Just(b'\n'), any::<u8>()], 0..2048);
        (
            proptest::collection::vec(well, 0..8),
            0..1u64 << 52,
            0..1u64 << 52,
            proptest::collection::vec(any::<String>(), 0..4),
            any::<bool>(),
            frame,
            any::<bool>(),
        )
            .prop_map(|(measurements, elapsed, wall, steps, timed, frame, imaged)| {
                let timing = timed.then(|| {
                    let mut t = Value::map();
                    t.set("workflow", steps.concat().as_str());
                    t.set("steps", Value::Seq(steps.into_iter().map(Value::Str).collect()));
                    t
                });
                BatchResult {
                    measurements,
                    elapsed: SimTime::from_micros(elapsed),
                    batch_wall: SimDuration::from_micros(wall),
                    timing,
                    image: imaged.then(|| Bytes::from(frame)),
                }
            })
    }

    proptest! {
        /// Arbitrary bytes never panic the decoder.
        #[test]
        fn decoder_never_panics_on_arbitrary_bytes(
            body in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let _ = decode_result(&body);
        }

        /// Nor does a real body with one byte overwritten and its tail cut.
        #[test]
        fn decoder_never_panics_on_damaged_bodies(
            result in arb_result(),
            at in any::<usize>(),
            byte in any::<u8>(),
            cut in any::<usize>(),
        ) {
            let mut body = encode_result(&result);
            let at = at % body.len();
            body[at] = byte;
            body.truncate(cut % (body.len() + 1));
            let _ = decode_result(&body);
        }

        /// Encode then decode is the identity, frames and all.
        #[test]
        fn framed_body_roundtrips(result in arb_result()) {
            let back = done(&encode_result(&result));
            prop_assert_eq!(&back.measurements, &result.measurements);
            prop_assert_eq!(back.elapsed, result.elapsed);
            prop_assert_eq!(back.batch_wall, result.batch_wall);
            prop_assert_eq!(&back.timing, &result.timing);
            prop_assert_eq!(&back.image, &result.image);
        }

        /// Every proper prefix of a body is refused: a cut in the head
        /// leaves broken JSON, a cut at the separator leaves `image_len`
        /// with no frame, and a cut in the frame leaves it short.
        #[test]
        fn truncated_bodies_are_refused(result in arb_result(), cut in any::<usize>()) {
            let body = encode_result(&result);
            let cut = cut % body.len();
            prop_assert!(decode_result(&body[..cut]).is_err(), "prefix of {} bytes", cut);
            if let Some(frame) = &result.image {
                let head = body.len() - frame.len() - 1;
                prop_assert!(decode_result(&body[..head]).is_err());
                if !frame.is_empty() {
                    prop_assert!(decode_result(&body[..body.len() - 1]).is_err());
                }
            }
        }

        /// `image_len` must match the frame exactly.
        #[test]
        fn wrong_image_lengths_are_refused(result in arb_result(), len in any::<i64>()) {
            let frame = result.image.clone().unwrap_or_default();
            let mut head = result_to_value(&result);
            head.set("image_len", len);
            let body = [to_json(&head).as_bytes(), b"\n", &frame].concat();
            let decoded = decode_result(&body);
            prop_assert_eq!(decoded.is_ok(), len == frame.len() as i64, "image_len {}", len);
        }
    }
}
