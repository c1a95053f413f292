//! `Json::parse` reads files that live processes are still appending to
//! (a `samo-launch` worker's `rank<R>.events`): whatever a cut or a
//! flipped bit leaves of a rendered record, the parser returns, and a
//! record cut short is an `Err`, never a shorter record.

use proptest::prelude::*;
use telemetry::json::Json;
use telemetry::ledger::Split;
use telemetry::StepEvent;

/// A step record as a rank writes it, its numbers drawn from `seed`.
fn step(seed: u64, stage: u64, data: u64) -> StepEvent {
    let frac = |k: u64| (seed.rotate_left(k as u32) % 1_000_003) as f64 / 7_919.0;
    StepEvent {
        runtime: "samo_dp_rank",
        step: seed % 997,
        stage,
        data,
        applied: seed & 1 == 0,
        loss_scale: 65536.0 / (1 + seed % 4) as f32,
        steps_taken: seed % 991,
        steps_skipped: seed % 7,
        numel: 10_000 + seed % 100,
        nnz: 2_000 + seed % 50,
        model_state_bytes: seed % 1_000_000,
        formula_state_bytes: (seed & 2 == 0).then_some(seed % 1_000_000),
        allreduce_bytes: seed % 65_536,
        split: Split::planted(std::array::from_fn(|k| (frac(k as u64) * 1e6) as u64), (frac(5) * 1e3) as u64),
    }
}

/// The three kinds of line the repo appends: a step record, a group's
/// `mesh_metrics` (whose entries are step records) and a launcher event
/// with an error text that needs escaping.
fn lines(seed: u64, ranks: u64) -> [String; 3] {
    let per_rank: Vec<Json> = (0..ranks).map(|r| step(seed ^ r, r % 2, r / 2).to_json()).collect();
    let mesh = Json::Obj(vec![
        ("kind".into(), Json::from("mesh_metrics")),
        ("step".into(), Json::UInt(seed % 997)),
        ("ranks".into(), Json::UInt(ranks)),
        ("median_us".into(), Json::Num(1234.5)),
        ("max_us".into(), Json::Num(2345.25)),
        ("per_rank".into(), Json::Arr(per_rank)),
        ("stragglers".into(), Json::Arr(vec![])),
    ]);
    let event = Json::Obj(vec![
        ("kind".into(), Json::from("step_error")),
        ("step".into(), Json::UInt(seed % 997)),
        ("detect_ms".into(), Json::UInt(seed % 10_000)),
        ("err".into(), Json::from("peer 1: \"closed\"\n\tat C:\\ring")),
    ]);
    [step(seed, 0, 1).to_json().render(), mesh.render(), event.render()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every strict prefix of a record is refused: the reader of a file
    /// being appended sees a whole line or an `Err`.
    #[test]
    fn a_truncated_record_is_an_error(seed in any::<u64>(), ranks in 1u64..5, cut in 0.0f64..1.0) {
        for line in lines(seed, ranks) {
            prop_assert!(Json::parse(&line).is_ok(), "{}", line);
            let at = (cut * line.len() as f64) as usize;
            let head = &line[..at.min(line.len() - 1)];
            prop_assert!(Json::parse(head).is_err(), "accepted a cut record: {}", head);
        }
    }

    /// A flipped bit anywhere returns `Ok` or `Err`; it never panics.
    #[test]
    fn a_flipped_bit_never_panics(seed in any::<u64>(), ranks in 1u64..5, at in 0.0f64..1.0, bit in 0u32..8) {
        for line in lines(seed, ranks) {
            let mut bytes = line.into_bytes();
            let i = (at * bytes.len() as f64) as usize % bytes.len();
            bytes[i] ^= 1 << bit;
            if let Ok(text) = String::from_utf8(bytes) {
                let _ = Json::parse(&text);
                // Cut as well: the flip can land in the part a reader saw.
                if let Some(head) = text.get(..i) {
                    let _ = Json::parse(head);
                }
            }
        }
    }
}
