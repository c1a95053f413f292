//! Read-modify-write for tracked JSON result files.
//!
//! Every `repro` tracker records into `BENCH_hotpaths.json` at the repo
//! root. Each owns a disjoint set of top-level sections;
//! [`merge_tracked_json`] replaces the caller's own sections wholesale
//! and preserves every other top-level key already in the file, so the
//! commands can run in any order (or alone) without clobbering each
//! other's numbers.

use telemetry::json::Json;

/// Merges `own` top-level sections into the JSON object stored at
/// `path`, writes the result back and returns it. Keys in `own` are
/// replaced; foreign keys are appended after them in their original
/// order. A missing or unparseable file is treated as empty — tracked
/// result files are regenerable by definition.
pub fn merge_tracked_json(path: &str, own: Vec<(String, Json)>) -> std::io::Result<Json> {
    let mut fields = own;
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(Json::Obj(existing)) = Json::parse(&text) {
            for (k, v) in existing {
                if !fields.iter().any(|(fk, _)| *fk == k) {
                    fields.push((k, v));
                }
            }
        }
    }
    std::fs::write(path, render_top(&fields))?;
    Ok(Json::Obj(fields))
}

/// Pretty top-level rendering: one line per top-level key, one line per
/// element in arrays of objects (the shape `git diff` reads best), and
/// compact rendering for everything else.
fn render_top(fields: &[(String, Json)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&Json::Str(k.clone()).render());
        out.push_str(": ");
        out.push_str(&render_val(v, 1));
        if i + 1 < fields.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

fn render_val(v: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    match v {
        Json::Arr(items)
            if !items.is_empty() && items.iter().any(|it| matches!(it, Json::Obj(_))) =>
        {
            let mut out = String::from("[\n");
            for (i, it) in items.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&it.render());
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push(']');
            out
        }
        Json::Obj(obj)
            if depth < 2 && obj.iter().any(|(_, fv)| matches!(fv, Json::Arr(_) | Json::Obj(_))) =>
        {
            let mut out = String::from("{\n");
            for (i, (k, fv)) in obj.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&Json::Str(k.clone()).render());
                out.push_str(": ");
                out.push_str(&render_val(fv, depth + 1));
                if i + 1 < obj.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
            out
        }
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("samo-tracked-{name}-{}.json", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn merge_replaces_own_and_preserves_foreign_sections() {
        let path = tmp("merge");
        std::fs::write(
            &path,
            "{\"kernels\": [1, 2], \"comms\": {\"schema\": 1, \"worlds\": [{\"world\": 2}]}}",
        )
        .unwrap();
        merge_tracked_json(
            &path,
            vec![("kernels".to_string(), Json::Arr(vec![Json::UInt(3)]))],
        )
        .unwrap();
        let got = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(got.get("kernels"), Some(&Json::Arr(vec![Json::UInt(3)])));
        assert_eq!(
            got.get("comms").and_then(|c| c.get("schema")),
            Some(&Json::UInt(1)),
            "foreign section must survive a merge untouched"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_or_malformed_file_is_treated_as_empty() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        merge_tracked_json(&path, vec![("a".to_string(), Json::Bool(true))]).unwrap();
        std::fs::write(&path, "not json {").unwrap();
        merge_tracked_json(&path, vec![("a".to_string(), Json::UInt(7))]).unwrap();
        let got = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(got.get("a"), Some(&Json::UInt(7)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rendered_output_reparses_to_the_same_tree() {
        let fields = vec![
            ("schema".to_string(), Json::UInt(1)),
            (
                "kernels".to_string(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".to_string(), Json::Str("gemm".into())),
                    ("best_ms".to_string(), Json::Num(1.25)),
                ])]),
            ),
            (
                "comms".to_string(),
                Json::Obj(vec![
                    ("quick".to_string(), Json::Bool(true)),
                    (
                        "worlds".to_string(),
                        Json::Arr(vec![Json::Obj(vec![(
                            "world".to_string(),
                            Json::UInt(2),
                        )])]),
                    ),
                ]),
            ),
        ];
        let text = render_top(&fields);
        assert_eq!(Json::parse(&text).unwrap(), Json::Obj(fields));
    }
}
